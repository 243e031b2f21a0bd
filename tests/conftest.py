"""Shared builders for randomized cell tests."""

from __future__ import annotations

import contextlib
import random

import numpy as np
import pytest

from relcat import relations
from relcat.cells import OneCell, TwoCell
from relcat.generators import region_structure
from relcat.relations import FiniteSet, Rel


class CellBuilder:
    """Deterministic random relations, one-cells and two-cells."""

    def __init__(self, seed: int, max_fiber: int = 3, density: float = 0.5):
        self.rng = random.Random(seed)
        self.max_fiber = max_fiber
        self.density = density

    def finite_set(self, lo: int = 0, hi: int | None = None) -> FiniteSet:
        return FiniteSet(self.rng.randint(lo, hi if hi is not None else self.max_fiber))

    def rel(self, src: FiniteSet, dst: FiniteSet) -> Rel:
        bits = np.array(
            [self.rng.random() < self.density for _ in range(src.size * dst.size)],
            dtype=bool,
        ).reshape(dst.size, src.size)
        return Rel(src, dst, bits)

    def one_cell(self, src: FiniteSet, dst: FiniteSet) -> OneCell:
        return OneCell(
            src,
            dst,
            tuple(
                tuple(self.finite_set() for _ in range(src.size))
                for _ in range(dst.size)
            ),
        )

    def two_cell(
        self, src: FiniteSet, dst: FiniteSet, domain: OneCell | None = None
    ) -> TwoCell:
        domain = domain or self.one_cell(src, dst)
        codomain = self.one_cell(src, dst)
        components = tuple(
            tuple(
                self.rel(domain.fiber(t, s), codomain.fiber(t, s))
                for s in range(src.size)
            )
            for t in range(dst.size)
        )
        return TwoCell(domain, codomain, components)

    def two_cell_from(self, domain: OneCell) -> TwoCell:
        return self.two_cell(domain.src, domain.dst, domain)


@pytest.fixture(autouse=True)
def recheck_derived(request):
    """Run the public checks of `TwoCell` on every cell that the library
    stores unchecked, in every test but those marked ``unchecked``.  Its
    own patch, so that a test's `monkeypatch.undo()` keeps it."""
    if request.node.get_closest_marker("unchecked"):
        yield
        return
    derived = TwoCell._derived

    def checked(domain, codomain, components):
        assert type(components) is tuple
        assert all(type(row) is tuple for row in components)
        cell = derived(domain, codomain, components)
        TwoCell.__post_init__(cell)
        return cell

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TwoCell, "_derived", staticmethod(checked))
        yield


@pytest.fixture
def builder() -> CellBuilder:
    return CellBuilder(seed=20240811)


@pytest.fixture
def record_built(monkeypatch):
    """A context manager that lists the size of every matrix built inside
    it, dense or from Kronecker factors.  Cached region cells are built
    again inside it, so that they are counted too."""

    @contextlib.contextmanager
    def record():
        built = []
        init, materialise = relations.Rel.__init__, relations._materialise

        def recording_init(self, src, dst, bits):
            init(self, src, dst, bits)
            built.append(self.bits.size)

        def recording_materialise(factors):
            out = materialise(factors)
            built.append(out.size)
            return out

        with monkeypatch.context() as patch:
            patch.setattr(relations.Rel, "__init__", recording_init)
            patch.setattr(relations, "_materialise", recording_materialise)
            region_structure.cache_clear()
            try:
                yield built
            finally:
                region_structure.cache_clear()

    return record
