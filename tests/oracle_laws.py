"""Law checkers and relation builders that only the tests use.

The commands never prove these laws at run time: constructors build their
cells, and the tests assert what the cells satisfy.  This module holds the
machinery for that: the Frobenius axioms of a region structure, kernels of
relations with their universal property, the duplication and matching
relations, every relation between two sets, every permutation of a set,
two predicates on a relation, and the converse of a two-cell.  Unlike
the other oracles it is written on top of the library, since each check
here is a composite of library operations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from relcat.cells import (
    CellDifference,
    TwoCell,
    equal,
    hcompose_two,
    identity_two_cell,
    scalar_one_cell,
    tensor,
    vcompose,
)
from relcat.generators import (
    RegionStructure,
    scalar_compare,
    scalar_copy,
    swap_cell,
)
from relcat.relations import (
    FiniteSet,
    Permutation,
    Rel,
    SetLike,
    as_finite_set,
    converse,
    make,
    product_set,
    relation_from_code,
)

# ---------------------------------------------------------------------------
# Frobenius axioms of a public region.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomResult:
    holds: bool
    difference: Optional[CellDifference] = None


@dataclass(frozen=True)
class FrobeniusReport:
    axioms: dict[str, AxiomResult]

    @property
    def passed(self) -> bool:
        return all(a.holds for a in self.axioms.values())

    def failures(self) -> list[str]:
        return [name for name, a in self.axioms.items() if not a.holds]


def frobenius_check(rs: RegionStructure) -> FrobeniusReport:
    """Evaluate the topological axioms of a region structure.

    Checks the four boundary zig-zags (copy-then-delete and
    compare-after-create, on each boundary), both symmetry laws, bubble
    elimination, associativity of copy and compare, and the two-sided
    interchange law.  Failures are reported per axiom, never raised.
    """
    bl, br = rs.boundary_left, rs.boundary_right
    id_bl, id_br = identity_two_cell(bl), identity_two_cell(br)
    axioms: dict[str, AxiomResult] = {}

    def record(name: str, lhs: TwoCell, rhs: TwoCell) -> None:
        res = equal(lhs, rhs)
        axioms[name] = AxiomResult(res.equal, res.difference)

    # copy-then-delete zig-zags
    record(
        "copy_delete_left",
        vcompose(
            hcompose_two(id_bl, rs.copy),
            hcompose_two(rs.delete_region, id_bl),
        ),
        id_bl,
    )
    record(
        "copy_delete_right",
        vcompose(
            hcompose_two(rs.copy, id_br),
            hcompose_two(id_br, rs.delete_region),
        ),
        id_br,
    )
    # compare-after-create zig-zags
    record(
        "compare_create_left",
        vcompose(
            hcompose_two(rs.create_region, id_bl),
            hcompose_two(id_bl, rs.compare),
        ),
        id_bl,
    )
    record(
        "compare_create_right",
        vcompose(
            hcompose_two(id_br, rs.create_region),
            hcompose_two(rs.compare, id_br),
        ),
        id_br,
    )

    merge_ = scalar_compare(rs)
    split = scalar_copy(rs)
    tw = swap_cell(rs.carrier, rs.carrier)
    record("compare_symmetric", vcompose(tw, merge_), merge_)
    record("copy_symmetric", vcompose(split, tw), split)
    record("bubble", vcompose(split, merge_), identity_two_cell(scalar_one_cell(rs.carrier)))

    wire = identity_two_cell(scalar_one_cell(rs.carrier))
    record(
        "compare_associative",
        vcompose(tensor(merge_, wire), merge_),
        vcompose(tensor(wire, merge_), merge_),
    )
    record(
        "copy_associative",
        vcompose(split, tensor(split, wire)),
        vcompose(split, tensor(wire, split)),
    )
    middle = vcompose(merge_, split)
    record(
        "interchange_left",
        vcompose(tensor(split, wire), tensor(wire, merge_)),
        middle,
    )
    record(
        "interchange_right",
        vcompose(tensor(wire, split), tensor(merge_, wire)),
        middle,
    )
    return FrobeniusReport(axioms)


# ---------------------------------------------------------------------------
# Kernels.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelResult:
    """The part of a relation's source on which it halts.

    ``inclusion`` is the graph of the injection of the carrier back into the
    source set, in increasing index order.
    """

    carrier: FiniteSet
    inclusion: Rel


def kernel(r: Rel) -> KernelResult:
    halted = [a for a in range(r.src.size) if not r.bits[:, a].any()]
    labels = (
        tuple(r.src.label(a) for a in halted)
        if r.src.labels is not None
        else None
    )
    carrier = FiniteSet(len(halted), labels)
    bits = np.zeros((r.src.size, carrier.size), dtype=bool)
    for k, a in enumerate(halted):
        bits[a, k] = True
    return KernelResult(carrier, Rel(carrier, r.src, bits))


def factor_through_kernel(sigma: Rel, k: KernelResult) -> Rel:
    """The unique relation with ``compose(result, inclusion) == sigma``.

    Only meaningful when ``sigma`` lands inside the kernel carrier, i.e. when
    the analyzed relation composed with ``sigma`` is empty.
    """
    # inclusion.bits is (src x carrier); selecting its columns restricts
    # sigma to the kernel elements.
    members = [int(np.argmax(k.inclusion.bits[:, j])) for j in range(k.carrier.size)]
    bits = sigma.bits[members, :] if members else np.zeros((0, sigma.src.size), bool)
    return Rel(sigma.src, k.carrier, bits)


# ---------------------------------------------------------------------------
# Relation builders.
# ---------------------------------------------------------------------------


def diagonal(s: SetLike) -> Rel:
    """The duplication relation ``x -> (x, x)``."""
    s = as_finite_set(s)
    return make(s, product_set(s, s), [(x, x * s.size + x) for x in s])


def merge(s: SetLike) -> Rel:
    """The matching relation ``(x, x) -> x``; halts on mismatched pairs."""
    return converse(diagonal(s))


def all_relations(src: SetLike, dst: SetLike) -> Iterator[Rel]:
    """Every relation ``src -> dst``, in increasing bit-pattern order.

    Bit order is row-major over the (dst x src) matrix, with the first matrix
    entry as the most significant bit.
    """
    src, dst = as_finite_set(src), as_finite_set(dst)
    for code in range(1 << (src.size * dst.size)):
        yield relation_from_code(src, dst, code)


def all_permutations(s: SetLike) -> Iterator[Permutation]:
    """All permutations of the carrier, in lexicographic order."""
    s = as_finite_set(s)
    for mapping in itertools.permutations(range(s.size)):
        yield Permutation(s, mapping)


def holds(r: Rel, a: int, b: int) -> bool:
    """Whether r relates a to b."""
    return bool(r.bits[b, a])


def is_empty(r: Rel) -> bool:
    return not r.bits.any()


# ---------------------------------------------------------------------------
# Two-cells.
# ---------------------------------------------------------------------------


def converse_two_cell(a: TwoCell) -> TwoCell:
    components = tuple(
        tuple(converse(a.component(t, s)) for s in range(a.domain.src.size))
        for t in range(a.domain.dst.size)
    )
    return TwoCell(a.codomain, a.domain, components)
