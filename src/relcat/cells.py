"""Matrices of finite sets and matrices of relations.

A zero-level object ("0-cell") is a finite set of region values.  A one-level
arrow (`OneCell`) from S to T is a (|T| x |S|) matrix of finite sets, and a
two-level arrow (`TwoCell`) between parallel one-cells is a matrix of
relations acting fiberwise.  Two-cells compose vertically (fiberwise
relational composition), horizontally (along a shared 0-cell, by a
coproduct-of-products formula) and under tensor (Kronecker style); this
module computes their shapes and paths, `relations` builds each component
once, and the cell is stored without the public checks (`TwoCell._derived`).
Along a one-value 0-cell, a horizontal composite builds one component per
distinct pair of operand components and shares it wherever that pair
recurs, so a step whiskered between a region's boundaries (whose
identities the region holds) is the step's own relation at every pair.

Encodings are strict.  Tensor products are mixed-radix with the left factor
as the high digit.  For horizontal composition, a composite cell keeps the
chain of atomic cells it was built from; an element of a composite fiber is
a path through that chain (alternating fiber elements and middle 0-cell
values), and paths are ranked lexicographically reading from the
last-applied end.  Re-bracketing a composition chain concatenates the same
atoms in the same order, so differently bracketed composites have literally
identical fiber encodings and unit cells compose away to nothing.  The
associativity and unit isomorphisms are therefore identities, and `equal`
on bit matrices soundly decides equality of composite diagrams.

Display labels of composite fibers (and of tensor product fibers) are
computed when first read, which in practice is when a `CellDifference` is
described; the algebra itself only ever needs fiber sizes and paths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from relcat.relations import (
    FiniteSet,
    Rel,
    ShapeError,
    _first_difference,
    _is_unit,
    _kron_sum,
    as_finite_set,
    compose as compose_rel,
    identity as identity_rel,
    product_set,
)

__all__ = [
    "CellDifference",
    "EqualityResult",
    "OneCell",
    "TwoCell",
    "equal",
    "hcompose_one",
    "hcompose_two",
    "identity_one_cell",
    "identity_two_cell",
    "one_cells_parallel",
    "scalar_one_cell",
    "scalar_two_cell",
    "tensor",
    "tensor_many",
    "tensor_one",
    "vcompose",
    "vcompose_many",
]

# An atom is the fiber matrix of a non-composite cell; Path elements
# alternate fiber indices and middle 0-cell values, in application order.
Atom = tuple[tuple[FiniteSet, ...], ...]
Path = tuple[int, ...]


class OneCell:
    """A matrix of finite sets: fiber (t, s) for t in dst, s in src.

    ``word``/``chain`` record the factorization into atomic cells and the
    0-cells between them; cells constructed directly are single atoms, and
    identity cells are the empty word.  ``sizes`` is the integer matrix of
    fiber sizes, read by everything that needs only the shape.  A
    composite from `hcompose_one` is made from its sizes alone; each of its
    fibers, with the label recipe of its paths, is made when first read.
    Two cells are equal when their 0-cells, words and chains are, which
    fixes their fibers.
    """

    __slots__ = ("src", "dst", "word", "chain", "sizes", "_fibers", "_sources_by_rank")

    def __init__(
        self,
        src: FiniteSet,
        dst: FiniteSet,
        fibers: Iterable[Iterable[FiniteSet]],
        word: Optional[tuple[Atom, ...]] = None,
        chain: Optional[tuple[FiniteSet, ...]] = None,
    ) -> None:
        fibers = tuple(tuple(row) for row in fibers)
        if len(fibers) != dst.size:
            raise ShapeError(
                f"{len(fibers)} fiber rows for a target of size {dst.size}"
            )
        for row in fibers:
            if len(row) != src.size:
                raise ShapeError(
                    f"{len(row)} fiber columns for a source of size {src.size}"
                )
        sizes = np.array(
            [[f.size for f in row] for row in fibers], dtype=np.int64
        ).reshape(dst.size, src.size)
        if word is None:
            word, chain = (fibers,), (src, dst)
        self._set(src, dst, tuple(word), tuple(chain), sizes, fibers)

    @classmethod
    def _composite(
        cls,
        src: FiniteSet,
        dst: FiniteSet,
        word: tuple[Atom, ...],
        chain: tuple[FiniteSet, ...],
        sizes: np.ndarray,
    ) -> OneCell:
        cell = cls.__new__(cls)
        cell._set(src, dst, word, chain, sizes, {})
        return cell

    def _set(self, src, dst, word, chain, sizes, fibers) -> None:
        sizes.setflags(write=False)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "chain", chain)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "_fibers", fibers)
        # per target, the source of each ranked path into it from any
        # source, listed on first use by `_junctions`
        object.__setattr__(self, "_sources_by_rank", {})

    def __setattr__(self, name, value):
        raise AttributeError("OneCell is immutable")

    def _key(self):
        return (self.src, self.dst, self.word, self.chain)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OneCell):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def fiber(self, t: int, s: int) -> FiniteSet:
        if isinstance(self._fibers, tuple):
            return self._fibers[t][s]
        made = self._fibers.get((t, s))
        if made is None:
            made = FiniteSet(
                int(self.sizes[t, s]), _PathLabels((self.word, self.chain, t, s))
            )
            self._fibers[t, s] = made
        return made

    def fiber_sizes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.sizes.tolist()))

    def paths(self, t: int, s: int) -> list[Path]:
        """Elements of fiber (t, s) as ranked paths through the word."""
        return [p for p, _ in _word_paths(self.word, self.chain, t, (s,))]

    def sources_by_rank(self, t: int) -> np.ndarray:
        """The source of every path into t, from every source, ranked by
        the reversed path and then the source."""
        if t not in self._sources_by_rank:
            ranked = _word_paths(self.word, self.chain, t, range(self.src.size))
            self._sources_by_rank[t] = np.array([s for _, s in ranked], dtype=np.intp)
        return self._sources_by_rank[t]

    def is_monoidal_unit(self) -> bool:
        return not self.word and self.src.size == 1


def _word_paths(
    word: tuple[Atom, ...], chain: tuple[FiniteSet, ...], t: int, sources: Iterable[int]
) -> list[tuple[Path, int]]:
    """Every path into t from each of `sources`, paired with its source,
    sorted by the reversed path and then the source."""
    # partial paths with their sources, keyed by the middle value they
    # currently end at
    states: dict[int, list[tuple[Path, int]]] = {s: [((), s)] for s in sources}
    for k, atom in enumerate(word):
        is_last = k == len(word) - 1
        targets = [t] if is_last else list(range(chain[k + 1].size))
        new_states: dict[int, list[tuple[Path, int]]] = {}
        for j in targets:
            acc: list[tuple[Path, int]] = []
            for i, partials in states.items():
                fiber = atom[j][i]
                if fiber.size == 0:
                    continue
                for p, s in partials:
                    for e in range(fiber.size):
                        acc.append((p + (e,) if k == 0 else p + (i, e), s))
            if acc:
                new_states[j] = acc
        states = new_states
    paths = states.get(t, [])
    paths.sort(key=lambda ps: (ps[0][::-1], ps[1]))
    return paths


def _path_label(
    word: tuple[Atom, ...], chain: tuple[FiniteSet, ...], t: int, s: int, path: Path
) -> Optional[str]:
    """Best-effort display label for a composite fiber element.

    Pure boundary composites (all fibers singletons) are labelled by their
    middle values; a single non-trivial atom wrapped in singletons is
    labelled by that atom's fiber label; anything else is unlabelled.
    """
    if not word:
        return "*"
    # decompose path into elements and middles
    elems = [path[0]]
    mids = [s]
    rest = path[1:]
    for k in range(0, len(rest), 2):
        mids.append(rest[k])
        elems.append(rest[k + 1])
    mids = mids[1:] + [t]  # middle values after each atom
    # collect one display part per informative coordinate, in application
    # order (rightmost spatial position first), then reverse for display
    parts: list[str] = []
    prev_mid = s
    for k, atom in enumerate(word):
        fiber = atom[mids[k]][prev_mid]
        if any(f.size > 1 for row in atom for f in row):
            if fiber.labels is None:
                return None
            parts.append(fiber.label(elems[k]))
        if k < len(word) - 1 and chain[k + 1].size > 1:
            parts.append(chain[k + 1].label(mids[k]))
        prev_mid = mids[k]
    if not parts:
        return "*"
    parts.reverse()
    return parts[0] if len(parts) == 1 else "(" + ",".join(parts) + ")"


class _PathLabels(tuple):
    """Label recipe of composite fiber (t, s), the tuple (word, chain, t,
    s): one `_path_label` per path, or no labels when some path has none
    or two coincide.  A plain tuple, so that a composite cell's many fibers
    are cheap to build and compare by value."""

    __slots__ = ()

    def __call__(self) -> Optional[tuple[str, ...]]:
        word, chain, t, s = self
        labels = []
        for p, _ in _word_paths(word, chain, t, (s,)):
            lab = _path_label(word, chain, t, s, p)
            if lab is None:
                return None
            labels.append(lab)
        if len(set(labels)) != len(labels):
            return None
        return tuple(labels)


def scalar_one_cell(fiber: FiniteSet | int) -> OneCell:
    """The one-cell on trivial 0-cells whose single fiber is the given set."""
    unit = FiniteSet(1)
    return OneCell(unit, unit, ((as_finite_set(fiber),),))


def identity_one_cell(s: FiniteSet | int) -> OneCell:
    """The composition unit on a 0-cell: diagonal singletons, empty word."""
    s = as_finite_set(s)
    one, zero = FiniteSet(1), FiniteSet(0)
    fibers = tuple(tuple(one if t == u else zero for u in s) for t in s)
    return OneCell(s, s, fibers, word=(), chain=(s,))


def one_cells_parallel(a: OneCell, b: OneCell) -> bool:
    # as `np.array_equal`, at a tenth of its cost on the small matrices
    # that most cells have
    return a.sizes.shape == b.sizes.shape and a.sizes.tobytes() == b.sizes.tobytes()


@dataclass(frozen=True)
class TwoCell:
    """A matrix of relations between matching fibers of two parallel one-cells."""

    domain: OneCell
    codomain: OneCell
    components: tuple[tuple[Rel, ...], ...]

    def __post_init__(self) -> None:
        components = tuple(tuple(row) for row in self.components)
        object.__setattr__(self, "components", components)
        if (
            self.domain.src.size != self.codomain.src.size
            or self.domain.dst.size != self.codomain.dst.size
        ):
            raise ShapeError("domain and codomain one-cells are not parallel")
        if len(components) != self.domain.dst.size or any(
            len(row) != self.domain.src.size for row in components
        ):
            raise ShapeError("component matrix shape does not match the 0-cells")
        doms, cods = self.domain.sizes.tolist(), self.codomain.sizes.tolist()
        for t, row in enumerate(components):
            for s, rel in enumerate(row):
                if rel.src.size != doms[t][s] or rel.dst.size != cods[t][s]:
                    raise ShapeError(
                        f"component ({t}, {s}) has shape "
                        f"{rel.src.size}->{rel.dst.size}, fibers are "
                        f"{doms[t][s]}->{cods[t][s]}"
                    )

    @classmethod
    def _derived(cls, domain, codomain, components) -> TwoCell:
        """A cell whose components were built along its one-cells' shape,
        stored without the public checks."""
        cell = cls.__new__(cls)
        object.__setattr__(cell, "domain", domain)
        object.__setattr__(cell, "codomain", codomain)
        object.__setattr__(cell, "components", components)
        return cell

    def component(self, t: int, s: int) -> Rel:
        return self.components[t][s]

    def is_scalar(self) -> bool:
        return self.domain.src.size == 1 and self.domain.dst.size == 1

    def scalar(self) -> Rel:
        if not self.is_scalar():
            raise ShapeError("not a scalar two-cell")
        return self.components[0][0]


def scalar_two_cell(rel: Rel) -> TwoCell:
    return TwoCell(scalar_one_cell(rel.src), scalar_one_cell(rel.dst), ((rel,),))


def identity_two_cell(a: OneCell) -> TwoCell:
    """One identity relation per fiber size, or per fiber where `a` holds
    its fibers; the fibers of a composite are not made."""
    fibers = a._fibers if isinstance(a._fibers, tuple) else a.sizes.tolist()
    shared = {f: identity_rel(f) for f in set().union(*fibers)}
    return TwoCell._derived(a, a, tuple(tuple(map(shared.get, r)) for r in fibers))


def vcompose(a: TwoCell, b: TwoCell) -> TwoCell:
    """Componentwise relational composition: first a, then b."""
    if not one_cells_parallel(a.codomain, b.domain):
        raise ShapeError(
            "vertical composition: codomain of first stage does not match "
            "domain of second"
        )
    components = tuple(
        tuple(
            compose_rel(a.component(t, s), b.component(t, s))
            for s in range(a.domain.src.size)
        )
        for t in range(a.domain.dst.size)
    )
    return TwoCell._derived(a.domain, b.codomain, components)


def vcompose_many(first: TwoCell, *rest: TwoCell) -> TwoCell:
    out = first
    for cell in rest:
        out = vcompose(out, cell)
    return out


def hcompose_one(a: OneCell, b: OneCell) -> OneCell:
    """Horizontal composite of one-cells: a applied first, b second.

    Fiber (u, s) is the disjoint union over the middle value t of
    (b-fiber x a-fiber); its size is the sum of the products.  Unit cells
    vanish from the factorization, so composing with an identity returns an
    encoding-identical cell.
    """
    if a.dst.size != b.src.size:
        raise ShapeError(
            f"horizontal composition: middle 0-cells have sizes "
            f"{a.dst.size} and {b.src.size}"
        )
    word = a.word + b.word
    chain = a.chain[:-1] + b.chain
    return OneCell._composite(a.src, b.dst, word, chain, b.sizes @ a.sizes)


def hcompose_two(alpha: TwoCell, beta: TwoCell) -> TwoCell:
    """Horizontal composite of two-cells: alpha applied first, beta second.

    Component (u, s) relates composite paths block-wise over the shared
    middle value: the alpha part acts on the inner leg, the beta part on the
    outer leg, and paths through different middle values are unrelated.
    The block at middle value t is the Kronecker product
    ``beta.component(u, t) (x) alpha.component(t, s)``, and
    `relations._kron_sum` builds their direct sum.  With a single middle value,
    each distinct pair of operand components is built once per call and
    shared by every component it appears in.
    """
    domain = hcompose_one(alpha.domain, beta.domain)
    codomain = hcompose_one(alpha.codomain, beta.codomain)
    mid = alpha.domain.dst.size
    doms, cods = domain.sizes.tolist(), codomain.sizes.tolist()
    sets = {n: FiniteSet(n) for n in set().union(*doms, *cods)}
    blocks: dict[tuple[int, int], Rel] = {}

    def component(u: int, s: int) -> Rel:
        if mid == 1:  # the component depends on its operand pair alone
            b, a = beta.component(u, 0), alpha.component(0, s)
            key = id(b), id(a)
            if key not in blocks:
                blocks[key] = _kron_sum(
                    [(b, a)], sets[doms[u][s]], sets[cods[u][s]], None
                )
            return blocks[key]
        return _kron_sum(
            [(beta.component(u, t), alpha.component(t, s)) for t in range(mid)],
            sets[doms[u][s]],
            sets[cods[u][s]],
            # bound as defaults, so that `u` and `s` stay plain locals here
            lambda u=u, s=s: (
                _junctions(alpha.codomain, beta.codomain, u, s),
                _junctions(alpha.domain, beta.domain, u, s),
            ),
        )

    components = tuple(
        tuple(component(u, s) for s in range(domain.src.size))
        for u in range(domain.dst.size)
    )
    return TwoCell._derived(domain, codomain, components)


def _junctions(a_cell: OneCell, b_cell: OneCell, u: int, s: int) -> np.ndarray:
    """The middle value of each ranked path of composite fiber (u, s).

    A composite path read from the last-applied end is its b-part, then
    the middle value t, then its a-part; so paths are ordered by b-path,
    then t, then a-rank.  In particular the paths through one middle value
    t are ordered by b-rank, then a-rank: exactly the Kronecker order of
    (b-fiber (u, t)) x (a-fiber (t, s)).  So each b-path into u from t
    stands, in its rank, for a run of as many paths as a-fiber (t, s) has
    elements.
    """
    if not a_cell.word:  # an identity: every path passes through s
        return np.full(b_cell.sizes[u, s], s)
    if not b_cell.word:
        return np.full(a_cell.sizes[u, s], u)
    middles = b_cell.sources_by_rank(u)
    return np.repeat(middles, a_cell.sizes[middles, s])


def tensor_one(a: OneCell, b: OneCell) -> OneCell:
    """Kronecker tensor of one-cells: an (m x n) and an (r x s) matrix of
    sets give an (mr x ns) matrix; fibers multiply pairwise, left factor
    as the high digit.  Tensoring with the monoidal unit is the identity."""
    if b.is_monoidal_unit():
        return a
    if a.is_monoidal_unit():
        return b
    fibers = tuple(
        tuple(
            product_set(a.fiber(t, s), b.fiber(tp, sp))
            for s in range(a.src.size)
            for sp in range(b.src.size)
        )
        for t in range(a.dst.size)
        for tp in range(b.dst.size)
    )
    return OneCell(product_set(a.src, b.src), product_set(a.dst, b.dst), fibers)


def _is_unit_two_cell(a: TwoCell) -> bool:
    return (
        a.domain.is_monoidal_unit()
        and a.codomain.is_monoidal_unit()
        and _is_unit(a.component(0, 0))
    )


def tensor(a: TwoCell, b: TwoCell) -> TwoCell:
    if _is_unit_two_cell(b):
        return a
    if _is_unit_two_cell(a):
        return b
    domain = tensor_one(a.domain, b.domain)
    codomain = tensor_one(a.codomain, b.codomain)
    # each component is its pair's product, or beside a unit the other one
    components = tuple(
        tuple(
            _kron_sum([(x, y)], domain.fiber(i, j), codomain.fiber(i, j), None)
            for j, (x, y) in enumerate(itertools.product(row_a, row_b))
        )
        for i, (row_a, row_b) in enumerate(
            itertools.product(a.components, b.components)
        )
    )
    return TwoCell._derived(domain, codomain, components)


def tensor_many(first: TwoCell, *rest: TwoCell) -> TwoCell:
    out = first
    for cell in rest:
        out = tensor(out, cell)
    return out


@dataclass(frozen=True)
class CellDifference:
    """Location of the first disagreement between two two-cells."""

    kind: str  # "shape" or "bit"
    t: Optional[int] = None
    s: Optional[int] = None
    row: Optional[int] = None
    col: Optional[int] = None
    lhs: Optional[bool] = None
    rhs: Optional[bool] = None
    row_label: Optional[str] = None
    col_label: Optional[str] = None
    detail: str = ""

    def describe(self) -> str:
        if self.kind == "shape":
            return f"shape mismatch: {self.detail}"
        where = f"component ({self.t}, {self.s})"
        src = self.col_label if self.col_label is not None else str(self.col)
        dst = self.row_label if self.row_label is not None else str(self.row)
        return (
            f"{where}: pair {src} -> {dst} is "
            f"{'present' if self.lhs else 'absent'} on the left, "
            f"{'present' if self.rhs else 'absent'} on the right"
        )


@dataclass(frozen=True)
class EqualityResult:
    equal: bool
    difference: Optional[CellDifference] = None

    def __bool__(self) -> bool:
        return self.equal


def equal(a: TwoCell, b: TwoCell) -> EqualityResult:
    """Strict equality: same 0-cells, same fiber sizes, identical bits.

    On failure, reports the first differing component and element pair in
    row-major order.
    """
    if (
        a.domain.src.size != b.domain.src.size
        or a.domain.dst.size != b.domain.dst.size
    ):
        return EqualityResult(
            False,
            CellDifference(
                kind="shape",
                detail=(
                    f"0-cells {a.domain.src.size}->{a.domain.dst.size} vs "
                    f"{b.domain.src.size}->{b.domain.dst.size}"
                ),
            ),
        )
    if not (
        one_cells_parallel(a.domain, b.domain)
        and one_cells_parallel(a.codomain, b.codomain)
    ):
        return EqualityResult(
            False,
            CellDifference(kind="shape", detail="fiber sizes differ"),
        )
    for t in range(a.domain.dst.size):
        for s in range(a.domain.src.size):
            diff = _first_difference(a.component(t, s), b.component(t, s))
            if diff is None:
                continue
            row, col, lhs = diff
            dom = a.domain.fiber(t, s)
            cod = a.codomain.fiber(t, s)
            return EqualityResult(
                False,
                CellDifference(
                    kind="bit",
                    t=t,
                    s=s,
                    row=row,
                    col=col,
                    lhs=lhs,
                    rhs=not lhs,
                    row_label=cod.label(row) if cod.labels else None,
                    col_label=dom.label(col) if dom.labels else None,
                ),
            )
    return EqualityResult(True)
