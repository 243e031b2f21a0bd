"""Named generating cells.

Private wires get duality units ("cups", nondeterministic creation of a
matched pair of values) and counits ("caps", verification that two values
match), plus deletion and uniform random creation.  Public regions get the
four boundary generators (copy, compare, delete, create), publication and
sampling, and controlled operations that act on private data depending on a
public value.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from relcat.cells import (
    OneCell,
    TwoCell,
    hcompose_one,
    hcompose_two,
    identity_one_cell,
    identity_two_cell,
    scalar_one_cell,
    scalar_two_cell,
    tensor_one,
)
from relcat.relations import (
    FiniteSet,
    Permutation,
    Rel,
    ShapeError,
    as_finite_set,
    converse,
    empty,
    full,
    identity,
    make,
    product_set,
    relation_from_code,
    swap,
)

__all__ = [
    "ControlledOp",
    "DualityPair",
    "RegionStructure",
    "canonical_cup",
    "cap_cell",
    "classify_cups",
    "controlled",
    "controlled_at_left_boundary",
    "controlled_at_right_boundary",
    "controlled_scalar",
    "controlled_scalar_mirror",
    "create",
    "create_cell",
    "cup_cell",
    "cup_from_permutation",
    "delete",
    "delete_cell",
    "pad_permutation",
    "region_structure",
    "scalar_compare",
    "scalar_copy",
    "snake_equations_hold",
    "swap_cell",
]

MAX_CLASSIFY_SIZE = 4


@dataclass(frozen=True)
class DualityPair:
    """A unit/counit pair witnessing self-duality of the carrier.

    The cup creates a matched pair of values; the cap verifies a pair and
    halts on mismatch.  The pair is validated by `snake_equations_hold`.
    """

    carrier: FiniteSet
    cup: Rel  # 1 -> carrier x carrier
    cap: Rel  # carrier x carrier -> 1

    def __post_init__(self) -> None:
        if not snake_equations_hold(self.carrier, self.cup, self.cap):
            raise ValueError("cup and cap do not satisfy the snake equations")


def snake_equations_hold(carrier: FiniteSet, cup: Rel, cap: Rel) -> bool:
    """Both zig-zags of the cup and cap are the identity wire.

    Read the cup ``1 -> S x S`` as an S x S matrix R and the cap
    ``S x S -> 1`` as a matrix Q, both indexed (left leg, right leg).  The
    zig-zag with the cup on the left is the boolean product RQ, the other
    one QR, and the snake equations say that both are the identity: Q is a
    two-sided boolean inverse of R.  A boolean matrix has one exactly when
    it is a permutation matrix, and the inverse is its transpose (Luce, "A
    note on Boolean matrix theory", Proc. AMS 3, 1952).  So the test is
    that R is the graph of a permutation and Q is R transposed, in O(n^2)
    with no matrix product.
    """
    n = carrier.size
    if cup.src.size != 1 or cup.dst.size != n * n:
        return False
    if cap.src.size != n * n or cap.dst.size != 1:
        return False
    r, q = cup.bits.reshape(n, n), cap.bits.reshape(n, n)
    return _not_a_permutation(r) is None and np.array_equal(q, r.T)


def _not_a_permutation(graph: np.ndarray) -> Optional[str]:
    """Why a square boolean matrix is not the graph of a permutation, or
    None when it is one."""
    if (graph.sum(axis=1) > 1).any():
        return "is not the graph of a permutation"
    if not graph.any(axis=1).all():
        return "is not total"
    if not graph.any(axis=0).all():
        return "is not the graph of a permutation"
    return None


def cup_from_permutation(pi: Permutation) -> DualityPair:
    """The duality pair whose cup relates the point to every (s, pi(s)).

    The unique counit completing the snake equations is the matching
    relation of the inverse permutation.
    """
    s = pi.carrier
    pair = product_set(s, s)
    cup = make(FiniteSet(1), pair, [(0, x * s.size + pi(x)) for x in s])
    cap = make(pair, FiniteSet(1), [(pi(x) * s.size + x, 0) for x in s])
    return DualityPair(s, cup, cap)


def canonical_cup(s: FiniteSet | int) -> DualityPair:
    """The diagonal cup: both parties receive the same value."""
    return cup_from_permutation(Permutation.identity(as_finite_set(s)))


def classify_cups(s: FiniteSet | int) -> list[Permutation]:
    """All cups admitting a snake-completing cap, as permutations.

    By `snake_equations_hold` these are the cups whose matrix is the graph
    of a permutation.  Every one of the 2^(n^2) cups is tested at once for
    one bit in each row and each column, and the survivors are decoded by
    `pad_permutation`.  Cups come in increasing bit-code order.  Sizes
    above ``MAX_CLASSIFY_SIZE`` are refused.
    """
    s = as_finite_set(s)
    n = s.size
    if n > MAX_CLASSIFY_SIZE:
        raise ValueError(
            f"classification is exhaustive; size {n} exceeds the cap "
            f"of {MAX_CLASSIFY_SIZE}"
        )
    # Bit i of a relation code, counted from the most significant end, is
    # entry i of the row-major cup matrix (see `relation_from_code`).
    codes = np.arange(1 << (n * n), dtype=np.int64)
    shifts = np.arange(n * n - 1, -1, -1, dtype=np.int64)
    cups = ((codes[:, None] >> shifts) & 1).reshape(len(codes), n, n)
    in_rows, in_cols = cups.sum(axis=2), cups.sum(axis=1)
    snakes = (in_rows == 1).all(axis=1) & (in_cols == 1).all(axis=1)
    pair = product_set(s, s)
    return [
        pad_permutation(s, relation_from_code(FiniteSet(1), pair, int(code)))
        for code in np.flatnonzero(snakes)
    ]


def pad_permutation(keys: FiniteSet, pad: Rel) -> Permutation:
    """The permutation whose graph the cup ``pad: 1 -> keys x keys`` is.

    Every key must be paired with exactly one key and be the partner of
    exactly one key; otherwise a `ValueError` says which condition fails.
    """
    n = keys.size
    if pad.src.size != 1 or pad.dst.size != n * n:
        raise ValueError("'pad' must go from 1 to keys * keys")
    graph = pad.bits.reshape(n, n)
    failure = _not_a_permutation(graph)
    if failure is not None:
        raise ValueError(f"'pad' {failure}")
    return Permutation(keys, tuple(int(y) for y in np.nonzero(graph)[1]))


def delete(s: FiniteSet | int) -> Rel:
    """The unique zero-kernel relation into the one-element set."""
    return full(as_finite_set(s), FiniteSet(1))


def create(s: FiniteSet | int) -> Rel:
    """Nondeterministic preparation of an arbitrary value: converse of delete."""
    return converse(delete(s))


# ---------------------------------------------------------------------------
# Two-cell wrappers for the private-wire generators.
# ---------------------------------------------------------------------------


def cup_cell(dp: DualityPair) -> TwoCell:
    return TwoCell(
        identity_one_cell(FiniteSet(1)),
        scalar_one_cell(product_set(dp.carrier, dp.carrier)),
        ((dp.cup,),),
    )


def cap_cell(dp: DualityPair) -> TwoCell:
    return TwoCell(
        scalar_one_cell(product_set(dp.carrier, dp.carrier)),
        identity_one_cell(FiniteSet(1)),
        ((dp.cap,),),
    )


def delete_cell(s: FiniteSet | int) -> TwoCell:
    s = as_finite_set(s)
    return TwoCell(
        scalar_one_cell(s), identity_one_cell(FiniteSet(1)), ((delete(s),),)
    )


def create_cell(s: FiniteSet | int) -> TwoCell:
    s = as_finite_set(s)
    return TwoCell(
        identity_one_cell(FiniteSet(1)), scalar_one_cell(s), ((create(s),),)
    )


def wire_cell(s: FiniteSet | int) -> TwoCell:
    return identity_two_cell(scalar_one_cell(as_finite_set(s)))


def swap_cell(a: FiniteSet | int, b: FiniteSet | int) -> TwoCell:
    """The exchange of two side-by-side scalar cells."""
    return scalar_two_cell(swap(as_finite_set(a), as_finite_set(b)))


# ---------------------------------------------------------------------------
# Public regions.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegionStructure:
    """The canonical copy/compare/delete/create structure on a region.

    ``boundary_left`` is the one-cell from the trivial 0-cell into the
    region (all fibers singletons) and ``boundary_right`` its reverse.  The
    four generators are the units and counits of the two adjunctions between
    them; ``publish`` and ``sample`` convert between a private wire carrying
    the region's value set and the region itself.  ``id_left`` and
    ``id_right``, the identity two-cells on the boundaries, and the bubble
    with its identity, ``bubble`` and ``id_bubble``, are built when first
    read and kept, so every step whiskered between the boundaries reads
    the same cells.
    """

    carrier: FiniteSet
    boundary_left: OneCell  # 1 -> S
    boundary_right: OneCell  # S -> 1
    copy: TwoCell  # id_S  =>  boundary_left o boundary_right
    compare: TwoCell  # boundary_left o boundary_right  =>  id_S
    delete_region: TwoCell  # boundary_right o boundary_left  =>  id_1
    create_region: TwoCell  # id_1  =>  boundary_right o boundary_left
    publish: TwoCell  # wire S  =>  boundary_right o boundary_left
    sample: TwoCell  # boundary_right o boundary_left  =>  wire S

    @functools.cached_property
    def id_left(self) -> TwoCell:
        return identity_two_cell(self.boundary_left)

    @functools.cached_property
    def id_right(self) -> TwoCell:
        return identity_two_cell(self.boundary_right)

    @functools.cached_property
    def bubble(self) -> OneCell:
        return hcompose_one(self.boundary_left, self.boundary_right)

    @functools.cached_property
    def id_bubble(self) -> TwoCell:
        return identity_two_cell(self.bubble)


def _boundaries(s: FiniteSet) -> tuple[OneCell, OneCell]:
    one = FiniteSet(1)
    singleton = FiniteSet(1)
    bl = OneCell(one, s, tuple((singleton,) for _ in s))
    br = OneCell(s, one, (tuple(singleton for _ in s),))
    return bl, br


@functools.lru_cache(maxsize=None)
def region_structure(s: FiniteSet | int) -> RegionStructure:
    s = as_finite_set(s)
    bl, br = _boundaries(s)
    gap = hcompose_one(br, bl)  # S -> S, the white gap between two regions
    bubble = hcompose_one(bl, br)  # 1 -> 1, a region bubble; fiber is s
    ident = identity_one_cell(s)
    one_rel = identity(FiniteSet(1))
    not_copied = empty(FiniteSet(0), FiniteSet(1))
    not_compared = empty(FiniteSet(1), FiniteSet(0))
    copy_components = tuple(
        tuple(one_rel if t == u else not_copied for u in s) for t in s
    )
    cmp_components = tuple(
        tuple(one_rel if t == u else not_compared for u in s) for t in s
    )
    copy = TwoCell(ident, gap, copy_components)
    compare_ = TwoCell(gap, ident, cmp_components)
    delete_region = TwoCell(bubble, identity_one_cell(FiniteSet(1)), ((delete(s),),))
    create_region = TwoCell(identity_one_cell(FiniteSet(1)), bubble, ((create(s),),))
    publish = TwoCell(scalar_one_cell(s), bubble, ((identity(s),),))
    sample = TwoCell(bubble, scalar_one_cell(s), ((identity(s),),))
    return RegionStructure(
        s, bl, br, copy, compare_, delete_region, create_region, publish, sample
    )


def scalar_copy(rs: RegionStructure) -> TwoCell:
    """The copy generator squeezed between the two boundaries: a scalar
    duplication of the region's value."""
    first = hcompose_two(rs.id_left, rs.copy)
    return hcompose_two(first, rs.id_right)


def scalar_compare(rs: RegionStructure) -> TwoCell:
    first = hcompose_two(rs.id_left, rs.compare)
    return hcompose_two(first, rs.id_right)


# ---------------------------------------------------------------------------
# Controlled operations.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ControlledOp:
    """A private-data operation indexed by a public value.

    ``family[v]`` is the relation applied to the private wire when the
    controlling region holds value ``v``.
    """

    public_carrier: FiniteSet
    in_private: FiniteSet
    out_private: FiniteSet
    family: tuple[Rel, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", tuple(self.family))
        if len(self.family) != self.public_carrier.size:
            raise ShapeError(
                f"{len(self.family)} family members for a public carrier of "
                f"size {self.public_carrier.size}"
            )
        for v, rel in enumerate(self.family):
            if (
                rel.src.size != self.in_private.size
                or rel.dst.size != self.out_private.size
            ):
                raise ShapeError(
                    f"family member {v} has shape {rel.src.size}->"
                    f"{rel.dst.size}, declared {self.in_private.size}->"
                    f"{self.out_private.size}"
                )


def controlled(op: ControlledOp) -> TwoCell:
    """The controlled operation as a two-cell running alongside its region.

    Domain and codomain are the region identity tensored with the private
    wire, so the diagonal components carry the family and the off-diagonal
    components are empty by typing: the public value cannot change.
    """
    s = op.public_carrier
    dom = tensor_one(identity_one_cell(s), scalar_one_cell(op.in_private))
    cod = tensor_one(identity_one_cell(s), scalar_one_cell(op.out_private))
    components = tuple(
        tuple(
            op.family[t]
            if t == u
            else empty(dom.fiber(t, u), cod.fiber(t, u))
            for u in s
        )
        for t in s
    )
    return TwoCell(dom, cod, components)


def controlled_at_left_boundary(op: ControlledOp) -> TwoCell:
    """Boundary form with the region to the left of the wire: a two-cell
    from the trivial 0-cell into the region, one family member per fiber."""
    rs = region_structure(op.public_carrier)
    dom = hcompose_one(scalar_one_cell(op.in_private), rs.boundary_left)
    cod = hcompose_one(scalar_one_cell(op.out_private), rs.boundary_left)
    components = tuple((op.family[t],) for t in op.public_carrier)
    return TwoCell(dom, cod, components)


def controlled_at_right_boundary(op: ControlledOp) -> TwoCell:
    """Mirrored boundary form: the controlling region is to the right."""
    rs = region_structure(op.public_carrier)
    dom = hcompose_one(rs.boundary_right, scalar_one_cell(op.in_private))
    cod = hcompose_one(rs.boundary_right, scalar_one_cell(op.out_private))
    components = ((tuple(op.family[t] for t in op.public_carrier)),)
    return TwoCell(dom, cod, components)


def controlled_scalar(op: ControlledOp) -> TwoCell:
    """Scalar form against a region bubble sitting left of the wire:
    (v, x) relates to (v, y) exactly when family[v] relates x to y."""
    rs = region_structure(op.public_carrier)
    return hcompose_two(controlled_at_left_boundary(op), rs.id_right)


def controlled_scalar_mirror(op: ControlledOp) -> TwoCell:
    """Scalar form with the bubble to the right of the wire."""
    rs = region_structure(op.public_carrier)
    return hcompose_two(rs.id_left, controlled_at_right_boundary(op))
