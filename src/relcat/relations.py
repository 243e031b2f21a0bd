"""Finite sets and binary relations stored as boolean matrices.

This is the scalar layer of the whole library: every higher construction
eventually bottoms out in `compose`, `converse` and `_kron_sum`, the one
component kernel.  It builds every component of a cell, a direct sum over
middle values of Kronecker products; a single product is `_kron`, which
`product` calls too.

A relation is a dense boolean matrix, with one exception: a `product`
whose dense form would have more than `_BOOL_MATMUL_MAX_WORK` cells keeps
its Kronecker factors instead.  `compose` applies such a product to the
relation before it one factor axis at a time, as a state-vector simulator
applies a gate, whenever that takes fewer multiply-adds than the dense
product would; it takes the columns of that relation in chunks, so that
no intermediate state has more than `_CONTRACT_MAX_STATE` entries.  A
factor in which each target has at most one source, such as a
permutation, is applied as a row gather, the rest by float32 BLAS; which
one is decided once per dense relation (`_gather`) and kept on it.  Any
other reader of its `bits` builds the dense form, once.  Beside a unit
factor a product is the other factor itself, so it is never copied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

__all__ = [
    "MAX_DENSE_BITS",
    "FiniteSet",
    "Permutation",
    "Rel",
    "RelProperties",
    "ShapeError",
    "as_finite_set",
    "compose",
    "converse",
    "dense_size",
    "empty",
    "full",
    "identity",
    "make",
    "predicates",
    "product",
    "product_set",
    "swap",
]

SetLike = Union["FiniteSet", int]
LabelRecipe = Callable[[], Optional[tuple[str, ...]]]


class ShapeError(ValueError):
    """Sizes of the sets involved in an operation do not line up."""


class FiniteSet:
    """A finite carrier; its elements are the indices ``0 .. size-1``.

    ``labels`` are optional display names, one per element.  All algebra is
    done on indices; labels are for reporting only.  They are given either
    as a tuple or as a recipe: a hashable callable returning the tuple (or
    None).  Product sets and composite fibers carry recipes, so their labels
    are computed the first time `labels` or `label` is read, in practice
    only when a difference is described.  Two sets are equal when their
    sizes and their label tuples or recipes are equal; comparing or hashing
    a set never computes its labels.
    """

    __slots__ = ("size", "_labels", "_recipe", "_hash")

    def __init__(
        self, size: int, labels: Union[Sequence[str], LabelRecipe, None] = None
    ) -> None:
        if size < 0:
            raise ValueError(f"set size must be non-negative, got {size}")
        recipe = None
        if callable(labels):
            recipe, labels = labels, None
        elif labels is not None:
            labels = self._checked(size, labels)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "_recipe", recipe)
        object.__setattr__(self, "_hash", None)

    @staticmethod
    def _checked(size: int, labels: Sequence[str]) -> tuple[str, ...]:
        labels = tuple(labels)
        if len(labels) != size:
            raise ValueError(f"{len(labels)} labels for a set of size {size}")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be pairwise distinct")
        return labels

    @property
    def labels(self) -> Optional[tuple[str, ...]]:
        if self._recipe is not None and self._labels is None:
            labels = self._recipe()
            if labels is not None:
                object.__setattr__(self, "_labels", self._checked(self.size, labels))
        return self._labels

    def _unlabelled(self) -> bool:
        """True when the set is known to have no labels, without computing any."""
        return self._labels is None and self._recipe is None

    def _key(self):
        return (self.size, self._recipe if self._recipe is not None else self._labels)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FiniteSet):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self._key()))
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError("FiniteSet is immutable")

    def __repr__(self) -> str:
        return f"FiniteSet(size={self.size}, labels={self.labels!r})"

    def label(self, i: int) -> str:
        if not 0 <= i < self.size:
            raise IndexError(f"element {i} outside set of size {self.size}")
        labels = self.labels
        return labels[i] if labels is not None else str(i)

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.size))

    def __len__(self) -> int:
        return self.size


def as_finite_set(s: SetLike) -> FiniteSet:
    if isinstance(s, FiniteSet):
        return s
    return FiniteSet(int(s))


def product_set(a: SetLike, b: SetLike) -> FiniteSet:
    """Cartesian product, encoded mixed-radix with the left factor high.

    Pairs are labelled ``(x,y)`` when both factors are labelled; the labels
    are built when first read.
    """
    a, b = as_finite_set(a), as_finite_set(b)
    if a._unlabelled() or b._unlabelled():
        return FiniteSet(a.size * b.size)
    return FiniteSet(a.size * b.size, _PairLabels(a, b))


@dataclass(frozen=True)
class _PairLabels:
    """Label recipe of a product set."""

    a: FiniteSet
    b: FiniteSet

    def __call__(self) -> Optional[tuple[str, ...]]:
        if self.a.labels is None or self.b.labels is None:
            return None
        return tuple(f"({x},{y})" for x in self.a.labels for y in self.b.labels)


class Rel:
    """A binary relation ``src -> dst``.

    ``bits[b, a]`` is True exactly when source element ``a`` is related to
    target element ``b``.  Instances are immutable; every operation returns a
    fresh relation.  A writeable bit matrix is copied, so the caller may go
    on changing it; a read-only one is taken as it is, so relations built
    from one another share their bits instead of copying them.
    """

    # ``gather`` is filled by `_gather` when the relation is first applied
    # to a state in `_contract`
    __slots__ = ("src", "dst", "bits", "gather")

    def __init__(self, src: SetLike, dst: SetLike, bits: np.ndarray):
        src, dst = as_finite_set(src), as_finite_set(dst)
        bits = np.asarray(bits, dtype=bool)
        if bits.shape != (dst.size, src.size):
            raise ShapeError(
                f"bit matrix has shape {bits.shape}, expected "
                f"({dst.size}, {src.size})"
            )
        if bits.flags.writeable:
            bits = bits.copy()
            bits.setflags(write=False)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("Rel is immutable")

    def pairs(self) -> list[tuple[int, int]]:
        """Related (source, target) pairs in row-major deterministic order."""
        out = [(int(a), int(b)) for b, a in np.argwhere(self.bits)]
        out.sort()
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Rel):
            return NotImplemented
        return (
            self.src.size == other.src.size
            and self.dst.size == other.dst.size
            and np.array_equal(self.bits, other.bits)
        )

    def __hash__(self) -> int:
        return hash((self.src.size, self.dst.size, self.bits.tobytes()))

    def __repr__(self) -> str:
        return f"Rel({self.src.size}->{self.dst.size}, {self.pairs()})"


def make(src: SetLike, dst: SetLike, pairs: Iterable[tuple[int, int]]) -> Rel:
    """Relation with exactly the given (source, target) pairs set.

    Duplicated pairs are idempotent; an out-of-range index raises a
    `ShapeError` naming the offending pair.
    """
    src, dst = as_finite_set(src), as_finite_set(dst)
    bits = np.zeros((dst.size, src.size), dtype=bool)
    for a, b in pairs:
        if not (0 <= a < src.size and 0 <= b < dst.size):
            raise ShapeError(
                f"pair ({a}, {b}) out of range for sizes "
                f"{src.size} -> {dst.size}"
            )
        bits[b, a] = True
    return _fresh(src, dst, bits)


def empty(src: SetLike, dst: SetLike) -> Rel:
    src, dst = as_finite_set(src), as_finite_set(dst)
    return _fresh(src, dst, np.zeros((dst.size, src.size), dtype=bool))


def full(src: SetLike, dst: SetLike) -> Rel:
    src, dst = as_finite_set(src), as_finite_set(dst)
    return _fresh(src, dst, np.ones((dst.size, src.size), dtype=bool))


def identity(s: SetLike) -> Rel:
    s = as_finite_set(s)
    return _fresh(s, s, np.eye(s.size, dtype=bool))


def _fresh(src: FiniteSet, dst: FiniteSet, bits: np.ndarray) -> Rel:
    """A relation on a bit matrix no one else holds: it is made read-only
    and taken as it is, not copied."""
    bits.setflags(write=False)
    return Rel(src, dst, bits)


# Above this many multiply-adds a float32 BLAS product beats numpy's
# boolean matmul, which runs a plain loop; below it the casts cost more.
# A product with more cells than this keeps its Kronecker factors.
_BOOL_MATMUL_MAX_WORK = 4096
# A float32 product, through Kronecker factors or dense, takes the columns
# of the state in chunks, so that each float32 state has at most this many
# entries (16 MiB) unless one column alone has more.
_CONTRACT_MAX_STATE = 1 << 22
# The most bits one dense matrix may hold, in a source file's cells or in a
# protocol check.  A bit takes a byte, and a large composition casts its
# operands to float32 besides.
MAX_DENSE_BITS = 1 << 28


def dense_size(bits: int) -> str:
    """A bit count with its size in memory, at one byte per bit.

    Integer arithmetic only, so that no count overflows a float.  From
    1024 PiB (2^60 bits) on, the count is given as the nearest power of
    two, as `search.BudgetExceeded` gives a candidate space too long to
    print.
    """
    if bits >> 60:
        n = bits.bit_length() - 1
        if bits * bits >> (2 * n + 1):  # log2(bits) >= n + 1/2
            n += 1
        return f"about 2^{n} dense bits"
    scale = min(5, (bits.bit_length() - 1) // 10)
    unit = "B KiB MiB GiB TiB PiB".split()[scale]
    # tenths of a unit, rounded half to even as format(x, ".1f") does
    tenths, rest = divmod(10 * bits, 1 << 10 * scale)
    if 2 * rest + (tenths & 1) > 1 << 10 * scale:
        tenths += 1
    return f"{bits} dense bits ({tenths // 10}.{tenths % 10} {unit})"


class _FactoredRel(Rel):
    """A relation held as a Kronecker product of dense relations, its
    ``parts``, none of them the 1x1 unit; ``factors`` are their read-only
    bit matrices, and `bits` builds the dense form on first read."""

    __slots__ = ("parts", "factors", "dense")

    def __init__(self, src: FiniteSet, dst: FiniteSet, parts: tuple, factors: tuple):
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "dense", None)

    @property
    def bits(self) -> np.ndarray:
        if self.dense is None:
            object.__setattr__(self, "dense", _materialise(self.factors))
        return self.dense


def _materialise(factors: Sequence[np.ndarray]) -> np.ndarray:
    """The dense Kronecker product of the factors, left factor high.

    Every dense product matrix is built here, eager or deferred.
    """
    out = factors[0]
    for f in factors[1:]:
        out = (out[:, None, :, None] & f[None, :, None, :]).reshape(
            out.shape[0] * f.shape[0], out.shape[1] * f.shape[1]
        )
    out.setflags(write=False)
    return out


def _contraction_work(factors: Sequence[np.ndarray], m: int) -> int:
    """Multiply-adds of `_contract` on a state matrix with ``m`` columns."""
    done, rest, work = 1, m, 0
    for f in factors:
        rest *= f.shape[1]
    for f in factors:
        rest //= f.shape[1]
        work += f.size * done * rest
        done *= f.shape[0]
    return work


# a row gather (sources, empty): target b reads source sources[b], and the
# targets in empty, None when there are none, read nothing
_Gather = tuple[np.ndarray, Optional[np.ndarray]]


def _gather(r: Rel) -> Optional[_Gather]:
    """How `_contract` applies the dense relation ``r``: None for a float32
    product, or, when each target is related to at most one source, a row
    gather.  Decided once per relation, on first use, and kept on it."""
    try:
        return r.gather
    except AttributeError:
        pass
    bits = r.bits
    n_dst, total = bits.shape[0], np.count_nonzero(bits)
    gather = None
    if bits.shape[1] and total <= n_dst:
        sources = bits.argmax(axis=1)  # the first source of each target
        found = bits[np.arange(n_dst), sources]
        hits = np.count_nonzero(found)
        if hits == total:  # so no target has two
            gather = sources, None if hits == n_dst else np.flatnonzero(~found)
    object.__setattr__(r, "gather", gather)
    return gather


def _contract(
    factors: Sequence[np.ndarray],
    bits: np.ndarray,
    gathers: Optional[Sequence[Optional[_Gather]]] = None,
) -> np.ndarray:
    """``kron(factors) @ bits`` as booleans, one factor axis at a time.

    The rows of ``bits`` are the factors' source axes, left factor high,
    and its columns a trailing axis.  Each step applies one factor to the
    leading axis and rotates the new axis to the back; after the last
    factor the axes are (columns, targets...), so one transpose gives the
    result.  A factor with a row gather in ``gathers`` (`_gather`) is
    applied as one: its target rows are copies of source rows, and rows
    with no source are zeroed.  Any other factor is a product in exact
    float32 BLAS whose counts are clipped to 0/1; without ``gathers`` every
    factor is.  The state stays boolean until the first product.  The
    columns are taken in chunks, so that no state has more than
    `_CONTRACT_MAX_STATE` entries unless one column alone does.
    """
    m = bits.shape[1]
    if gathers is None:
        gathers = (None,) * len(factors)
    floats = [
        f.astype(np.float32) if gather is None else None
        for f, gather in zip(factors, gathers)
    ]
    width = widest = bits.shape[0]
    for f in factors:
        width = width // f.shape[1] * f.shape[0]
        widest = max(widest, width)
    out = np.empty((width, m), dtype=bool)
    step = max(1, _CONTRACT_MAX_STATE // widest)
    for lo in range(0, m, step):
        x = bits[:, lo : lo + step]
        w = x.shape[1]
        for f, as_float, gather in zip(factors, floats, gathers):
            x = x.reshape(f.shape[1], -1)
            if gather is None:
                y = as_float @ x.astype(np.float32, copy=False)
                np.minimum(y, 1, out=y)
            else:
                sources, empty = gather
                y = x[sources]
                if empty is not None:
                    y[empty] = 0
            x = np.ascontiguousarray(y.T)
        out[:, lo : lo + w] = x.reshape(w, -1).T > 0
    out.setflags(write=False)
    return out


def compose(r: Rel, s: Rel) -> Rel:
    """Relational composition: first ``r``, then ``s``.

    ``(a, c)`` holds iff some ``b`` has ``(a, b)`` in ``r`` and ``(b, c)``
    in ``s``; computed as a boolean matrix product.  Large products go
    through float32 BLAS, which is exact here: every term is a 0/1
    product, so a sum is positive exactly when some term is one.  When
    ``r`` has a single source element it is a reachable set, and the
    result is the OR of the columns of ``s`` that it selects.  When ``s``
    is a product not yet built and contracting ``r`` with its factors
    takes fewer multiply-adds than the dense product, |s.src|·|s.dst|
    for each of the |r.src| columns, ``s`` is never built.  Contractions
    and large dense products take the columns of ``r`` in chunks, and
    apply a factor in which each target has at most one source as a row
    gather (`_contract`).  An ``r`` with an empty source gives the empty
    result without reading ``s``.
    """
    if r.dst.size != s.src.size:
        raise ShapeError(
            f"cannot compose: middle sets have sizes {r.dst.size} and "
            f"{s.src.size}"
        )
    if r.src.size == 0:
        bits = np.zeros((s.dst.size, 0), dtype=bool)
    elif (
        type(s) is _FactoredRel
        and s.dense is None
        and _contraction_work(s.factors, r.src.size)
        < s.src.size * s.dst.size * r.src.size
    ):
        bits = _contract(s.factors, r.bits, [_gather(part) for part in s.parts])
    elif r.src.size == 1:
        bits = s.bits[:, r.bits[:, 0]].any(axis=1, keepdims=True)
    elif s.dst.size * s.src.size * r.src.size <= _BOOL_MATMUL_MAX_WORK:
        bits = s.bits @ r.bits
    else:
        bits = _contract((s.bits,), r.bits, (_gather(s),))
    bits.setflags(write=False)
    return Rel(r.src, s.dst, bits)


def converse(r: Rel) -> Rel:
    return Rel(r.dst, r.src, r.bits.T)


def _is_unit(r: Rel) -> bool:
    return r.src.size == 1 and r.dst.size == 1 and bool(r.bits[0, 0])


def product(r: Rel, s: Rel) -> Rel:
    """Pairwise product: ``((a,c),(b,d))`` holds iff ``(a,b)`` and ``(c,d)`` do,
    between the product sets, mixed-radix with the left factor high.  Beside
    the full relation on one element it is the other relation itself."""
    return _kron(r, s, product_set(r.src, s.src), product_set(r.dst, s.dst))


def _kron(r: Rel, s: Rel, src: FiniteSet, dst: FiniteSet) -> Rel:
    """``r (x) s``, left factor high, between sets the caller holds.

    A factor that is the full relation on one element is a unit: the other
    factor is returned itself, between its own sets of the same sizes.
    Otherwise the factor lists of ``r`` and ``s`` are joined; a result of
    more than `_BOOL_MATMUL_MAX_WORK` cells keeps that list, a smaller one
    is built.
    """
    if _is_unit(r):
        return s
    if _is_unit(s):
        return r
    factors = _factors(r) + _factors(s)
    if src.size * dst.size > _BOOL_MATMUL_MAX_WORK:
        return _FactoredRel(src, dst, _parts(r) + _parts(s), factors)
    return Rel(src, dst, _materialise(factors))


def _parts(r: Rel) -> tuple[Rel, ...]:
    return r.parts if type(r) is _FactoredRel else (r,)


def _factors(r: Rel) -> tuple[np.ndarray, ...]:
    return r.factors if type(r) is _FactoredRel else (r.bits,)


def _kron_sum(
    pairs: list[tuple[Rel, Rel]], src: FiniteSet, dst: FiniteSet, junctions: Callable
) -> Rel:
    """The direct sum over middle values t of ``pairs[t][0] (x) pairs[t][1]``,
    between sets the caller holds.  One pair is `_kron`.  Otherwise
    ``junctions()`` gives the middle value of each row and column; sorted
    stably by it, the rows and columns through t are a run in Kronecker
    order, so each block is built from its operands' factors into one
    middle-major matrix, which one scatter puts in the caller's order."""
    if len(pairs) == 1:
        return _kron(*pairs[0], src, dst)
    bits = np.zeros((dst.size, src.size), dtype=bool)
    if bits.size:
        outs, ins = junctions()
        rows, cols = (np.bincount(j, minlength=len(pairs)) for j in (outs, ins))
        row_at, col_at = ([0, *np.cumsum(n).tolist()] for n in (rows, cols))
        by_middle = np.zeros_like(bits)
        for t in np.flatnonzero(rows * cols).tolist():
            b, a = pairs[t]
            runs = slice(row_at[t], row_at[t + 1]), slice(col_at[t], col_at[t + 1])
            by_middle[runs] = _materialise(_factors(b) + _factors(a))
        row_order, col_order = (np.argsort(j, kind="stable") for j in (outs, ins))
        bits[row_order[:, None], col_order] = by_middle
    bits.setflags(write=False)
    return Rel(src, dst, bits)


def _first_difference(r: Rel, s: Rel) -> Optional[tuple[int, int, bool]]:
    """The first (row, column) where two relations of one shape differ, in
    row-major order, and whether ``r`` holds it; None when they are equal."""
    if np.array_equal(r.bits, s.bits):
        return None
    row, col = map(int, np.argwhere(r.bits != s.bits)[0])
    return row, col, bool(r.bits[row, col])


@dataclass(frozen=True)
class RelProperties:
    is_function: bool
    is_total: bool
    is_injective: bool
    is_surjective: bool
    is_bijection: bool


def predicates(r: Rel) -> RelProperties:
    per_source = r.bits.sum(axis=0)
    per_target = r.bits.sum(axis=1)
    is_function = bool((per_source <= 1).all())
    is_total = bool((per_source >= 1).all())
    is_injective = bool((per_target <= 1).all())
    is_surjective = bool((per_target >= 1).all())
    return RelProperties(
        is_function,
        is_total,
        is_injective,
        is_surjective,
        is_function and is_total and is_injective and is_surjective,
    )


def swap(a: SetLike, b: SetLike) -> Rel:
    """The exchange relation ``(x, y) -> (y, x)``."""
    a, b = as_finite_set(a), as_finite_set(b)
    return make(
        product_set(a, b),
        product_set(b, a),
        [(x * b.size + y, y * a.size + x) for x in a for y in b],
    )


@dataclass(frozen=True)
class Permutation:
    """A bijection on ``0 .. size-1``."""

    carrier: FiniteSet
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mapping", tuple(self.mapping))
        if sorted(self.mapping) != list(range(self.carrier.size)):
            raise ValueError(f"not a bijection: {self.mapping}")

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    @staticmethod
    def identity(s: SetLike) -> Permutation:
        s = as_finite_set(s)
        return Permutation(s, tuple(range(s.size)))


def relation_from_code(src: SetLike, dst: SetLike, code: int) -> Rel:
    src, dst = as_finite_set(src), as_finite_set(dst)
    n = src.size * dst.size
    bits = np.array(
        [(code >> (n - 1 - i)) & 1 for i in range(n)], dtype=bool
    ).reshape(dst.size, src.size)
    return Rel(src, dst, bits)


def relation_code(r: Rel) -> int:
    """The bit code of a relation: the inverse of `relation_from_code`."""
    code = 0
    for bit in r.bits.reshape(-1):
        code = (code << 1) | int(bit)
    return code
