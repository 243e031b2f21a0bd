"""Finite sets and binary relations stored as dense boolean matrices.

This is the scalar layer of the whole library: every higher construction
eventually bottoms out in `compose`, `converse` and `product` on `Rel`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

__all__ = [
    "FiniteSet",
    "KernelResult",
    "Permutation",
    "Rel",
    "RelProperties",
    "ShapeError",
    "all_relations",
    "as_finite_set",
    "compose",
    "converse",
    "diagonal",
    "empty",
    "full",
    "identity",
    "kernel",
    "make",
    "merge",
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

    __slots__ = ("src", "dst", "bits")

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

    def holds(self, a: int, b: int) -> bool:
        return bool(self.bits[b, a])

    def is_empty(self) -> bool:
        return not self.bits.any()

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
    return Rel(src, dst, bits)


def empty(src: SetLike, dst: SetLike) -> Rel:
    src, dst = as_finite_set(src), as_finite_set(dst)
    return Rel(src, dst, np.zeros((dst.size, src.size), dtype=bool))


def full(src: SetLike, dst: SetLike) -> Rel:
    src, dst = as_finite_set(src), as_finite_set(dst)
    return Rel(src, dst, np.ones((dst.size, src.size), dtype=bool))


def identity(s: SetLike) -> Rel:
    s = as_finite_set(s)
    return Rel(s, s, np.eye(s.size, dtype=bool))


# Above this many multiply-adds a float32 BLAS product beats numpy's
# boolean matmul, which runs a plain loop; below it the casts cost more.
_BOOL_MATMUL_MAX_WORK = 4096


def compose(r: Rel, s: Rel) -> Rel:
    """Relational composition: first ``r``, then ``s``.

    ``(a, c)`` holds iff some ``b`` has ``(a, b)`` in ``r`` and ``(b, c)``
    in ``s``; computed as a boolean matrix product.  Large products go
    through float32 BLAS, which is exact here: every term is a 0/1
    product, so a sum is positive exactly when some term is one.  When
    ``r`` has a single source element it is a reachable set, and the
    result is the OR of the columns of ``s`` that it selects.
    """
    if r.dst.size != s.src.size:
        raise ShapeError(
            f"cannot compose: middle sets have sizes {r.dst.size} and "
            f"{s.src.size}"
        )
    if r.src.size == 1:
        bits = s.bits[:, r.bits[:, 0]].any(axis=1, keepdims=True)
    elif s.dst.size * s.src.size * r.src.size <= _BOOL_MATMUL_MAX_WORK:
        bits = s.bits @ r.bits
    else:
        bits = (s.bits.astype(np.float32) @ r.bits.astype(np.float32)) > 0
    bits.setflags(write=False)
    return Rel(r.src, s.dst, bits)


def converse(r: Rel) -> Rel:
    return Rel(r.dst, r.src, r.bits.T)


def product(r: Rel, s: Rel) -> Rel:
    """Pairwise product: ``((a,c),(b,d))`` holds iff ``(a,b)`` and ``(c,d)`` do.

    Index encoding is mixed-radix with the left factor as the high digit.
    A factor that is the full relation on one element is a unit, so the
    other factor's bits are reused.
    """
    if r.bits.shape == (1, 1) and r.bits[0, 0]:
        bits = s.bits
    elif s.bits.shape == (1, 1) and s.bits[0, 0]:
        bits = r.bits
    else:
        bits = (
            r.bits[:, None, :, None] & s.bits[None, :, None, :]
        ).reshape(r.dst.size * s.dst.size, r.src.size * s.src.size)
        bits.setflags(write=False)
    return Rel(product_set(r.src, s.src), product_set(r.dst, s.dst), bits)


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


def diagonal(s: SetLike) -> Rel:
    """The duplication relation ``x -> (x, x)``."""
    s = as_finite_set(s)
    return make(s, product_set(s, s), [(x, x * s.size + x) for x in s])


def merge(s: SetLike) -> Rel:
    """The matching relation ``(x, x) -> x``; halts on mismatched pairs."""
    return converse(diagonal(s))


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

    def inverse(self) -> Permutation:
        inv = [0] * self.carrier.size
        for i, j in enumerate(self.mapping):
            inv[j] = i
        return Permutation(self.carrier, tuple(inv))

    @staticmethod
    def identity(s: SetLike) -> Permutation:
        s = as_finite_set(s)
        return Permutation(s, tuple(range(s.size)))

    @staticmethod
    def all(s: SetLike) -> Iterator["Permutation"]:
        """All permutations of the carrier, in lexicographic order."""
        s = as_finite_set(s)
        for mapping in itertools.permutations(range(s.size)):
            yield Permutation(s, mapping)

    def as_relation(self) -> Rel:
        return make(
            self.carrier,
            self.carrier,
            [(i, j) for i, j in enumerate(self.mapping)],
        )


def all_relations(src: SetLike, dst: SetLike) -> Iterator[Rel]:
    """Every relation ``src -> dst``, in increasing bit-pattern order.

    Bit order is row-major over the (dst x src) matrix, with the first matrix
    entry as the most significant bit.
    """
    src, dst = as_finite_set(src), as_finite_set(dst)
    for code in range(1 << (src.size * dst.size)):
        yield relation_from_code(src, dst, code)


def relation_from_code(src: SetLike, dst: SetLike, code: int) -> Rel:
    src, dst = as_finite_set(src), as_finite_set(dst)
    n = src.size * dst.size
    bits = np.array(
        [(code >> (n - 1 - i)) & 1 for i in range(n)], dtype=bool
    ).reshape(dst.size, src.size)
    return Rel(src, dst, bits)


def relation_code(r: Union[Rel, np.ndarray]) -> int:
    """The bit code of a relation, or of its bit matrix: the inverse of
    `relation_from_code`."""
    bits = r.bits if isinstance(r, Rel) else r
    code = 0
    for bit in bits.reshape(-1):
        code = (code << 1) | int(bit)
    return code
