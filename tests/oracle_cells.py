"""Independent model of the cell layer, used as an oracle for relcat.cells.

Deliberately shares no code with the library.  A 0-cell is a size n, whose
values are 0 .. n-1.  A one-cell is a word of atoms laid along a chain of
0-cell sizes; an atom is its matrix of fiber sizes, ``atom[t][s]``.  The
elements of a fiber are explicit paths: tuples ``(e1, m1, e2, ..., en)``
that alternate an element of each atom's fiber with the 0-cell value the
next atom starts from, in application order.  The paths of a fiber are
ranked by reading them from the last-applied end, that is, sorted on the
reversed tuple.  An identity one-cell is the empty word, whose one path is
``()``.  A two-cell gives, for each (t, s), a set of (input path, output
path) pairs.

Horizontal composition is the coproduct over the middle value of products
of fibers; vertical composition composes the pair sets; tensor is Kronecker
style with the left factor as the high digit, and yields a fresh atom.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class One:
    """A one-cell: ``word[k]`` goes from ``chain[k]`` to ``chain[k + 1]``."""

    chain: tuple[int, ...]
    word: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def src(self) -> int:
        return self.chain[0]

    @property
    def dst(self) -> int:
        return self.chain[-1]

    def is_unit(self) -> bool:
        return not self.word and self.src == 1


@dataclass(frozen=True)
class Two:
    """A two-cell: ``pairs[(t, s)]`` relates paths of dom to paths of cod."""

    dom: One
    cod: One
    pairs: dict

    def is_unit(self) -> bool:
        return (
            self.dom.is_unit()
            and self.cod.is_unit()
            and self.pairs[(0, 0)] == {((), ())}
        )


def atom(sizes: list[list[int]], src: int, dst: int) -> One:
    return One((src, dst), (tuple(tuple(row) for row in sizes),))


def identity(n: int) -> One:
    return One((n,), ())


def paths(cell: One, t: int, s: int) -> list[tuple]:
    """The ranked elements of fiber (t, s)."""
    if not cell.word:
        return [()] if t == s else []
    found = []
    last = len(cell.word) - 1

    def walk(k: int, at: int, prefix: tuple) -> None:
        targets = [t] if k == last else range(cell.chain[k + 1])
        for nxt in targets:
            for e in range(cell.word[k][nxt][at]):
                step = (e,) if k == 0 else (at, e)
                if k == last:
                    found.append(prefix + step)
                else:
                    walk(k + 1, nxt, prefix + step)

    walk(0, s, ())
    return sorted(found, key=lambda p: p[::-1])


def two_from_bits(dom: One, cod: One, bits) -> Two:
    """``bits[(t, s)][i][j]`` relates input path j to output path i."""
    pairs = {}
    for t in range(dom.dst):
        for s in range(dom.src):
            ins, outs = paths(dom, t, s), paths(cod, t, s)
            pairs[(t, s)] = {
                (ins[j], outs[i])
                for i in range(len(outs))
                for j in range(len(ins))
                if bits[(t, s)][i][j]
            }
    return Two(dom, cod, pairs)


def hcompose_one(a: One, b: One) -> One:
    return One(a.chain[:-1] + b.chain, a.word + b.word)


def _join(a: One, a_path: tuple, t: int, b: One, b_path: tuple) -> tuple:
    if not a.word:
        return b_path
    if not b.word:
        return a_path
    return a_path + (t,) + b_path


def hcompose_two(alpha: Two, beta: Two) -> Two:
    """alpha applied first, beta second."""
    mid = alpha.dom.dst
    pairs = {}
    for u in range(beta.dom.dst):
        for s in range(alpha.dom.src):
            pairs[(u, s)] = {
                (
                    _join(alpha.dom, ai, t, beta.dom, bi),
                    _join(alpha.cod, ao, t, beta.cod, bo),
                )
                for t in range(mid)
                for ai, ao in alpha.pairs[(t, s)]
                for bi, bo in beta.pairs[(u, t)]
            }
    return Two(
        hcompose_one(alpha.dom, beta.dom), hcompose_one(alpha.cod, beta.cod), pairs
    )


def vcompose(a: Two, b: Two) -> Two:
    """a first, then b."""
    pairs = {}
    for key, first in a.pairs.items():
        onward = {}
        for x, y in b.pairs[key]:
            onward.setdefault(x, set()).add(y)
        pairs[key] = {(x, z) for x, y in first for z in onward.get(y, ())}
    return Two(a.dom, b.cod, pairs)


def _tensor_one(a: One, b: One) -> One:
    if b.is_unit():
        return a
    if a.is_unit():
        return b
    sizes = [
        [
            len(paths(a, t, s)) * len(paths(b, tp, sp))
            for s in range(a.src)
            for sp in range(b.src)
        ]
        for t in range(a.dst)
        for tp in range(b.dst)
    ]
    return atom(sizes, a.src * b.src, a.dst * b.dst)


def _ranks(cell: One) -> dict:
    return {
        (t, s): {p: i for i, p in enumerate(paths(cell, t, s))}
        for t in range(cell.dst)
        for s in range(cell.src)
    }


def _tensor_path(a: One, b: One, rank_a: dict, rank_b: dict, pa, pb) -> tuple:
    """Where the pair of paths (pa, pb) lands in the tensor one-cell."""
    if b.is_unit():
        return pa
    if a.is_unit():
        return pb
    return (rank_a[pa] * len(rank_b) + rank_b[pb],)


def tensor(a: Two, b: Two) -> Two:
    if b.is_unit():
        return a
    if a.is_unit():
        return b
    ranks = [_ranks(cell) for cell in (a.dom, a.cod, b.dom, b.cod)]
    pairs = {}
    for t in range(a.dom.dst):
        for tp in range(b.dom.dst):
            for s in range(a.dom.src):
                for sp in range(b.dom.src):
                    ka, kb = (t, s), (tp, sp)
                    ad, ac, bd, bc = (r[k] for r, k in zip(ranks, (ka, ka, kb, kb)))
                    pairs[(t * b.dom.dst + tp, s * b.dom.src + sp)] = {
                        (
                            _tensor_path(a.dom, b.dom, ad, bd, ai, bi),
                            _tensor_path(a.cod, b.cod, ac, bc, ao, bo),
                        )
                        for ai, ao in a.pairs[ka]
                        for bi, bo in b.pairs[kb]
                    }
    return Two(_tensor_one(a.dom, b.dom), _tensor_one(a.cod, b.cod), pairs)
