"""The per-sample loop of the theorem sampler as it was written before
`relcat.search.sample_candidates` decided blocks inline, kept as the
reference that function must match report for report.

It draws the same stream from ``random.Random(seed)``, decodes every pad by
whole factorials, and decides each block through `_BlockSolver.solve` and
`_BlockSolver.through_pad`; correct records are checked by the library's
`_check_theorems_on`, as in the library.
"""

from __future__ import annotations

import math
import random

from relcat.search import (
    SolutionRecord,
    TheoremReport,
    _BlockSolver,
    _check_theorems_on,
)


def sample_candidates(
    sizes: tuple[int, int, int], count: int, seed: int = 0
) -> TheoremReport:
    p, k, c = sizes
    rng = random.Random(seed)
    solver = _BlockSolver(p, k, frozenset({"correctness"}))
    n_pads, row_bits, row_mask = math.factorial(k), p * k, (1 << p * k) - 1
    counterexamples: list[str] = []
    solutions = 0
    with_s1 = 0
    for i in range(count):
        rank, rest, pad = rng.randrange(n_pads), list(range(k)), []
        for n in range(k - 1, -1, -1):
            pick, rank = divmod(rank, math.factorial(n))
            pad.append(rest.pop(pick))
        unpad = sorted(range(k), key=pad.__getitem__)
        if i % 2 == 0:
            d_codes = tuple(rng.getrandbits(row_bits) for _ in range(c))
            e_code = rng.getrandbits(row_bits * c)
        else:
            d_codes, e_code = [], 0
            for _ in range(c):
                d = sum(solver.bit(rng.randrange(p), j) for j in range(k))
                if rng.random() < 0.2:
                    d ^= solver.bit(rng.randrange(p), rng.randrange(k))
                d_codes.append(d)
                # encrypt (m, j) to this block when d decrypts pad[j] to m alone
                u = solver.through_pad(d, unpad)
                e_code = e_code << row_bits | sum(
                    part for col in solver.cols if not (part := u & col) & (part - 1)
                )
            d_codes = tuple(d_codes)
        for cc in range(c):
            solved = solver.solve(e_code >> (c - 1 - cc) * row_bits & row_mask)
            u = solver.through_pad(d_codes[cc], unpad)
            if not (solved and not u & ~solved[0] and all(u & m for m in solved[1])):
                break
        else:
            record = SolutionRecord(
                sizes, e_code, d_codes, tuple(pad), {"correctness": True}
            )
            solutions += 1
            with_s1 += _check_theorems_on(record, solver, counterexamples)
    return TheoremReport(
        sizes, count, solutions, with_s1, tuple(counterexamples), sampled=count
    )
