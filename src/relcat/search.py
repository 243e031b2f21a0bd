"""Exhaustive synthesis of encryption schemes at small sizes.

Candidates range over every pad cup (one per permutation π of the key
set), every per-ciphertext decryption relation, and every encryption
relation.  Every constraint splits into one condition per ciphertext
block (`enumerate_shard` says why): an encryption row e (the P x K matrix
of pairs that encrypt to this ciphertext), the pad π and a decryption
block d (a K -> P matrix).  Write M_x for the messages that key x
encrypts to the block.  Read off the diagram equations, the conditions are:

- S1: padding, encrypting and dropping the key reaches the block from
  every message, so every message row of e is nonempty.  S2 says the same
  without the pad; the two agree because the pad is a permutation, so the
  key it pairs with a message ranges over all of K either way.
- S3: every key column of e is nonempty.
- S4: creating a key and decrypting reaches every message: d is onto P.
- Correctness: decrypting the padded encryption of m gives exactly {m},
  that is, the union of the columns d(π(x)) over the keys x with m in M_x
  is {m}.  So d(π(x)) is empty when |M_x| >= 2, is empty or {m} when
  M_x = {m}, and is any subset of P when M_x is empty; and every message
  m needs a key x with M_x = {m} and d(π(x)) = {m} (coverage).

Each key's options are the subsets of one allowed column.  `_BlockSolver`
reads the conditions off the bit codes, each written once there: every
message row nonempty, every key column nonempty, and the key columns of
an encryption row (the allowed columns, and the keys with one message).
The search, the theorem verdicts and the sampler all call those three.
Records are emitted in increasing order of the (encrypt, decrypt, pad) bit
codes, so runs are reproducible.

The structural theorems split the same way.  Write E for the block's
encryption row as a P x K matrix and U for d read through the pad (column
x of U is column π(x) of d).  On a correct scheme, with boolean products:

- every decryption fiber is a bijection when every d has exactly one bit
  in each row and each column;
- decryption is inverted by the cell built from encryption when the fibers
  are bijections and E·Uᵀ = I_P and Uᵀ·E = I_K on every block; U is then a
  permutation matrix, so the two products are identities exactly when
  E = U;
- encryption is rebuilt from that inverse exactly when it exists, and the
  rebuild is refused otherwise;
- S1 and S2 hold when every message row of every E is nonempty, S3 when
  every key column is, and S4 when every message row of every d is;
- encryption is invertible exactly when the whole relation is a bijection,
  which S1 rules out when p > 1: a message reaches k < p·k ciphertexts.

`verify_theorems` and `sample_candidates` decide these on the bit codes
and nowhere else.  Two-cells are built, through `protocols.Verification`,
only to locate a failed decryption inverse, whose place the refused
rebuild's counterexample names; it is handed the record's correctness.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Mapping, Optional, Sequence

from relcat import protocols
from relcat.generators import ControlledOp, cup_from_permutation
from relcat.relations import (
    FiniteSet,
    Permutation,
    Rel,
    product_set,
    relation_from_code,
)

__all__ = [
    "BudgetExceeded",
    "DEFAULT_BUDGET",
    "SearchSpec",
    "SolutionRecord",
    "TheoremReport",
    "candidate_count",
    "dedup_records",
    "enumerate_solutions",
    "sample_candidates",
    "verify_theorems",
]

DEFAULT_BUDGET = 2**30
CONSTRAINT_NAMES = ("correctness", "S1", "S2", "S3", "S4")
# Python prints integers of at most 4,300 decimal digits by default, and
# every integer below 2^14284 has at most that many.
_PRINTABLE_BITS = 14284


class BudgetExceeded(RuntimeError):
    """The candidate space exceeds the budget.  `candidates` is the exact
    count, or None when it is too long to print."""

    def __init__(self, spec: "SearchSpec"):
        p, k, c = spec.sizes
        self.budget = spec.budget
        log2 = 2 * p * k * c + math.lgamma(k + 1) / math.log(2)
        self.candidates = candidate_count(spec) if log2 < _PRINTABLE_BITS else None
        shown = f"about 2^{log2:.0f}" if self.candidates is None else self.candidates
        super().__init__(
            f"candidate space of {shown} composite checks exceeds the "
            f"budget of {self.budget}; raise RELCAT_BUDGET to override"
        )


@dataclass(frozen=True)
class SearchSpec:
    p_size: int
    k_size: int
    c_size: int
    constraints: frozenset[str] = frozenset({"correctness"})
    dedup: bool = False
    budget: int = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        if min(self.p_size, self.k_size, self.c_size) < 1:
            raise ValueError("all carrier sizes must be at least 1")
        unknown = set(self.constraints) - set(CONSTRAINT_NAMES)
        if unknown:
            raise ValueError(f"unknown constraints: {sorted(unknown)}")
        object.__setattr__(self, "constraints", frozenset(self.constraints))

    @property
    def sizes(self) -> tuple[int, int, int]:
        return (self.p_size, self.k_size, self.c_size)


def candidate_count(spec: SearchSpec) -> int:
    p, k, c = spec.sizes
    return math.factorial(k) * 2 ** (2 * p * k * c)


@dataclass(frozen=True)
class SolutionRecord:
    """One synthesized (encrypt, decrypt, pad) triple with its verdicts."""

    sizes: tuple[int, int, int]
    encrypt_code: int
    decrypt_codes: tuple[int, ...]
    pad_mapping: tuple[int, ...]
    verdicts: Mapping[str, bool] = field(compare=False)
    canonical: Optional[tuple[int, tuple[int, ...], tuple[int, ...]]] = None

    def triple(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        return (self.encrypt_code, self.decrypt_codes, self.pad_mapping)

    def relations(self) -> tuple[Rel, tuple[Rel, ...], Permutation]:
        p, k, c = self.sizes
        ps, ks, cs = FiniteSet(p), FiniteSet(k), FiniteSet(c)
        e = relation_from_code(product_set(ps, ks), cs, self.encrypt_code)
        ds = tuple(
            relation_from_code(ks, ps, code) for code in self.decrypt_codes
        )
        return e, ds, Permutation(ks, self.pad_mapping)

    def as_instance(self) -> protocols.ProtocolInstance:
        e, ds, perm = self.relations()
        ks, ps, cs = ds[0].src, ds[0].dst, e.dst
        return protocols.ProtocolInstance(
            ps, ks, cs, e, ControlledOp(cs, ks, ps, ds), cup_from_permutation(perm)
        )

    def to_json(self) -> dict:
        p, k, c = self.sizes
        out = {
            "sizes": list(self.sizes),
            "encrypt": _rows(self.encrypt_code, p * k, c),
            "decrypt": [_rows(code, k, p) for code in self.decrypt_codes],
            "pad": list(self.pad_mapping),
            "verdicts": dict(sorted(self.verdicts.items())),
        }
        if self.canonical is not None:
            ce, cds, cp = self.canonical
            out["canonical"] = {
                "encrypt_code": ce,
                "decrypt_codes": list(cds),
                "pad": list(cp),
            }
        return out


def _rows(code: int, n_src: int, n_dst: int) -> list[str]:
    """Matrix rows of the relation with this bit code, as 0/1 strings."""
    bits = format(code, f"0{n_src * n_dst}b")
    return [bits[i * n_src : (i + 1) * n_src] for i in range(n_dst)]


def _blocks(code: int, width: int, count: int) -> list[int]:
    """The `count` blocks of `width` bits of a code, most significant first:
    an encryption code's rows, one per ciphertext."""
    mask = (1 << width) - 1
    return [code >> (count - 1 - i) * width & mask for i in range(count)]


class _BlockSolver:
    """The constraints of one ciphertext block, read off the bit codes.

    An encryption row and a decryption block are both P x K bit codes,
    message-major, first entry most significant.  The solver works on u,
    the decryption read through the pad (column x of u is column π(x) of
    d), on which no constraint involves the pad: moving columns keeps each
    row of d nonempty or empty.  The conditions the constraints split into
    are written once each, as `rows_nonempty`, `cols_nonempty` and
    `key_columns`; `solve`, `is_permutation`, `verdicts` and the sampler
    read them.
    """

    def __init__(self, p: int, k: int, need: frozenset[str]):
        self.p, self.k, self.need = p, k, need
        self.rows = [((1 << k) - 1) << ((p - 1 - m) * k) for m in range(p)]
        self.cols = [sum(self.bit(m, x) for m in range(p)) for x in range(k)]
        # the last and the first column: one bit at each end of every row
        self.low, self.high = self.cols[-1], self.cols[0]

    def bit(self, m: int, x: int) -> int:
        """The code of the single pair (message m, key x)."""
        return 1 << ((self.p - 1 - m) * self.k + self.k - 1 - x)

    def rows_nonempty(self, code: int) -> bool:
        """Whether every message row of the code holds a bit.  Taking one
        from every row at once, the lowest empty row borrows into its
        first column, and a nonempty row never borrows."""
        return not (code - self.low) & ~code & self.high

    def cols_nonempty(self, code: int) -> bool:
        """Whether every key column of the code holds a bit."""
        return all(code & col for col in self.cols)

    def key_columns(self, code: int) -> tuple[int, int]:
        """(allowed, singles) for an encryption row: column x of `allowed`
        is key x's allowed decryption column, all of column x when the key
        encrypts no message to the block, M_x when it encrypts one, and
        empty otherwise; `singles` holds the columns with one message."""
        allowed = singles = 0
        for col in self.cols:
            encrypted = code & col  # M_x, in column x
            if not encrypted:
                allowed |= col
            elif not encrypted & (encrypted - 1):
                allowed |= encrypted
                singles |= encrypted
        return allowed, singles

    def solve(self, row: int) -> Optional[tuple[int, list[int]]]:
        """(allowed, masks) for encryption row `row`, or None if it fails.

        u passes exactly when it lies inside `allowed` and meets every
        mask.  Column x of `allowed` is key x's allowed column, whose
        subsets are its options; the masks are the rows of d for S4 and,
        for coverage, the singleton columns of e in each message row.
        """
        need = self.need
        if {"S1", "S2"} & need and not self.rows_nonempty(row):
            return None
        if "S3" in need and not self.cols_nonempty(row):
            return None
        masks = self.rows if "S4" in need else []
        if "correctness" not in need:
            return sum(self.cols), masks
        allowed, singles = self.key_columns(row)
        if not self.rows_nonempty(singles):
            return None
        return allowed, masks + [singles & r for r in self.rows]

    def through_pad(self, u: int, pad: Sequence[int]) -> int:
        """The code whose column pad[x] is column x of `u`."""
        out = 0
        for x, col in enumerate(self.cols):
            shift, part = x - pad[x], u & col
            out |= part << shift if shift >= 0 else part >> -shift
        return out

    def relabel(self, code: int, sp: Sequence[int], sk: Sequence[int]) -> int:
        """The code whose entry (sp[m], sk[x]) is entry (m, x) of `code`: the
        keys move through the pad sk, then each message row, a run of k
        bits, moves by one shift to row sp[m]."""
        u, out = self.through_pad(code, sk), 0
        for m, row in enumerate(self.rows):
            shift, part = (m - sp[m]) * self.k, u & row
            out |= part << shift if shift >= 0 else part >> -shift
        return out

    def is_permutation(self, code: int) -> bool:
        """Whether the code has exactly one bit in each row and column."""
        return (
            self.p == self.k
            and code.bit_count() == self.p
            and self.rows_nonempty(code)
            and self.cols_nonempty(code)
        )

    def verdicts(self, record: SolutionRecord) -> dict[str, bool]:
        """The theorems' statements on a correct record, by the per-block
        forms of the module docstring, named as in `protocols.Verification`
        (``fibers_bijective`` is its attribute of that name)."""
        p, k, c = record.sizes
        width = p * k
        e_rows = _blocks(record.encrypt_code, width, c)
        unpad = sorted(range(k), key=record.pad_mapping.__getitem__)
        u_blocks = [self.through_pad(d, unpad) for d in record.decrypt_codes]
        bijective = all(self.is_permutation(d) for d in record.decrypt_codes)
        inverse = bijective and e_rows == u_blocks
        s1 = all(map(self.rows_nonempty, e_rows))
        # e, from P x K to C, is a bijection: each ciphertext has exactly
        # one preimage, no two the same, and there are as many as pairs
        e_bijection = (
            width == c
            and all(e and not e & (e - 1) for e in e_rows)
            and len(set(e_rows)) == c
        )
        return {
            "fibers_bijective": bijective,
            "decryption_invertible": inverse,
            "encryption_rebuilt_from_inverse": inverse,
            "S1": s1,
            "S2": s1,
            "S3": all(map(self.cols_nonempty, e_rows)),
            "S4": all(map(self.rows_nonempty, record.decrypt_codes)),
            "encryption_not_invertible": s1 and e_bijection == (p <= 1),
        }


def enumerate_shard(spec: SearchSpec) -> list[SolutionRecord]:
    """Enumerate solutions as per-ciphertext products.

    Decryption is controlled by the ciphertext, so the decryption layer is
    block-diagonal over C, and so are the right-hand sides ``create_c (x)
    id_p``, ``delete_p ; create_c`` and ``delete_k ; create_c``.  Each
    constraint therefore holds iff it holds on every ciphertext block, in
    the form the module docstring gives, and for a fixed pad the solutions
    at (p, k, c) are the c-fold product of those at (p, k, 1).  For each
    encryption row, the passing decryptions are the submasks of the
    solver's `allowed` code that meet every mask, sorted per pad; products
    of the table's entries are emitted ascending on (encrypt, decrypt, pad).
    """
    p, k, c = spec.sizes
    need = spec.constraints
    solver = _BlockSolver(p, k, need)
    pads = list(itertools.permutations(range(k)))
    table: dict[int, list[tuple[int, ...]]] = {}
    for row in range(1 << (p * k)):
        solved = solver.solve(row)
        if solved is None:
            continue
        allowed, masks = solved
        passing, u = [], allowed
        while True:
            if all(u & mask for mask in masks):
                passing.append(u)
            if not u:
                break
            u = (u - 1) & allowed
        if passing:
            table[row] = [
                tuple(sorted(solver.through_pad(u, pad) for u in passing))
                for pad in pads
            ]

    # every record passes every constraint, so all share one read-only map
    verdicts = MappingProxyType(dict.fromkeys(sorted(need), True))
    out: list[SolutionRecord] = []
    for e_rows in itertools.product(sorted(table), repeat=c):
        e_code = 0
        for row in e_rows:
            e_code = e_code << (p * k) | row
        for d_codes, i in sorted(
            (d_codes, i)
            for i in range(len(pads))
            for d_codes in itertools.product(*(table[r][i] for r in e_rows))
        ):
            out.append(SolutionRecord(
                spec.sizes, e_code, d_codes, pads[i], verdicts
            ))
    return out


def enumerate_solutions(spec: SearchSpec) -> list[SolutionRecord]:
    """All candidate triples satisfying the requested constraints.

    Emission order is ascending on (encrypt bits, decrypt bits, pad); the
    candidate space is refused outright when it exceeds the budget.
    """
    # The count is at least 2^(2pkc); it is built only if that does not decide.
    p, k, c = spec.sizes
    if 2 * p * k * c >= spec.budget.bit_length() or candidate_count(spec) > spec.budget:
        raise BudgetExceeded(spec)
    records = enumerate_shard(spec)
    if spec.dedup:
        records = dedup_records(records)
    return records


def _orbit_triples(
    record: SolutionRecord,
) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """The triples of every relabeling (sp, sk, sc) of the three carriers:
    entry (i, m, j) moves to (sc[i], sp[m], sk[j]), block by block on the
    bit codes, and the pad is conjugated, new[sk[j]] = sk[pad[j]]."""
    p, k, c = record.sizes
    solver = _BlockSolver(p, k, frozenset())
    blocks = list(zip(_blocks(record.encrypt_code, p * k, c), record.decrypt_codes))
    s_p, s_k, s_c = (list(itertools.permutations(range(n))) for n in (p, k, c))
    for sp, sk in itertools.product(s_p, s_k):
        moved = [tuple(solver.relabel(x, sp, sk) for x in pair) for pair in blocks]
        unkey = sorted(range(k), key=sk.__getitem__)
        pad = tuple(sk[record.pad_mapping[j]] for j in unkey)
        for sc in s_c:
            placed = sorted(zip(sc, moved))  # block i becomes block sc[i]
            e_code = sum(e << (c - 1 - i) * p * k for i, (e, _) in placed)
            yield e_code, tuple(d for _, (_, d) in placed), pad


def dedup_records(records: Sequence[SolutionRecord]) -> list[SolutionRecord]:
    """Quotient by simultaneous relabeling of the three carriers.

    The representative kept for each orbit is the lexicographically least
    (encrypt, decrypt, pad) triple; relabeling preserves every constraint,
    so the verdicts of the orbit's first record are those of the orbit.
    Each orbit is relabeled once, at its first record.
    """
    seen: set[tuple] = set()
    chosen = []
    for rec in records:
        if rec.triple() not in seen:
            orbit = set(_orbit_triples(rec))
            seen |= orbit
            least = min(orbit)
            chosen.append(SolutionRecord(rec.sizes, *least, dict(rec.verdicts), least))
    return sorted(chosen, key=lambda rec: rec.canonical)


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of checking the structural theorems over a solution set."""

    sizes: tuple[int, int, int]
    candidates: int
    solutions: int
    with_primary_security: int
    counterexamples: tuple[str, ...]
    sampled: Optional[int] = None

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def _check_theorems_on(
    record: SolutionRecord, solver: _BlockSolver, counterexamples: list[str]
) -> bool:
    """Returns True when the correct record also satisfies the primary
    security property; appends a description for every violated theorem.

    Every theorem is decided on the bit codes (`_BlockSolver.verdicts`),
    and the counterexamples follow those verdicts.  Two-cells are built,
    given the record's correctness, only to locate a failed decryption
    inverse.  Non-invertibility fails only at p = 1, which is exempt, or
    without S1, where it is refused (module docstring).
    """
    holds = solver.verdicts(record)
    failed = []
    if not holds["fibers_bijective"]:
        failed.append("decryption fiber not a bijection")
    if not holds["encryption_rebuilt_from_inverse"]:
        checks = protocols.Verification(record.as_instance(), given=("correctness",))
        failed.append(checks["encryption_rebuilt_from_inverse"].witness)
    if holds["S1"] and not all(holds[name] for name in ("S2", "S3", "S4")):
        failed.append("primary security holds but a derived property fails")
    if failed:
        # the codes pass Python's default limit of 4,300 decimal digits from
        # 14,284 bits, so the limit is lifted for this wording only
        import sys

        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            label = f"triple {record.triple()}"
        finally:
            sys.set_int_max_str_digits(limit)
        counterexamples.extend(f"{label}: {why}" for why in failed)
    return holds["S1"]


def verify_theorems(spec: SearchSpec) -> TheoremReport:
    """Exhaustively confirm the structural theorems at the given sizes.

    Over all solutions satisfying correctness: every decryption fiber is a
    bijection, encryption is rebuilt from the decryption inverse, and no
    relational inverse of encryption exists (unless messages are trivial);
    over those also satisfying the primary security property, the other
    three properties hold.  Each is decided per ciphertext block on the bit
    codes, in the forms of the module docstring; two-cells are built only
    to locate a failed decryption inverse.
    """
    base = SearchSpec(*spec.sizes, budget=spec.budget)
    records = enumerate_solutions(base)
    solver = _BlockSolver(spec.p_size, spec.k_size, base.constraints)
    counterexamples: list[str] = []
    with_s1 = sum(
        _check_theorems_on(rec, solver, counterexamples) for rec in records
    )
    return TheoremReport(
        spec.sizes, candidate_count(base), len(records), with_s1,
        tuple(counterexamples),
    )


def _pad_of_rank(rank: int, k: int) -> tuple[list[int], list[int]]:
    """The permutation of ``range(k)`` of this lexicographic rank, and its
    inverse.  The rank's factorial-base digits are read least significant
    first, so each division is by a small number."""
    digits = []
    for n in range(2, k + 1):
        rank, digit = divmod(rank, n)
        digits.append(digit)
    rest = list(range(k))
    pad = [rest.pop(digit) for digit in reversed(digits)] + rest
    return pad, sorted(range(k), key=pad.__getitem__)


def _below(getrandbits, n: int) -> int:
    """A uniform draw from ``range(n)``, n >= 1, by the calls
    ``random.Random.randrange(n)`` makes: ``getrandbits(n.bit_length())``
    until the result is below n.  The stream advances exactly as under
    `randrange`, and the same values come out, without its wrappers."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def sample_candidates(
    sizes: tuple[int, int, int], count: int, seed: int = 0
) -> TheoremReport:
    """Sampled fallback for sizes whose full space exceeds any budget.

    Half the samples are uniform random triples; the other half are guided
    toward plausible solutions (near-functional decryption families with
    the maximal compatible encryption), so the theorem checks are exercised
    on actual solutions.  Correctness is always checked honestly first, by
    the rules `_BlockSolver.solve` reads, and the theorems are then decided
    on each correct record as in `verify_theorems`.  The pad is the
    permutation of lexicographic rank ``below(k!)``.

    Write ``below(n)`` for a draw from ``range(n)`` by `_below`: calls of
    ``getrandbits(n.bit_length())`` until one is below n, the calls
    ``randrange(n)`` makes.  The calls on ``random.Random(seed)`` are, per
    candidate and in order: ``below(k!)``; for a uniform triple (even i),
    c x ``getrandbits(p*k)`` and then ``getrandbits(p*k*c)``; for a guided
    one (odd i), per block, k x ``below(p)``, one ``random()`` and, below
    0.2, ``below(p)`` then ``below(k)``.  So every value, and every
    report, is the one ``randrange`` would give.  Beyond its draws a
    candidate costs one pass of integer work, block by block, up to the
    first incorrect block; what depends only on (p, k) is made once per
    call.  Each block is decided by the solver's `key_columns` and
    `rows_nonempty`, as `solve` decides it.  A guided block's encryption
    row is the `singles` of its decryption code d, and it is checked in the
    columns of d; a uniform one is checked in those of u, d read through
    the pad.  The rules go column by column, so moving every column through
    the pad changes no verdict, and the pad is decoded only when a uniform
    block reaches u or a record is kept.  Nothing is remembered from one
    candidate to the next.
    """
    p, k, c = sizes
    rng = random.Random(seed)
    getrandbits, uniform = rng.getrandbits, rng.random
    solver = _BlockSolver(p, k, frozenset({"correctness"}))
    key_columns, rows_nonempty = solver.key_columns, solver.rows_nonempty
    through_pad = solver.through_pad
    n_pads, row_bits = math.factorial(k), p * k
    row_mask = (1 << row_bits) - 1
    blocks = range(c)
    at_block = [(c - 1 - b) * row_bits for b in blocks]
    # in_column[x][m] is the code of the pair (message m, key x)
    in_column = [[solver.bit(m, x) for m in range(p)] for x in range(k)]

    counterexamples: list[str] = []
    solutions = 0
    with_s1 = 0
    for i in range(count):
        rank = _below(getrandbits, n_pads)
        guided = i & 1
        d_codes: list[int] = []
        if guided:
            for _ in blocks:
                d = 0
                for column in in_column:
                    d |= column[_below(getrandbits, p)]
                if uniform() < 0.2:
                    m = _below(getrandbits, p)
                    d ^= in_column[_below(getrandbits, k)][m]
                d_codes.append(d)
            e_rows = []  # in the columns of d
        else:
            for _ in blocks:
                d_codes.append(getrandbits(row_bits))
            e_code = getrandbits(row_bits * c)
        pad = None
        for b in blocks:
            if guided:
                # the row is d's singles: encrypt (m, x) to this block
                # when d decrypts x to m alone
                u = d_codes[b]
                e_rows.append(row := key_columns(u)[1])
            else:
                row = e_code >> at_block[b] & row_mask
            allowed, singles = key_columns(row)
            if not guided:
                # coverage by the row alone first: a failing block needs no pad
                if not rows_nonempty(singles):
                    break
                if pad is None:
                    pad, unpad = _pad_of_rank(rank, k)
                u = through_pad(d_codes[b], unpad)
            if u & ~allowed or not rows_nonempty(singles & u):
                break
        else:
            if pad is None:
                pad, unpad = _pad_of_rank(rank, k)
            if guided:
                e_code = 0
                for e in e_rows:
                    e_code = e_code << row_bits | through_pad(e, unpad)
            record = SolutionRecord(
                sizes, e_code, tuple(d_codes), tuple(pad), {"correctness": True}
            )
            solutions += 1
            with_s1 += _check_theorems_on(record, solver, counterexamples)
    return TheoremReport(
        sizes, count, solutions, with_s1, tuple(counterexamples), sampled=count
    )
