"""Exhaustive synthesis of encryption schemes at small sizes.

Candidates range over every pad cup (one per permutation of the key set),
every per-ciphertext decryption relation, and every encryption relation.
Decryption is controlled by the ciphertext, so every constraint splits
into one condition per ciphertext; the search solves the one-ciphertext
problem on the same relation kernel the cell evaluator delegates to and
assembles the solutions as per-ciphertext products.  Records are emitted
in increasing order of the (encrypt, decrypt, pad) bit codes, so runs are
reproducible byte for byte.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from relcat.generators import ControlledOp, DualityPair, cup_from_permutation
from relcat.relations import (
    FiniteSet,
    Permutation,
    Rel,
    compose,
    converse,
    empty,
    full,
    identity,
    make,
    predicates,
    product,
    product_set,
    relation_code,
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


class BudgetExceeded(RuntimeError):
    def __init__(self, candidates: int, budget: int):
        self.candidates = candidates
        self.budget = budget
        super().__init__(
            f"candidate space of {candidates} composite checks exceeds the "
            f"budget of {budget}; raise RELCAT_BUDGET to override"
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
    return math.factorial(k) * 2 ** (c * k * p) * 2 ** (p * k * c)


@dataclass(frozen=True)
class SolutionRecord:
    """One synthesized (encrypt, decrypt, pad) triple with its verdicts."""

    sizes: tuple[int, int, int]
    encrypt_code: int
    decrypt_codes: tuple[int, ...]
    pad_mapping: tuple[int, ...]
    verdicts: dict[str, bool] = field(compare=False)
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

    def as_instance(self):
        from relcat.protocols import ProtocolInstance

        p, k, c = self.sizes
        ps, ks, cs = FiniteSet(p), FiniteSet(k), FiniteSet(c)
        e, ds, perm = self.relations()
        return ProtocolInstance(
            ps,
            ks,
            cs,
            e,
            ControlledOp(cs, ks, ps, ds),
            cup_from_permutation(perm),
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


class _FastChecker:
    """Constraint evaluation on scalar relations, factored for enumeration."""

    def __init__(self, spec: SearchSpec):
        p, k, c = spec.sizes
        self.p_set, self.k_set, self.c_set = FiniteSet(p), FiniteSet(k), FiniteSet(c)
        self.id_p = identity(self.p_set)
        self.id_k = identity(self.k_set)
        self.id_c = identity(self.c_set)
        self.create_k = converse(full(self.k_set, FiniteSet(1)))
        self.create_p = converse(full(self.p_set, FiniteSet(1)))
        self.create_c = converse(full(self.c_set, FiniteSet(1)))
        self.delete_p = full(self.p_set, FiniteSet(1))
        self.delete_k = full(self.k_set, FiniteSet(1))
        self.full_1p = full(FiniteSet(1), self.p_set)
        # right-hand sides
        self.rhs_correct = product(self.create_c, self.id_p)
        self.rhs_cipher_from_p = compose(self.delete_p, self.create_c)
        self.rhs_cipher_from_k = compose(self.delete_k, self.create_c)

    def pad_step(self, perm: Permutation) -> Rel:
        cup = cup_from_permutation(perm).cup
        return product(self.id_p, cup)

    def decrypt_step(self, decrypt: Sequence[Rel]) -> Rel:
        c, k, p = self.c_set.size, self.k_set.size, self.p_set.size
        bits = np.zeros((c * p, c * k), dtype=bool)
        for i, d in enumerate(decrypt):
            bits[i * p : (i + 1) * p, i * k : (i + 1) * k] = d.bits
        return Rel(
            product_set(self.c_set, self.k_set),
            product_set(self.c_set, self.p_set),
            bits,
        )

    def correctness(self, after_pad_enc: Rel, decrypt_step: Rel) -> bool:
        return compose(after_pad_enc, decrypt_step) == self.rhs_correct

    def s1(self, after_pad_enc: Rel) -> bool:
        drop_key = product(self.id_c, self.delete_k)
        return compose(after_pad_enc, drop_key) == self.rhs_cipher_from_p

    def s2(self, e: Rel) -> bool:
        lhs = compose(product(self.id_p, self.create_k), e)
        return lhs == self.rhs_cipher_from_p

    def s3(self, e: Rel) -> bool:
        lhs = compose(product(self.create_p, self.id_k), e)
        return lhs == self.rhs_cipher_from_k

    def s4(self, decrypt: Sequence[Rel]) -> bool:
        return all(
            compose(self.create_k, d) == self.full_1p for d in decrypt
        )


def enumerate_shard(spec: SearchSpec) -> list[SolutionRecord]:
    """Enumerate solutions as per-ciphertext products.

    Decryption is controlled by the ciphertext, so ``decrypt_step`` is
    block-diagonal over C, and so is ``rhs_correct = create_c (x) id_p``:
    correctness holds iff ``after_c ; d_c = id_P`` on each ciphertext
    block ``after_c`` of ``after``, which reads row c of the encryption
    alone.  S1 holds iff it holds on each block of ``after``; S2 and S3
    read one row of the encryption at a time, and S4 one ``d_c``.  So for
    a fixed pad the solutions at (p, k, c) are the c-fold product of those
    at (p, k, 1).  The one-ciphertext problem is solved once, as a table
    of passing decryption codes per (encryption row, pad), and products of
    its entries are emitted ascending on (encrypt, decrypt, pad).
    """
    p, k, c = spec.sizes
    need = spec.constraints
    one = _FastChecker(SearchSpec(p, k, 1, need))
    perms = list(Permutation.all(one.k_set))
    pad_steps = [one.pad_step(perm) for perm in perms]
    decrypts = []
    for code in range(1 << (k * p)):
        d = relation_from_code(one.k_set, one.p_set, code)
        if "S4" not in need or one.s4([d]):
            decrypts.append((code, one.decrypt_step([d])))

    table: dict[int, list[tuple[int, ...]]] = {}
    e_src = product_set(one.p_set, one.k_set)
    for row in range(1 << (p * k)):
        e = relation_from_code(e_src, one.c_set, row)
        if ("S2" in need and not one.s2(e)) or ("S3" in need and not one.s3(e)):
            continue
        passing = []
        for pad_step in pad_steps:
            after = compose(pad_step, product(e, one.id_k))
            if "S1" in need and not one.s1(after):
                passing.append(())
                continue
            passing.append(tuple(
                code for code, d_step in decrypts
                if "correctness" not in need or one.correctness(after, d_step)
            ))
        if any(passing):
            table[row] = passing

    out: list[SolutionRecord] = []
    for e_rows in itertools.product(sorted(table), repeat=c):
        e_code = 0
        for row in e_rows:
            e_code = e_code << (p * k) | row
        for d_codes, i in sorted(
            (d_codes, i)
            for i in range(len(perms))
            for d_codes in itertools.product(*(table[r][i] for r in e_rows))
        ):
            verdicts = {name: True for name in sorted(need)}
            out.append(SolutionRecord(
                spec.sizes, e_code, d_codes, perms[i].mapping, verdicts
            ))
    return out


def enumerate_solutions(
    spec: SearchSpec, threads: int = 1
) -> list[SolutionRecord]:
    """All candidate triples satisfying the requested constraints.

    Emission order is ascending on (encrypt bits, decrypt bits, pad); the
    candidate space is refused outright when it exceeds the budget.  The
    search runs in one process whatever ``threads`` says: the factorised
    enumerator does less work than it would take to start a second one.
    """
    count = candidate_count(spec)
    if count > spec.budget:
        raise BudgetExceeded(count, spec.budget)
    records = enumerate_shard(spec)
    if spec.dedup:
        records = dedup_records(records)
    return records


def _orbit_triples(
    record: SolutionRecord,
) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    p, k, c = record.sizes
    e, ds, perm = record.relations()
    for sp in itertools.permutations(range(p)):
        for sk in itertools.permutations(range(k)):
            cols = [0] * (p * k)
            for i in range(p):
                for j in range(k):
                    cols[sp[i] * k + sk[j]] = i * k + j
            for sc in itertools.permutations(range(c)):
                rows = [0] * c
                for i in range(c):
                    rows[sc[i]] = i
                e_bits = e.bits[np.ix_(rows, cols)]
                e_code = relation_code(e_bits)
                d_rows = [0] * p
                for i in range(p):
                    d_rows[sp[i]] = i
                d_cols = [0] * k
                for j in range(k):
                    d_cols[sk[j]] = j
                d_codes = [
                    relation_code(ds[rows[new_c]].bits[np.ix_(d_rows, d_cols)])
                    for new_c in range(c)
                ]
                new_pad = [0] * k
                for j in range(k):
                    new_pad[sk[j]] = sk[perm.mapping[j]]
                yield (e_code, tuple(d_codes), tuple(new_pad))


def dedup_records(records: Sequence[SolutionRecord]) -> list[SolutionRecord]:
    """Quotient by simultaneous relabeling of the three carriers.

    The representative kept for each orbit is the lexicographically least
    (encrypt, decrypt, pad) triple; relabeling preserves every constraint,
    so the representative's verdicts are those of the orbit.
    """
    chosen: dict[tuple, SolutionRecord] = {}
    for rec in records:
        least = min(_orbit_triples(rec))
        if least not in chosen:
            e_code, d_codes, pad = least
            chosen[least] = SolutionRecord(
                rec.sizes, e_code, d_codes, pad, dict(rec.verdicts), least
            )
    return [chosen[key] for key in sorted(chosen)]


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
    record: SolutionRecord, counterexamples: list[str]
) -> bool:
    """Returns True when the record also satisfies the primary security
    property; appends a description for every violated theorem."""
    from relcat import protocols

    inst = record.as_instance()
    label = f"triple {record.triple()}"
    _, ds, _ = record.relations()
    if not all(predicates(d).is_bijection for d in ds):
        counterexamples.append(f"{label}: decryption fiber not a bijection")
    try:
        verdict = protocols.rebuild_encryption(inst)
        if not verdict.holds:
            counterexamples.append(
                f"{label}: encryption not rebuilt from the inverse"
            )
    except protocols.PreconditionError as exc:
        counterexamples.append(f"{label}: {exc}")
    report = protocols.security_implications(inst)
    if not report.implication_holds:
        counterexamples.append(
            f"{label}: primary security holds but a derived property fails"
        )
    if inst.plaintexts.size > 1:
        try:
            verdict = protocols.check_encryption_not_invertible(inst, report.s1)
            if not verdict.holds:
                counterexamples.append(f"{label}: {verdict.witness}")
        except protocols.PreconditionError:
            pass
    return not report.vacuous


def verify_theorems(spec: SearchSpec, threads: int = 1) -> TheoremReport:
    """Exhaustively confirm the structural theorems at the given sizes.

    Over all solutions satisfying correctness: every decryption fiber is a
    bijection, encryption is rebuilt from the decryption inverse, and no
    relational inverse of encryption exists (unless messages are trivial);
    over those also satisfying the primary security property, the other
    three properties hold.
    """
    base = SearchSpec(
        spec.p_size,
        spec.k_size,
        spec.c_size,
        constraints=frozenset({"correctness"}),
        budget=spec.budget,
    )
    records = enumerate_solutions(base, threads=threads)
    counterexamples: list[str] = []
    with_s1 = sum(
        _check_theorems_on(rec, counterexamples) for rec in records
    )
    return TheoremReport(
        spec.sizes,
        candidate_count(base),
        len(records),
        with_s1,
        tuple(counterexamples),
    )


def sample_candidates(
    sizes: tuple[int, int, int], count: int, seed: int = 0
) -> TheoremReport:
    """Sampled fallback for sizes whose full space exceeds any budget.

    Half the samples are uniform random triples; the other half are guided
    toward plausible solutions (near-functional decryption families with
    the maximal compatible encryption), so the theorem checks are exercised
    on actual solutions.  Correctness is always checked honestly first.
    """
    p, k, c = sizes
    rng = random.Random(seed)
    spec = SearchSpec(p, k, c, budget=2**62)
    checker = _FastChecker(spec)
    perms = list(Permutation.all(FiniteSet(k)))
    pad_steps = [checker.pad_step(perm) for perm in perms]
    counterexamples: list[str] = []
    solutions = 0
    with_s1 = 0
    for i in range(count):
        pad = rng.randrange(len(perms))
        perm = perms[pad]
        if i % 2 == 0:
            d_codes = tuple(
                rng.getrandbits(k * p) for _ in range(c)
            )
            e_code = rng.getrandbits(p * k * c)
        else:
            ds_bits = []
            for _ in range(c):
                bits = np.zeros((p, k), dtype=bool)
                for j in range(k):
                    bits[rng.randrange(p), j] = True
                if rng.random() < 0.2:
                    bits[rng.randrange(p), rng.randrange(k)] ^= True
                ds_bits.append(bits)
            d_codes = tuple(relation_code(b) for b in ds_bits)
            e_bits = np.zeros((c, p * k), dtype=bool)
            for cc in range(c):
                for j in range(k):
                    col = ds_bits[cc][:, perm.mapping[j]]
                    if col.sum() == 1:
                        e_bits[cc, int(np.argmax(col)) * k + j] = True
            e_code = relation_code(e_bits)
        record = SolutionRecord(
            sizes, e_code, d_codes, perm.mapping, {"correctness": True}
        )
        e, ds, _ = record.relations()
        after = compose(pad_steps[pad], product(e, checker.id_k))
        if not checker.correctness(after, checker.decrypt_step(ds)):
            continue
        solutions += 1
        with_s1 += _check_theorems_on(record, counterexamples)
    return TheoremReport(
        sizes, count, solutions, with_s1, tuple(counterexamples), sampled=count
    )
