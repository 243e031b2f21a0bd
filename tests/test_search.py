import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_naive
import oracle_sampler
import oracle_snake
from oracle_laws import all_permutations, all_relations
from relcat import search
from relcat.generators import cup_from_permutation
from relcat.protocols import (
    check_correctness,
    check_security,
    single_bit_instance,
)
from relcat.relations import (
    FiniteSet,
    Permutation,
    Rel,
    predicates,
    product_set,
    relation_code,
)
from relcat.search import (
    CONSTRAINT_NAMES,
    DEFAULT_BUDGET,
    BudgetExceeded,
    SearchSpec,
    SolutionRecord,
    candidate_count,
    dedup_records,
    enumerate_solutions,
    sample_candidates,
    verify_theorems,
)

# frozen from tests/oracle_naive.py, run before the search module was built
GOLDEN_CORRECT_222 = 8
GOLDEN_CORRECT_S1_222 = 8
GOLDEN_DEDUPED_222 = 4
# confirmed by relbench/count_synth.py, a per-ciphertext recount that
# shares no code with relcat
GOLDEN_CORRECT_223 = 16
GOLDEN_CORRECT_232 = 13824
# (3,3,c) counted by the relational checker before the bit-code solver;
# (4,4,c) from the closed form n!^(c+1) at p = k = n: coverage forces the
# encryption row to be a permutation matrix and the decryption to be unique
GOLDEN_CORRECT_EQUAL = [
    ((3, 3, 1), 36),
    ((3, 3, 2), 216),
    ((3, 3, 3), 1296),
    ((4, 4, 1), 576),
    ((4, 4, 2), 13824),
]

CONSTRAINT_SETS_SMALL = [
    frozenset(sub)
    for n in range(6)
    for sub in itertools.combinations(("correctness", "S1", "S2", "S3", "S4"), n)
]
CONSTRAINT_SETS_222 = [
    frozenset({"correctness"}),
    frozenset({"S1"}),
    frozenset({"S2", "S3", "S4"}),
    frozenset({"correctness", "S1", "S2", "S3", "S4"}),
]
# the oracle takes about 0.3 s per constraint set at (2,3,1) and (1,3,2)
CONSTRAINT_SETS_MEDIUM = CONSTRAINT_SETS_222 + [
    frozenset(),
    frozenset({"correctness", "S3"}),
    frozenset({"correctness", "S4"}),
]


@pytest.fixture(scope="module")
def solutions_222():
    return enumerate_solutions(SearchSpec(2, 2, 2))


class TestEnumerate:
    def test_singleton_sizes_forced(self):
        records = enumerate_solutions(SearchSpec(1, 1, 1))
        assert len(records) == 1
        assert records[0].triple() == (1, (1,), (0,))

    def test_golden_count(self, solutions_222):
        assert len(solutions_222) == GOLDEN_CORRECT_222

    def test_records_share_one_read_only_verdicts_map(self, solutions_222):
        # one map per run; `--dedup` gives each representative its own copy
        assert len({id(r.verdicts) for r in solutions_222}) == 1
        with pytest.raises(TypeError):
            solutions_222[0].verdicts["correctness"] = False
        kept = dedup_records(solutions_222)
        assert all(type(r.verdicts) is dict for r in kept)
        assert len({id(r.verdicts) for r in kept}) == len(kept) > 1

    def test_oracle_agreement_byte_for_byte(self, solutions_222):
        oracle = oracle_naive.enumerate_triples(2, 2, 2, ("correctness",))
        assert [r.triple() for r in solutions_222] == oracle

    @pytest.mark.parametrize(
        "sizes, constraints",
        [
            (sizes, constraints)
            for sizes in ((1, 2, 2), (2, 1, 2), (1, 2, 3))
            for constraints in CONSTRAINT_SETS_SMALL
        ]
        + [((2, 2, 2), constraints) for constraints in CONSTRAINT_SETS_222]
        + [
            (sizes, constraints)
            for sizes in ((2, 3, 1), (1, 3, 2))
            for constraints in CONSTRAINT_SETS_MEDIUM
        ],
        ids=lambda x: ",".join(map(str, x)) if isinstance(x, tuple) else
        "+".join(sorted(x)) or "none",
    )
    def test_oracle_agreement_per_constraint_set(self, sizes, constraints):
        # sorted() checks S1-S4 before correctness, the cheap ones first
        oracle = oracle_naive.enumerate_triples(*sizes, tuple(sorted(constraints)))
        records = enumerate_solutions(SearchSpec(*sizes, constraints=constraints))
        assert [r.triple() for r in records] == oracle
        assert all(r.verdicts == dict.fromkeys(sorted(constraints), True) for r in records)

    @pytest.mark.parametrize(
        "sizes, golden",
        [((2, 2, 3), GOLDEN_CORRECT_223), ((2, 3, 2), GOLDEN_CORRECT_232)],
    )
    def test_golden_count_beyond_the_whole_candidate_loop(self, sizes, golden):
        records = enumerate_solutions(SearchSpec(*sizes))
        assert len(records) == golden
        triples = [r.triple() for r in records]
        assert triples == sorted(set(triples))

    @pytest.mark.parametrize("sizes, golden", GOLDEN_CORRECT_EQUAL)
    def test_golden_count_at_equal_plaintexts_and_keys(self, sizes, golden):
        n, _, c = sizes
        assert golden == math.factorial(n) ** (c + 1)
        # (3,3,1) fits the default budget; the larger sizes need it raised
        records = enumerate_solutions(SearchSpec(*sizes, budget=2**70))
        assert len(records) == golden

    def test_contains_single_bit_instance(self, solutions_222):
        inst = single_bit_instance()
        triple = (
            relation_code(inst.encrypt),
            tuple(relation_code(d) for d in inst.decrypt.family),
            (0, 1),
        )
        assert triple in [r.triple() for r in solutions_222]

    def test_deterministic(self, solutions_222):
        again = enumerate_solutions(SearchSpec(2, 2, 2))
        assert [r.triple() for r in again] == [r.triple() for r in solutions_222]

    def test_emission_order_ascending(self, solutions_222):
        triples = [r.triple() for r in solutions_222]
        assert triples == sorted(triples)

    def test_budget_refusal(self):
        spec = SearchSpec(3, 3, 3)
        assert candidate_count(spec) > spec.budget
        with pytest.raises(BudgetExceeded) as err:
            enumerate_solutions(spec)
        assert err.value.candidates == candidate_count(spec)

    @pytest.mark.parametrize("budget, refused", [(31, True), (32, False)])
    def test_budget_boundary_is_exact(self, budget, refused):
        # 2 pads x 2^4 bit codes = 32 candidates: the lower bound 2^(2pkc)
        # = 16 does not decide, so the exact count must be compared
        spec = SearchSpec(1, 2, 1, budget=budget)
        assert candidate_count(spec) == 32
        if refused:
            with pytest.raises(BudgetExceeded):
                enumerate_solutions(spec)
        else:
            assert enumerate_solutions(spec)

    def test_verdicts_match_protocol_checkers(self, solutions_222):
        spec = SearchSpec(
            2, 2, 2, constraints=frozenset({"correctness", "S1", "S2", "S3", "S4"})
        )
        records = enumerate_solutions(spec)
        assert len(records) == GOLDEN_CORRECT_S1_222
        for record in records:
            inst = record.as_instance()
            assert check_correctness(inst).holds
            for which in ("S1", "S2", "S3", "S4"):
                assert check_security(inst, which).holds

    def test_non_solutions_fail_protocol_checker_too(self):
        # spot-check that the fast path rejects exactly what the cell-level
        # checker rejects
        spec = SearchSpec(2, 2, 2)
        accepted = {r.triple() for r in enumerate_solutions(spec)}
        import random

        rng = random.Random(5)
        for _ in range(200):
            e_code = rng.getrandbits(8)
            d_codes = (rng.getrandbits(4), rng.getrandbits(4))
            pad = rng.choice([(0, 1), (1, 0)])
            record = SolutionRecord(
                (2, 2, 2), e_code, d_codes, pad, {"correctness": True}
            )
            inst = record.as_instance()
            expected = (e_code, d_codes, pad) in accepted
            assert check_correctness(inst).holds == expected


class TestPruningSoundness:
    def test_permutation_cups_equal_snake_filtered_cups(self):
        # at key size 2: enumerating pads by permutation gives the same
        # solution set as filtering all candidate cups by the snakes
        k = FiniteSet(2)
        pair = product_set(k, k)
        snake_cups = []
        for cup in all_relations(1, pair.size):
            cup = Rel(FiniteSet(1), pair, cup.bits)
            if any(
                oracle_snake.snake_equations_hold(
                    k, cup, Rel(pair, FiniteSet(1), cap.bits)
                )
                for cap in all_relations(pair.size, 1)
            ):
                snake_cups.append(cup)
        perm_cups = [
            cup_from_permutation(p).cup for p in all_permutations(2)
        ]
        assert sorted(relation_code(c) for c in snake_cups) == sorted(
            relation_code(c) for c in perm_cups
        )

        # and the full solution sets agree when pads range over either set;
        # a snake cup is the graph of a permutation, read off its pairs
        spec = SearchSpec(2, 2, 2)
        from_cups = set()
        for cup in snake_cups:
            pad = tuple(b % 2 for _, b in cup.pairs())
            assert [b // 2 for _, b in cup.pairs()] == [0, 1]
            for e_code in range(1 << 8):
                enc = frozenset(
                    ((a // 2, a % 2), b)
                    for a, b in oracle_naive.rel_from_code(4, 2, e_code)
                )
                for d_codes in itertools.product(range(1 << 4), repeat=2):
                    dec = [oracle_naive.rel_from_code(2, 2, d) for d in d_codes]
                    if oracle_naive.correctness_holds(2, 2, 2, enc, dec, pad):
                        from_cups.add((e_code, d_codes, relation_code(cup)))
        from_perms = {
            (
                r.encrypt_code,
                r.decrypt_codes,
                relation_code(
                    cup_from_permutation(
                        Permutation(FiniteSet(2), r.pad_mapping)
                    ).cup
                ),
            )
            for r in enumerate_solutions(spec)
        }
        assert from_cups == from_perms


class TestDedup:
    def test_matches_oracle(self):
        spec = SearchSpec(
            2, 2, 2, constraints=frozenset({"correctness", "S1"}), dedup=True
        )
        records = enumerate_solutions(spec)
        oracle = oracle_naive.dedup_triples(
            2, 2, 2, oracle_naive.enumerate_triples(2, 2, 2, ("correctness", "S1"))
        )
        assert [r.triple() for r in records] == oracle
        assert len(records) == GOLDEN_DEDUPED_222

    @pytest.mark.parametrize(
        "sizes, constraints",
        [
            ((1, 2, 3), ("correctness",)),
            ((2, 2, 3), ("correctness",)),
            ((3, 3, 1), ("correctness",)),
            ((1, 2, 3), CONSTRAINT_NAMES),
            ((2, 2, 3), CONSTRAINT_NAMES),
            ((3, 3, 1), CONSTRAINT_NAMES),
            ((2, 3, 2), CONSTRAINT_NAMES),
            ((1, 2, 3), ("S1", "S3")),
            ((2, 2, 1), ("S1", "S3")),
        ],
        ids=str,
    )
    def test_orbit_count_by_burnside(self, sizes, constraints):
        # counted without `_orbit_triples`, by the oracle's relabeling
        records = enumerate_solutions(
            SearchSpec(*sizes, constraints=frozenset(constraints))
        )
        triples = [r.triple() for r in records]
        orbits = oracle_naive.burnside_orbit_count(*sizes, triples)
        assert len(dedup_records(records)) == orbits
        if len(triples) < 1000:
            assert len(oracle_naive.dedup_triples(*sizes, triples)) == orbits

    def test_first_record_of_an_orbit_gives_the_verdicts(self, solutions_222):
        # each orbit is relabeled once, at its first record; the records
        # of an orbit met later are skipped, in any order of the input
        first, *rest = solutions_222
        marked = SolutionRecord(
            first.sizes, *first.triple(), {"correctness": True, "marked": True}
        )
        kept = dedup_records([marked, *rest])
        assert [r.canonical for r in kept] == [
            r.canonical for r in dedup_records(solutions_222[::-1])
        ]
        least = min(_orbit(first))
        for rec in kept:
            assert ("marked" in rec.verdicts) == (rec.canonical == least)

    def test_singleton_identity(self):
        records = enumerate_solutions(SearchSpec(1, 1, 1, dedup=True))
        assert len(records) == 1

    def test_single_bit_orbit_collapses(self, solutions_222):
        inst = single_bit_instance()
        triple = (
            relation_code(inst.encrypt),
            tuple(relation_code(d) for d in inst.decrypt.family),
            (0, 1),
        )
        mine = [r for r in solutions_222 if r.triple() == triple]
        deduped = dedup_records(mine)
        assert len(deduped) == 1
        assert deduped[0].canonical == deduped[0].triple()

    def test_ciphertext_relabel_merges(self, solutions_222):
        by_canonical = {}
        for rec in dedup_records(solutions_222):
            by_canonical[rec.canonical] = rec
        # every original solution canonicalizes into the kept set
        for rec in solutions_222:
            assert min(
                t for t in _orbit(rec)
            ) in by_canonical

    def test_representative_is_itself_a_solution(self, solutions_222):
        for rec in dedup_records(solutions_222):
            assert check_correctness(rec.as_instance()).holds


def _orbit(record):
    from relcat.search import _orbit_triples

    return list(_orbit_triples(record))


class TestTheorems:
    def test_exhaustive_at_small_sizes(self):
        report = verify_theorems(SearchSpec(2, 2, 2))
        assert report.passed
        assert report.solutions == GOLDEN_CORRECT_222
        assert report.with_primary_security == GOLDEN_CORRECT_S1_222
        assert report.candidates == candidate_count(SearchSpec(2, 2, 2))

    def test_every_correct_instance_at_enumerable_small_sizes(self):
        # size combinations up to 3 with plaintexts and keys equinumerous
        # (the invertibility theorems are endomorphism statements) whose
        # space fits a small budget: each correct solution has bijective
        # decryption fibers, a rebuilt encryption, and the implication
        total = 0
        covered = []
        for sizes in itertools.product((1, 2, 3), repeat=3):
            if sizes[0] != sizes[1]:
                continue
            spec = SearchSpec(*sizes)
            if candidate_count(spec) > 2 * 10**7:
                continue
            report = verify_theorems(spec)
            assert report.passed, (sizes, report.counterexamples)
            total += report.solutions
            covered.append(sizes)
        assert (2, 2, 2) in covered and len(covered) >= 4
        assert total > 8  # more than the (2,2,2) stratum alone

    def test_unequal_plaintext_and_key_sizes_escape_the_theorem(self):
        # with one plaintext and two keys, a correct scheme can decrypt
        # with a total non-injective family: the invertibility statement
        # genuinely needs the two private carriers to match
        from relcat.generators import ControlledOp, canonical_cup
        from relcat.protocols import (
            ProtocolInstance,
            derive_decryption_inverse,
        )
        from relcat.relations import full, make, predicates, product_set

        p, k, c = FiniteSet(1), FiniteSet(2), FiniteSet(2)
        inst = ProtocolInstance(
            p,
            k,
            c,
            make(product_set(p, k), c, [(0, 0), (1, 1)]),
            ControlledOp(c, k, p, (full(k, p), full(k, p))),
            canonical_cup(k),
        )
        assert check_correctness(inst).holds
        assert not any(
            predicates(f).is_bijection for f in inst.decrypt.family
        )
        _, verdict = derive_decryption_inverse(inst)
        assert not verdict.holds

    def test_primary_security_decided_once_per_solution(self, monkeypatch):
        # on the bit codes only, never through cells: at (2,2,2) every
        # record passes, and at (1,2,2), where no fiber is a bijection,
        # cells are built only to locate each failed decryption inverse
        from relcat import protocols

        calls = []
        check = protocols.check_security

        def counted(inst, which):
            calls.append(which)
            return check(inst, which)

        monkeypatch.setattr(protocols, "check_security", counted)
        report = verify_theorems(SearchSpec(2, 2, 2))
        assert report.solutions == GOLDEN_CORRECT_222 and calls == []
        report = verify_theorems(SearchSpec(1, 2, 2))
        assert report.solutions == 98 and not report.passed and calls == []

    @staticmethod
    def _assert_no_invertible_encryption_under_s1(records) -> int:
        # S1 read off the encryption relation: every message reaches every
        # ciphertext under some key.  A bijection lets a message reach only
        # k of the p·k ciphertexts, so with p > 1 the two never meet, and
        # the non-invertibility theorem has no counterexample to write
        with_s1 = 0
        for record in records:
            p, k, c = record.sizes
            e = record.relations()[0]
            s1 = bool(e.bits.reshape(c, p, k).any(axis=2).all())
            assert not (s1 and predicates(e).is_bijection), record.triple()
            with_s1 += s1
        return with_s1

    def test_no_encryption_under_s1_is_invertible(self):
        with_s1 = 0
        for sizes in itertools.product((2, 3), (1, 2, 3), (1, 2, 3)):
            spec = SearchSpec(*sizes)
            if candidate_count(spec) <= DEFAULT_BUDGET:
                with_s1 += self._assert_no_invertible_encryption_under_s1(
                    enumerate_solutions(spec)
                )
        assert with_s1 > 0

    @pytest.mark.parametrize(
        "sizes, seed", [((3, 3, 3), 1), ((2, 4, 4), 3)], ids=["3,3,3", "2,4,4"]
    )
    def test_no_sampled_encryption_under_s1_is_invertible(
        self, monkeypatch, sizes, seed
    ):
        records = []
        check = search._check_theorems_on

        def kept(record, solver, counterexamples):
            records.append(record)
            return check(record, solver, counterexamples)

        monkeypatch.setattr(search, "_check_theorems_on", kept)
        report = sample_candidates(sizes, 2000, seed=seed)
        assert len(records) == report.solutions > 0
        assert self._assert_no_invertible_encryption_under_s1(records) > 0

    def test_long_codes_are_worded_under_the_default_digit_limit(self, monkeypatch):
        # an encryption code of 14,400 bits has 4,335 decimal digits; the
        # wording must not depend on the interpreter-wide limit, which the
        # CLI lifts.  The cells that locate a failed inverse are stubbed.
        import sys

        from relcat import protocols

        class Located:
            def __init__(self, inst, given):
                pass

            def __getitem__(self, name):
                return protocols.EquationVerdict(name, False, "located")

        monkeypatch.setattr(protocols, "Verification", Located)
        monkeypatch.setattr(SolutionRecord, "as_instance", lambda record: None)
        limit = sys.get_int_max_str_digits()
        try:
            worded = []
            for digits in (4300, 0):
                sys.set_int_max_str_digits(digits)
                report = sample_candidates((1, 300, 48), 2)
                assert sys.get_int_max_str_digits() == digits
                worded.append(report.counterexamples)
        finally:
            sys.set_int_max_str_digits(limit)
        assert worded[0] == worded[1] and len(worded[0]) > 0
        assert len(worded[0][0].split(",")[0]) > 4300

    def test_sampled_fallback(self):
        report = sample_candidates((3, 3, 3), 4000, seed=11)
        assert report.passed
        assert report.sampled == 4000
        assert report.solutions > 0  # the guided half finds real solutions


# on and off the diagonal |P| = |K|, with no correct scheme (k < p), with
# many keys, and large enough that every candidate fails
SAMPLER_SIZES = [
    (1, 1, 1), (1, 2, 3), (1, 3, 2), (2, 2, 2), (2, 3, 2), (3, 2, 2),
    (3, 3, 3), (4, 4, 2), (2, 12, 2), (8, 8, 8),
]


class TestSamplerOracle:
    """`sample_candidates` against the per-sample loop in
    `tests/oracle_sampler.py`, which it replaced."""

    @pytest.mark.parametrize(
        "sizes", SAMPLER_SIZES, ids=[",".join(map(str, s)) for s in SAMPLER_SIZES]
    )
    def test_reports_equal_field_for_field(self, sizes):
        for count in (1, 2, 7, 500):
            for seed in (0, 1, 2):
                got = sample_candidates(sizes, count, seed=seed)
                want = oracle_sampler.sample_candidates(sizes, count, seed=seed)
                assert vars(got) == vars(want), (sizes, count, seed)

    @pytest.mark.parametrize("k", range(7))
    def test_pads_by_rank_in_lexicographic_order(self, k):
        pads = [search._pad_of_rank(rank, k) for rank in range(math.factorial(k))]
        assert [tuple(pad) for pad, _ in pads] == list(itertools.permutations(range(k)))
        for pad, unpad in pads:
            assert [unpad[x] for x in pad] == list(range(k))

    def test_the_grid_reaches_every_kind_of_report(self):
        # correct records, off-diagonal counterexamples, whose wording
        # builds cells, and sizes where nothing is correct
        reports = [sample_candidates(sizes, 500, seed=0) for sizes in SAMPLER_SIZES]
        assert any(r.solutions and r.passed for r in reports)
        assert any(not r.passed for r in reports)
        assert any(r.solutions == 0 for r in reports)

    @pytest.mark.parametrize("sizes", [(3, 3, 3), (2, 4, 3)], ids=["3,3,3", "2,4,3"])
    def test_same_public_draws_in_the_same_order(self, monkeypatch, sizes):
        # the calls that advance the generator, on both sides: the oracle's
        # randrange reaches the recorded getrandbits, so equal streams mean
        # equal randrange values
        class Recording(random.Random):
            def __init__(self, seed):
                self.calls = []
                streams.append(self.calls)
                super().__init__(seed)

            def getrandbits(self, n):
                self.calls.append(("getrandbits", n))
                return super().getrandbits(n)

            def random(self):
                self.calls.append(("random",))
                return super().random()

        streams = []
        monkeypatch.setattr(random, "Random", Recording)
        sample_candidates(sizes, 300, seed=4)
        oracle_sampler.sample_candidates(sizes, 300, seed=4)
        got, want = streams
        assert got == want and len(got) > 300

    # every n = 2^j - 1, 2^j, 2^j + 1 up to 2^72 + 1, and k! up to 30!
    BOUNDS = sorted(
        {1, 2, 3}
        | {2**j + d for j in range(1, 73) for d in (-1, 0, 1)}
        | {math.factorial(k) for k in range(1, 31)}
    )

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**64),
        calls=st.lists(
            st.one_of(
                st.tuples(st.just("below"), st.sampled_from(BOUNDS)),
                st.tuples(st.just("getrandbits"), st.integers(0, 80)),
                st.tuples(st.just("random"), st.none()),
            ),
            max_size=40,
        ),
    )
    def test_bounded_draws_are_randrange_draw_for_draw(self, seed, calls):
        got, want = random.Random(seed), random.Random(seed)
        for name, arg in calls:
            if name == "below":
                assert search._below(got.getrandbits, arg) == want.randrange(arg)
            elif name == "getrandbits":
                assert got.getrandbits(arg) == want.getrandbits(arg)
            else:
                assert got.random() == want.random()
        assert got.getstate() == want.getstate()

    def test_memory_does_not_grow_with_the_count(self):
        # nothing is remembered between candidates: at (8,8,8) every row,
        # decryption and pad differs, so a memo would grow with the count
        import tracemalloc

        def peak(count):
            tracemalloc.start()
            try:
                sample_candidates((8, 8, 8), count, seed=3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(20000) <= peak(2000) + 4096


# sizes with at most 3 elements per carrier and at most a few hundred
# correct records, on and off the diagonal |P| = |K|
BIT_CODE_SIZES = [
    (1, 1, 1), (1, 2, 1), (2, 2, 1), (1, 2, 2), (2, 2, 2), (3, 3, 1),
    (2, 2, 3), (2, 1, 2), (1, 1, 3), (1, 3, 1), (3, 3, 2),
]
UNBOUNDED = 2**100
THEOREM_CHECKS = (
    "decryption_invertible", "encryption_rebuilt_from_inverse",
    "S1", "S2", "S3", "S4", "encryption_not_invertible",
)


class TestBitCodeVerdicts:
    """`_BlockSolver.verdicts` against the whole-cell `Verification`."""

    @staticmethod
    def _assert_agree(sizes, records):
        from relcat.protocols import Verification
        from relcat.search import _BlockSolver

        solver = _BlockSolver(sizes[0], sizes[1], frozenset({"correctness"}))
        for record in records:
            checks = Verification(record.as_instance())
            want = {
                "fibers_bijective": checks.fibers_bijective,
                **{name: checks[name].holds for name in THEOREM_CHECKS},
            }
            assert solver.verdicts(record) == want, record.triple()

    @pytest.mark.parametrize(
        "sizes", BIT_CODE_SIZES, ids=[",".join(map(str, s)) for s in BIT_CODE_SIZES]
    )
    def test_every_correct_record(self, sizes):
        records = enumerate_solutions(SearchSpec(*sizes, budget=UNBOUNDED))
        self._assert_agree(sizes, records)

    @pytest.mark.parametrize("sizes", [(2, 3, 2), (1, 3, 2)], ids=["2,3,2", "1,3,2"])
    def test_seeded_sample_of_correct_records(self, sizes):
        import random

        records = enumerate_solutions(SearchSpec(*sizes))
        self._assert_agree(sizes, random.Random(7).sample(records, 200))

    def test_sizes_see_each_verdict_both_ways(self):
        # S1, S2 and S4 hold on every correct record: coverage puts a bit
        # in every message row of e and of d
        from relcat.search import _BlockSolver

        seen = set()
        for sizes in BIT_CODE_SIZES:
            solver = _BlockSolver(sizes[0], sizes[1], frozenset({"correctness"}))
            for record in enumerate_solutions(SearchSpec(*sizes, budget=UNBOUNDED)):
                seen.update(solver.verdicts(record).items())
        both = {name for name, v in seen if v} & {name for name, v in seen if not v}
        assert both == {"fibers_bijective", *THEOREM_CHECKS} - {"S1", "S2", "S4"}


class TestRecordSerialization:
    def test_json_shape(self, solutions_222):
        payload = solutions_222[0].to_json()
        assert payload["sizes"] == [2, 2, 2]
        assert len(payload["encrypt"]) == 2
        assert all(len(row) == 4 for row in payload["encrypt"])
        assert len(payload["decrypt"]) == 2
        assert payload["verdicts"] == {"correctness": True}

    def test_relations_round_trip(self, solutions_222):
        for record in solutions_222:
            e, ds, perm = record.relations()
            assert relation_code(e) == record.encrypt_code
            assert tuple(relation_code(d) for d in ds) == record.decrypt_codes
            assert perm.mapping == record.pad_mapping


# c = 1 and every (p, k) with p·k <= 6, at the identity pad and, when
# there is another, at a k-cycle
BASIS_CASES = [
    (p, k, pad)
    for p in range(1, 7)
    for k in range(1, 6 // p + 1)
    for pad in {tuple(range(k)): None, tuple(range(1, k)) + (0,): None}
]
BASIS_IDS = [f"{p},{k}-{''.join(map(str, pad))}" for p, k, pad in BASIS_CASES]


class TestBasisImages:
    """The per-block rules of `_BlockSolver` derived from the equations that
    `protocols` builds.  Rel is enriched in complete join-semilattices, so
    each side of an equation, as a function of the one relation it reads,
    is the union of that side built at each single pair; correctness reads
    encryption and decryption, and is the union over pairs of pairs.  The
    sides are captured from `protocols._verdict`, which every checker calls
    with (name, lhs, rhs), at c = 1, where an encryption row and a
    decryption block are whole relations."""

    @staticmethod
    def _flat(cell):
        """A cell's component shapes, and its bits as one integer."""
        rels = [rel for row in cell.components for rel in row]
        bits = np.concatenate([rel.bits.ravel() for rel in rels])
        return (
            tuple(rel.bits.shape for rel in rels),
            int.from_bytes(np.packbits(bits).tobytes(), "big"),
        )

    @pytest.fixture
    def sides(self, monkeypatch):
        """sides(p, k, pad, e, d, names) is {name: (lhs, rhs)}, each side
        flattened, for the checks named, at encryption row e and decryption
        block d."""
        from relcat import protocols

        captured = {}
        verdict = protocols._verdict

        def capture(name, lhs, rhs):
            result = verdict(name, lhs, rhs)
            flat = TestBasisImages._flat(lhs), TestBasisImages._flat(rhs)
            # the shapes agree, so comparing the integers decides the equation
            assert flat[0][0] == flat[1][0]
            assert result.holds == (flat[0][1] == flat[1][1])
            captured[name] = flat[0][1], flat[1][1]
            return result

        monkeypatch.setattr(protocols, "_verdict", capture)

        def build(p, k, pad, e, d, names):
            inst = SolutionRecord((p, k, 1), e, (d,), pad, {}).as_instance()
            captured.clear()
            for name in names:
                if name == "correctness":
                    check_correctness(inst)
                else:
                    check_security(inst, name)
            assert set(captured) == set(names)
            return dict(captured)

        return build

    @staticmethod
    def _unions(images):
        """The union of the images of its bits, for every code."""
        out = [0]
        for code in range(1, 1 << len(images)):
            low = code & -code
            out.append(out[code ^ low] | images[low.bit_length() - 1])
        return out

    @pytest.mark.parametrize("p, k, pad", BASIS_CASES, ids=BASIS_IDS)
    def test_rules_follow_from_the_equations(self, sides, p, k, pad):
        import random

        from relcat.search import _BlockSolver

        n = p * k
        encrypt_side = ("S1", "S2", "S3")
        # the images: S1-S3 at each pair of e, S4 at each pair of d, and
        # correctness at each pair of pairs; the right sides never move
        rhs = {}
        images = {name: [] for name in ("S1", "S2", "S3", "S4")}
        both = []
        for i in range(n):
            for name, (lhs, right) in sides(p, k, pad, 1 << i, 0, encrypt_side).items():
                images[name].append(lhs)
                assert rhs.setdefault(name, right) == right
            (lhs, right), = sides(p, k, pad, 0, 1 << i, ("S4",)).values()
            images["S4"].append(lhs)
            assert rhs.setdefault("S4", right) == right
            row = []
            for j in range(n):
                (lhs, right), = sides(p, k, pad, 1 << i, 1 << j, ("correctness",)).values()
                row.append(lhs)
                assert rhs.setdefault("correctness", right) == right
            both.append(row)
        assert images["S1"] == images["S2"]

        tables = {name: self._unions(images[name]) for name in images}
        # correctness[e][d], built up one bit of e at a time
        by_e = [self._unions(row) for row in both]
        correct = [[0] * (1 << n)]
        for e in range(1, 1 << n):
            low = (e & -e).bit_length() - 1
            correct.append([a | b for a, b in zip(correct[e ^ (1 << low)], by_e[low])])

        # union-preservation, with the empty union at the empty relation
        rng = random.Random(p * 10 + k)
        full = (1 << n) - 1
        points = [(0, 0), (full, full), (0, full), (full, 0)]
        points += [(rng.getrandbits(n), rng.getrandbits(n)) for _ in range(4)]
        for e, d in points:
            built = sides(p, k, pad, e, d, CONSTRAINT_NAMES)
            assert built["correctness"][0] == correct[e][d], (e, d)
            for name in encrypt_side:
                assert built[name][0] == tables[name][e], (name, e)
            assert built["S4"][0] == tables["S4"][d], d

        # every verdict derived from the images against `solve`'s, each
        # constraint decided once per (row, u)
        subsets = [
            frozenset(sub)
            for size in range(6)
            for sub in itertools.combinations(CONSTRAINT_NAMES, size)
        ]
        solvers = [_BlockSolver(p, k, need) for need in subsets]
        unpad = sorted(range(k), key=pad.__getitem__)
        u_of = [solvers[0].through_pad(d, unpad) for d in range(1 << n)]
        compared = mismatches = 0
        for row in range(1 << n):
            solved = [solver.solve(row) for solver in solvers]
            encrypt_holds = {name: tables[name][row] == rhs[name] for name in encrypt_side}
            for d in range(1 << n):
                holds = {
                    **encrypt_holds,
                    "S4": tables["S4"][d] == rhs["S4"],
                    "correctness": correct[row][d] == rhs["correctness"],
                }
                u = u_of[d]
                for need, found in zip(subsets, solved):
                    passes = found is not None and not u & ~found[0] and all(
                        u & mask for mask in found[1]
                    )
                    mismatches += passes != all(holds[name] for name in need)
                    compared += 1
        assert compared == 32 << 2 * n
        assert mismatches == 0
