import itertools

import pytest

import oracle_naive
import oracle_snake
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
    all_relations,
    compose,
    product,
    product_set,
    relation_code,
)
from relcat.search import (
    BudgetExceeded,
    SearchSpec,
    SolutionRecord,
    _FastChecker,
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
        + [((2, 2, 2), constraints) for constraints in CONSTRAINT_SETS_222],
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
        checker = _FastChecker(spec)
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
            cup_from_permutation(p).cup for p in Permutation.all(2)
        ]
        assert sorted(relation_code(c) for c in snake_cups) == sorted(
            relation_code(c) for c in perm_cups
        )

        # and the full solution sets agree when pads range over either set
        spec = SearchSpec(2, 2, 2)
        checker = _FastChecker(spec)
        from_cups = set()
        for cup in snake_cups:
            pad_step = product(checker.id_p, cup)
            for e in all_relations(product_set(checker.p_set, checker.k_set), 2):
                after = compose(pad_step, product(e, checker.id_k))
                for d0 in all_relations(2, 2):
                    for d1 in all_relations(2, 2):
                        if checker.correctness(
                            after, checker.decrypt_step([d0, d1])
                        ):
                            from_cups.add(
                                (
                                    relation_code(e),
                                    (relation_code(d0), relation_code(d1)),
                                    relation_code(cup),
                                )
                            )
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
        from relcat import protocols

        calls = []
        check = protocols.check_security

        def counted(inst, which):
            calls.append(which)
            return check(inst, which)

        monkeypatch.setattr(protocols, "check_security", counted)
        report = verify_theorems(SearchSpec(2, 2, 2))
        assert calls.count("S1") == report.solutions == GOLDEN_CORRECT_222

    def test_sampled_fallback(self):
        report = sample_candidates((3, 3, 3), 4000, seed=11)
        assert report.passed
        assert report.sampled == 4000
        assert report.solutions > 0  # the guided half finds real solutions


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
