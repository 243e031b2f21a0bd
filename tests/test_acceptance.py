"""Acceptance suite: one test per criterion, printed as one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Every tolerance is exact (boolean equality of cells);
runtime bounds are asserted where stated.
"""

import glob
import itertools
import math
import os
import random
import time

import numpy as np
import pytest

import oracle_naive
import oracle_snake
from oracle_laws import (
    all_permutations,
    all_relations,
    factor_through_kernel,
    frobenius_check,
    is_empty,
    kernel,
)
from relcat.cells import equal, hcompose_two, vcompose
from relcat.dsl import format_source, parse, run_source
from relcat.generators import (
    ControlledOp,
    canonical_cup,
    classify_cups,
    cup_from_permutation,
    delete,
    region_structure,
    snake_equations_hold,
)
from relcat.protocols import (
    ProtocolInstance,
    check_correctness,
    check_correctness_protocol_form,
    check_dh,
    check_security,
    derive_decryption_inverse,
    dh_instance,
    rebuild_encryption,
    secret_sharing_from_otp,
    security_implications,
    single_bit_instance,
)
from relcat.relations import (
    FiniteSet,
    Rel,
    compose,
    converse,
    identity,
    make,
    predicates,
    relation_code,
    relation_from_code,
)
from relcat.search import SearchSpec, enumerate_solutions, verify_theorems

SPEC_DIR = os.path.join(
    os.path.dirname(__file__), "..", "src", "relcat", "specs"
)

# golden values computed by tests/oracle_naive.py ahead of the build
GOLDEN_CORRECT_222 = 8
GOLDEN_CORRECT_S1_222 = 8


def _report(number: int, title: str, failures: list[str], started: float,
            limit: float | None = None) -> None:
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures else "FAIL"
    budget = f", limit {limit:.0f}s" if limit else ""
    print(f"criterion {number} [{status}] {title} ({elapsed:.2f}s{budget})")
    assert not failures, failures
    if limit is not None:
        assert elapsed < limit, f"criterion {number} exceeded {limit}s"


def test_criterion_1_transcribed_instance_correct():
    started = time.perf_counter()
    failures = []
    inst = single_bit_instance()
    if not check_correctness(inst).holds:
        failures.append("compact correctness form failed")
    if not check_correctness_protocol_form(inst).holds:
        failures.append("protocol-shaped correctness form failed")
    _report(1, "transcribed single-bit instance is correct (both forms)",
            failures, started, limit=1.0)


def test_criterion_2_security_suite_and_perturbation():
    started = time.perf_counter()
    failures = []
    inst = single_bit_instance()
    for which in ("S1", "S2", "S3", "S4"):
        if not check_security(inst, which).holds:
            failures.append(f"{which} failed on the single-bit instance")
    perturbed = ProtocolInstance(
        inst.plaintexts,
        inst.keys,
        inst.ciphertexts,
        inst.encrypt,
        ControlledOp(
            inst.ciphertexts,
            inst.keys,
            inst.plaintexts,
            (inst.decrypt.family[0], identity(2)),
        ),
        inst.pad,
    )
    verdict = check_correctness(perturbed)
    if verdict.holds:
        failures.append("perturbed decryption still passed correctness")
    if verdict.witness is None or verdict.difference is None:
        failures.append("perturbed failure carried no located witness")
    _report(2, "security suite exact; perturbed decryption fails with witness",
            failures, started, limit=1.0)


def test_criterion_3_theorems_over_all_small_solutions():
    started = time.perf_counter()
    failures = []
    records = enumerate_solutions(SearchSpec(2, 2, 2))
    for record in records:
        inst = record.as_instance()
        label = str(record.triple())
        if not all(predicates(d).is_bijection for d in inst.decrypt.family):
            failures.append(f"{label}: non-bijective decryption fiber")
        _, inv = derive_decryption_inverse(inst)
        if not inv.holds:
            failures.append(f"{label}: decryption inverse not two-sided")
        if not rebuild_encryption(inst).holds:
            failures.append(f"{label}: encryption not rebuilt")
        report = security_implications(inst)
        if not report.vacuous and not report.implication_holds:
            failures.append(f"{label}: primary security does not imply the rest")
        from relcat.protocols import check_encryption_not_invertible

        if not check_encryption_not_invertible(inst).holds:
            failures.append(f"{label}: encryption admitted an inverse")
    aggregate = verify_theorems(SearchSpec(2, 2, 2))
    if not aggregate.passed:
        failures.extend(aggregate.counterexamples)
    _report(3, "all structural theorems hold over every (2,2,2) solution",
            failures, started, limit=120.0)


def test_criterion_4_oracle_equivalence_and_golden_count():
    started = time.perf_counter()
    failures = []
    records = enumerate_solutions(SearchSpec(2, 2, 2))
    oracle = oracle_naive.enumerate_triples(2, 2, 2, ("correctness",))
    if [r.triple() for r in records] != oracle:
        failures.append("solution stream differs from the naive enumerator")
    if len(records) != GOLDEN_CORRECT_222:
        failures.append(
            f"count {len(records)} differs from frozen golden "
            f"{GOLDEN_CORRECT_222}"
        )
    both = enumerate_solutions(
        SearchSpec(2, 2, 2, constraints=frozenset({"correctness", "S1"}))
    )
    if len(both) != GOLDEN_CORRECT_S1_222:
        failures.append("correctness+S1 count differs from frozen golden")
    _report(4, "evaluator equals naive oracle byte for byte; golden count",
            failures, started)


def test_criterion_5_cup_classification():
    started = time.perf_counter()
    failures = []
    for n in (1, 2, 3, 4):
        cups = classify_cups(n)
        if len(cups) != math.factorial(n):
            failures.append(f"size {n}: {len(cups)} cups, wanted {n}!")
        if len({p.mapping for p in cups}) != len(cups):
            failures.append(f"size {n}: duplicate permutations")
    # literal double brute force over every cup/cap pair at sizes <= 3,
    # with the per-side halves of the zig-zags hoisted out of the loop
    from relcat.relations import product

    for n in (1, 2, 3):
        pair_size = n * n
        one = FiniteSet(1)
        wire = identity(n)
        caps = [
            relation_from_code(FiniteSet(pair_size), one, code)
            for code in range(1 << pair_size)
        ]
        cap_right = [product(wire, cap) for cap in caps]
        cap_left = [product(cap, wire) for cap in caps]
        survivors = set()
        for cup_code in range(1 << pair_size):
            cup = relation_from_code(one, FiniteSet(pair_size), cup_code)
            cup_left = product(cup, wire)
            cup_right = product(wire, cup)
            for j in range(1 << pair_size):
                if (
                    compose(cup_left, cap_right[j]) == wire
                    and compose(cup_right, cap_left[j]) == wire
                ):
                    survivors.add(cup_code)
                    break
        expected = {
            relation_code(cup_from_permutation(p).cup)
            for p in all_permutations(n)
        }
        if survivors != expected:
            failures.append(f"size {n}: brute-force cup set mismatch")
    _report(5, "pad cups are exactly the permutations (brute-forced at <= 3)",
            failures, started)


def test_criterion_6_region_axioms_and_delete_uniqueness():
    started = time.perf_counter()
    failures = []
    for n in (1, 2, 3, 4):
        report = frobenius_check(region_structure(n))
        if not report.passed:
            failures.append(f"size {n}: axioms failed: {report.failures()}")
    for n in (1, 2, 3, 4):
        zero_kernel = [
            r for r in all_relations(n, 1) if kernel(r).carrier.size == 0
        ]
        if zero_kernel != [delete(n)]:
            failures.append(f"size {n}: deletion not unique among {len(zero_kernel)}")
    _report(6, "region axioms pass at sizes 1-4; deletion unique by brute force",
            failures, started, limit=10.0)


def test_criterion_7_secret_sharing():
    started = time.perf_counter()
    failures = []
    result = secret_sharing_from_otp(single_bit_instance())
    if not result.recombination.holds:
        failures.append("recombination equation failed")
    if not result.erase_left_share.holds:
        failures.append("erasing the adjusted share is not uniform")
    if not result.erase_right_share.holds:
        failures.append("erasing the untouched share is not uniform")
    _report(7, "secret sharing equations exact on the single-bit triple",
            failures, started, limit=1.0)


def test_criterion_8_key_exchange():
    started = time.perf_counter()
    failures = []
    for q in (2, 3, 5, 7):
        if not check_dh(dh_instance(q)).holds:
            failures.append(f"exchange failed at order {q}")
    verdict = check_dh(dh_instance(7, include_identity=True))
    if verdict.holds:
        failures.append("identity base unexpectedly passed")
    elif "base 1" not in (verdict.witness or ""):
        failures.append("identity-base failure lacked its witness")
    _report(8, "key exchange holds for primes 2,3,5,7; identity base refuted",
            failures, started, limit=5.0)


def _all_rels(a: int, b: int) -> list[Rel]:
    return list(all_relations(a, b))


def test_criterion_9_algebraic_property_suites():
    started = time.perf_counter()
    failures = []
    rng = random.Random(99)

    def rand_rel(a: int, b: int) -> Rel:
        bits = np.array(
            [rng.random() < 0.5 for _ in range(a * b)], bool
        ).reshape(b, a)
        return Rel(FiniteSet(a), FiniteSet(b), bits)

    # associativity: exhaustive at sizes <= 2, then 1000 samples at 3 and 4
    for a, b, c, d in itertools.product((1, 2), repeat=4):
        for r in _all_rels(a, b):
            for s in _all_rels(b, c):
                for t in _all_rels(c, d):
                    if compose(compose(r, s), t) != compose(r, compose(s, t)):
                        failures.append(f"associativity: {r}, {s}, {t}")
    for trial in range(1000):
        a, b, c, d = (rng.randint(1, 4) for _ in range(4))
        r, s, t = rand_rel(a, b), rand_rel(b, c), rand_rel(c, d)
        if compose(compose(r, s), t) != compose(r, compose(s, t)):
            failures.append("associativity sample failed")

    # converse contravariance: exhaustive at size 3, samples at 4
    rels33 = _all_rels(3, 3)
    stack = np.stack([r.bits for r in rels33]).astype(np.int32)
    lhs = (stack[None, :, :, :] @ stack[:, None, :, :]) > 0
    for i in (0, 1, 5, 77, 300, 511):
        for j in (0, 3, 64, 511):
            r, s = rels33[i], rels33[j]
            assert np.array_equal(compose(r, s).bits, lhs[i, j])
    rhs = np.swapaxes(lhs, 2, 3)
    trans = np.stack([r.bits.T for r in rels33]).astype(np.int32)
    rhs_direct = (trans[:, None, :, :] @ trans[None, :, :, :]) > 0
    if not np.array_equal(rhs, rhs_direct):
        failures.append("converse contravariance failed at size 3")
    for trial in range(1000):
        a, b, c = (rng.randint(1, 4) for _ in range(3))
        r, s = rand_rel(a, b), rand_rel(b, c)
        if converse(compose(r, s)) != compose(converse(s), converse(r)):
            failures.append("converse contravariance sample failed")

    # interchange of the two compositions: 1000 sampled quadruples
    from conftest import CellBuilder

    cb = CellBuilder(seed=5)
    for _ in range(1000):
        s, t, u = (cb.finite_set(1, 2) for _ in range(3))
        alpha = cb.two_cell(s, t)
        alpha2 = cb.two_cell_from(alpha.codomain)
        beta = cb.two_cell(t, u)
        beta2 = cb.two_cell_from(beta.codomain)
        lhs_cell = vcompose(
            hcompose_two(alpha, beta), hcompose_two(alpha2, beta2)
        )
        rhs_cell = hcompose_two(
            vcompose(alpha, alpha2), vcompose(beta, beta2)
        )
        if not equal(lhs_cell, rhs_cell):
            failures.append("interchange sample failed")

    # snake equations: every permutation pair at sizes 1..4 satisfies them,
    # and at size 2 nothing else does (full double brute force through the
    # string-diagram oracle)
    for n in range(1, 5):
        for p in all_permutations(n):
            dp = cup_from_permutation(p)
            if not snake_equations_hold(dp.carrier, dp.cup, dp.cap):
                failures.append(f"snakes failed for permutation {p.mapping}")
    pair4 = 4
    good = 0
    for cup_code in range(1 << pair4):
        cup = relation_from_code(FiniteSet(1), FiniteSet(4), cup_code)
        for cap_code in range(1 << pair4):
            cap = relation_from_code(FiniteSet(4), FiniteSet(1), cap_code)
            if oracle_snake.snake_equations_hold(FiniteSet(2), cup, cap):
                good += 1
    if good != 2:
        failures.append(f"size 2 admits {good} snake pairs, wanted 2")

    # kernel universality: exhaustive at sizes <= 3
    for a in range(4):
        for b in range(4):
            for r in _all_rels(a, b):
                k = kernel(r)
                members = [pair[1] for pair in k.inclusion.pairs()]
                for x in range(1, 4):
                    for sigma_code in range(1 << (x * k.carrier.size)):
                        bits = np.zeros((a, x), bool)
                        idx = 0
                        for col in range(x):
                            for m in members:
                                if sigma_code >> idx & 1:
                                    bits[m, col] = True
                                idx += 1
                        sigma = Rel(FiniteSet(x), FiniteSet(a), bits)
                        if not is_empty(compose(sigma, r)):
                            failures.append("kernel: sigma not killed")
                            continue
                        lifted = factor_through_kernel(sigma, k)
                        if compose(lifted, k.inclusion) != sigma:
                            failures.append("kernel universality failed")

    # one-sided endo inverses are two-sided: exhaustive at <= 3 (vectorized
    # composites), conditioned samples at 4
    for n in (1, 2, 3):
        rels = _all_rels(n, n)
        stack = np.stack([r.bits for r in rels]).astype(np.int32)
        prod = (stack[None, :, :, :] @ stack[:, None, :, :]) > 0
        eye = np.eye(n, dtype=bool)
        left = np.all(prod == eye, axis=(2, 3))  # left[s, t]: tau o sigma = id
        if not np.array_equal(left, left.T):
            failures.append(f"one-sided inverse not two-sided at size {n}")
    found = 0
    while found < 1000:
        mapping = list(range(4))
        rng.shuffle(mapping)
        sigma_bits = np.zeros((4, 4), bool)
        tau_bits = np.zeros((4, 4), bool)
        for i, j in enumerate(mapping):
            sigma_bits[j, i] = True
            tau_bits[i, j] = True
        for bits in (sigma_bits, tau_bits):
            if rng.random() < 0.5:
                bits[rng.randrange(4), rng.randrange(4)] ^= True
        sigma = Rel(FiniteSet(4), FiniteSet(4), sigma_bits)
        tau = Rel(FiniteSet(4), FiniteSet(4), tau_bits)
        if compose(sigma, tau) == identity(4):
            found += 1
            if compose(tau, sigma) != identity(4):
                failures.append("size-4 one-sided inverse was not two-sided")
    _report(9, "algebraic law suites: exhaustive small sizes, 1000+ samples",
            failures, started)


def test_criterion_10_dsl_round_trip_and_oracle_agreement():
    started = time.perf_counter()
    failures = []
    paths = sorted(glob.glob(os.path.join(SPEC_DIR, "*.rcat")))
    if len(paths) < 20:
        failures.append(f"corpus has only {len(paths)} files")
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        sf = parse(text)
        if parse(format_source(sf)) != sf:
            failures.append(f"round trip failed: {os.path.basename(path)}")
        if run_source(text).exit_code != 0:
            failures.append(f"checks failed: {os.path.basename(path)}")

    inst = single_bit_instance()
    programmatic = {
        "otp_correctness_compact.rcat": check_correctness(inst).holds,
        "otp_correctness_protocol.rcat": (
            check_correctness_protocol_form(inst).holds
        ),
        "otp_key_deleted.rcat": check_security(inst, "S1").holds,
        "otp_random_key.rcat": check_security(inst, "S2").holds,
        "otp_random_message.rcat": check_security(inst, "S3").holds,
        "otp_attacker_keyless.rcat": check_security(inst, "S4").holds,
        "otp_decryption_inverse.rcat": derive_decryption_inverse(inst)[1].holds,
        "otp_encryption_from_inverse.rcat": rebuild_encryption(inst).holds,
        "sharing_recombination.rcat": (
            secret_sharing_from_otp(inst).recombination.holds
        ),
        "dh_exchange.rcat": check_dh(dh_instance(2)).holds,
    }
    for name, expected in programmatic.items():
        with open(os.path.join(SPEC_DIR, name), "r", encoding="utf-8") as handle:
            got = run_source(handle.read()).exit_code == 0
        if got != expected:
            failures.append(f"{name}: file verdict {got}, programmatic {expected}")
    _report(10, "source corpus round-trips; file checks match programmatic",
            failures, started)
