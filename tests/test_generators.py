import math
import time

import numpy as np
import pytest

import oracle_controlled
import oracle_snake
from oracle_laws import (
    all_permutations,
    all_relations,
    diagonal,
    frobenius_check,
    is_empty,
    kernel,
    merge,
)
from relcat import generators, relations
from relcat.cells import (
    TwoCell,
    equal,
    hcompose_one,
    identity_two_cell,
    scalar_one_cell,
    scalar_two_cell,
    vcompose,
)
from relcat.generators import (
    ControlledOp,
    DualityPair,
    canonical_cup,
    classify_cups,
    controlled,
    controlled_at_left_boundary,
    controlled_scalar,
    controlled_scalar_mirror,
    create,
    cup_from_permutation,
    delete,
    region_structure,
    scalar_compare,
    scalar_copy,
    snake_equations_hold,
    swap_cell,
)
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
    product,
    product_set,
    relation_code,
)


class TestDualityPairs:
    def test_canonical_cup_is_diagonal(self):
        dp = canonical_cup(2)
        assert dp.cup.pairs() == [(0, 0), (0, 3)]

    def test_size_one(self):
        dp = canonical_cup(1)
        assert dp.cup == full(1, 1)

    def test_snakes_hold_for_sizes_one_to_six(self):
        for n in range(1, 7):
            canonical_cup(n)  # validation happens at construction

    def test_swap_cup_row(self):
        dp = cup_from_permutation(Permutation(FiniteSet(2), (1, 0)))
        assert dp.cup.pairs() == [(0, 1), (0, 2)]

    def test_identity_permutation_gives_canonical(self):
        assert cup_from_permutation(Permutation.identity(3)).cup == canonical_cup(3).cup

    def test_three_cycle_cap_uses_inverse(self):
        # the snake-completing counit of a non-involutive cup is the graph
        # of the inverse permutation, not the relational converse
        pi = Permutation(FiniteSet(3), (1, 2, 0))
        dp = cup_from_permutation(pi)
        assert snake_equations_hold(dp.carrier, dp.cup, dp.cap)
        wrong_cap = converse(dp.cup)
        assert not snake_equations_hold(dp.carrier, dp.cup, wrong_cap)

    def test_invalid_pair_rejected(self):
        with pytest.raises(ValueError):
            DualityPair(FiniteSet(2), full(1, 4), full(4, 1))


class TestClassification:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_counts_are_factorials(self, n):
        # exactly the permutations, in increasing cup bit-code order
        cups = classify_cups(n)
        assert len(cups) == math.factorial(n)
        assert cups == sorted(
            all_permutations(n),
            key=lambda p: relation_code(cup_from_permutation(p).cup),
        )

    def test_size_four_is_fast(self):
        started = time.perf_counter()
        classify_cups(4)
        assert time.perf_counter() - started < 1.0

    def test_matrix_form_builds_no_relations(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the snake law is decided by matrix products")

        for module in (relations, generators):
            for name in ("compose", "product"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        dp = canonical_cup(3)
        assert snake_equations_hold(dp.carrier, dp.cup, dp.cap)
        assert len(classify_cups(3)) == 6

    def test_every_cup_admits_unique_cap_at_small_sizes(self):
        # full double brute force at size 2 through the string-diagram
        # oracle: of 2^4 cups x 2^4 caps, only the permutation cups
        # survive, each with exactly one cap
        n = 2
        pair = product_set(FiniteSet(n), FiniteSet(n))
        survivors = {}
        for cup in all_relations(1, pair.size):
            cup = Rel(FiniteSet(1), pair, cup.bits)
            for cap in all_relations(pair.size, 1):
                cap = Rel(pair, FiniteSet(1), cap.bits)
                if oracle_snake.snake_equations_hold(FiniteSet(n), cup, cap):
                    survivors.setdefault(cup, []).append(cap)
        assert len(survivors) == 2
        assert all(len(caps) == 1 for caps in survivors.values())

    def test_size_cap_enforced(self):
        with pytest.raises(ValueError):
            classify_cups(5)


class TestSnakeOracle:
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_agrees_on_every_pair(self, n):
        s = FiniteSet(n)
        pair = product_set(s, s)
        caps = list(all_relations(pair, 1))
        for cup in all_relations(1, pair):
            for cap in caps:
                assert snake_equations_hold(
                    s, cup, cap
                ) == oracle_snake.snake_equations_hold(s, cup, cap)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_agrees_on_every_permutation_pair(self, n):
        s = FiniteSet(n)
        pads = [cup_from_permutation(p) for p in all_permutations(n)]
        for i, with_cup in enumerate(pads):
            for j, with_cap in enumerate(pads):
                got = snake_equations_hold(s, with_cup.cup, with_cap.cap)
                assert got == (i == j)
                assert got == oracle_snake.snake_equations_hold(
                    s, with_cup.cup, with_cap.cap
                )

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_agrees_on_random_pairs(self, n):
        # random relations almost never satisfy the snakes, so half of the
        # caps are the transpose of a random permutation cup, some of them
        # with one bit flipped
        rng = np.random.default_rng(n)
        s = FiniteSet(n)
        pair = product_set(s, s)
        held = 0
        for _ in range(200):
            if rng.random() < 0.5:
                cup_bits = rng.random((n, n)) < 0.3
                cap_bits = rng.random((n, n)) < 0.3
            else:
                cup_bits = np.eye(n, dtype=bool)[rng.permutation(n)]
                cap_bits = cup_bits.T.copy()
                if rng.random() < 0.5:
                    cap_bits[tuple(rng.integers(n, size=2))] ^= True
            cup = Rel(FiniteSet(1), pair, cup_bits.reshape(n * n, 1))
            cap = Rel(pair, FiniteSet(1), cap_bits.reshape(1, n * n))
            got = snake_equations_hold(s, cup, cap)
            assert got == oracle_snake.snake_equations_hold(s, cup, cap)
            held += got
        assert 0 < held < 200

    @pytest.mark.parametrize(
        "cup, cap",
        [
            (full(2, 4), full(4, 1)),
            (full(1, 4), full(4, 2)),
            (full(1, 9), full(9, 1)),
            (full(1, 4), full(3, 1)),
        ],
    )
    def test_agrees_on_wrong_shapes(self, cup, cap):
        s = FiniteSet(2)
        assert snake_equations_hold(s, cup, cap) is False
        assert oracle_snake.snake_equations_hold(s, cup, cap) is False


class TestDeleteCreate:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_delete_has_zero_kernel(self, n):
        assert kernel(delete(n)).carrier.size == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_delete_unique_by_brute_force(self, n):
        with_zero_kernel = [
            r for r in all_relations(n, 1) if kernel(r).carrier.size == 0
        ]
        assert with_zero_kernel == [delete(n)]

    def test_create_is_converse(self):
        assert create(3) == converse(delete(3))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cup_bent_by_delete_is_create(self, n):
        for perm in all_permutations(n):
            dp = cup_from_permutation(perm)
            left = compose(dp.cup, product(delete(n), identity(n)))
            right = compose(dp.cup, product(identity(n), delete(n)))
            assert left == create(n)
            assert right == create(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_created_value_can_match_any(self, n):
        for perm in all_permutations(n):
            dp = cup_from_permutation(perm)
            left = compose(product(identity(n), create(n)), dp.cap)
            right = compose(product(create(n), identity(n)), dp.cap)
            assert left == delete(n)
            assert right == delete(n)


class TestRegionStructure:
    @pytest.mark.parametrize("n", range(9))
    def test_frobenius_axioms(self, n):
        report = frobenius_check(region_structure(n))
        assert report.passed, report.failures()

    def test_frobenius_axioms_at_sixteen(self):
        report = frobenius_check(region_structure(16))
        assert report.passed, report.failures()

    def test_unit_region_generators_trivial(self):
        rs = region_structure(1)
        assert rs.copy.component(0, 0) == identity(1)
        assert rs.delete_region.component(0, 0) == full(1, 1)

    def test_boundary_composite_is_the_carrier(self):
        rs = region_structure(3)
        bubble = hcompose_one(rs.boundary_left, rs.boundary_right)
        assert bubble.fiber(0, 0).size == 3

    def test_scalar_shadows_match_direct_relations(self):
        for n in range(1, 5):
            rs = region_structure(n)
            assert scalar_copy(rs).scalar() == diagonal(n)
            assert scalar_compare(rs).scalar() == merge(n)
            assert rs.delete_region.scalar() == delete(n)
            assert rs.create_region.scalar() == create(n)

    def test_broken_compare_located(self):
        rs = region_structure(2)
        broken = type(rs)(
            rs.carrier,
            rs.boundary_left,
            rs.boundary_right,
            rs.copy,
            TwoCell(
                rs.compare.domain,
                rs.compare.codomain,
                tuple(
                    tuple(
                        empty(
                            rs.compare.domain.fiber(t, s),
                            rs.compare.codomain.fiber(t, s),
                        )
                        for s in range(2)
                    )
                    for t in range(2)
                ),
            ),
            rs.delete_region,
            rs.create_region,
            rs.publish,
            rs.sample,
        )
        report = frobenius_check(broken)
        assert not report.passed
        assert "compare_create_left" in report.failures()
        assert report.axioms["copy_delete_left"].holds

    def test_weakened_copy_breaks_units_not_symmetry(self):
        # dropping one diagonal bit of copy: the zig-zags fail but the
        # symmetry of what remains is intact
        rs = region_structure(2)
        comps = [list(row) for row in rs.copy.components]
        broken_bit = comps[1][1]
        comps[1][1] = empty(broken_bit.src, broken_bit.dst)
        weak = type(rs)(
            rs.carrier,
            rs.boundary_left,
            rs.boundary_right,
            TwoCell(rs.copy.domain, rs.copy.codomain, tuple(map(tuple, comps))),
            rs.compare,
            rs.delete_region,
            rs.create_region,
            rs.publish,
            rs.sample,
        )
        report = frobenius_check(weak)
        assert not report.axioms["copy_delete_left"].holds
        assert report.axioms["copy_symmetric"].holds
        assert report.axioms["compare_symmetric"].holds

    def test_twisted_scalar_copy_keeps_symmetry_loses_units(self):
        # at the scalar level, a bijection in front of the duplication
        # keeps it symmetric but breaks the unit law
        n = 2
        twist = make(n, n, [(0, 1), (1, 0)])
        twisted = compose(twist, diagonal(n))
        sw = make(
            product_set(FiniteSet(n), FiniteSet(n)),
            product_set(FiniteSet(n), FiniteSet(n)),
            [(a * n + b, b * n + a) for a in range(n) for b in range(n)],
        )
        assert compose(twisted, sw) == twisted  # symmetry survives
        assert compose(twisted, product(delete(n), identity(n))) != identity(n)


class TestControlled:
    def test_identity_family(self):
        op = ControlledOp(FiniteSet(2), FiniteSet(3), FiniteSet(3), (identity(3),) * 2)
        cell = controlled(op)
        for v in range(2):
            assert cell.component(v, v) == identity(3)
        assert is_empty(cell.component(0, 1))
        assert equal(cell, oracle_controlled.copy_rewrite(op))

    def test_family_length_mismatch(self):
        with pytest.raises(Exception):
            ControlledOp(FiniteSet(2), FiniteSet(2), FiniteSet(2), (identity(2),))

    def test_bit_flip_decryption(self):
        op = ControlledOp(
            FiniteSet(2),
            FiniteSet(2),
            FiniteSet(2),
            (identity(2), make(2, 2, [(0, 1), (1, 0)])),
        )
        cell = controlled_scalar(op)
        assert cell.scalar().pairs() == [(0, 0), (1, 1), (2, 3), (3, 2)]

    def test_exponentiation_family(self):
        q = 5
        fam = tuple(
            make(q, q, [(x, (a * x) % q) for x in range(q)]) for a in range(q)
        )
        op = ControlledOp(FiniteSet(q), FiniteSet(q), FiniteSet(q), fam)
        assert equal(controlled(op), oracle_controlled.copy_rewrite(op))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_copy_rewrite_equals_original_for_random_ops(self, n, builder):
        for _ in range(25):
            fam = tuple(
                builder.rel(FiniteSet(2), FiniteSet(2)) for _ in range(n)
            )
            op = ControlledOp(FiniteSet(n), FiniteSet(2), FiniteSet(2), fam)
            assert equal(controlled(op), oracle_controlled.copy_rewrite(op))

    def test_oracle_tells_the_family_members_apart(self):
        flip = make(2, 2, [(0, 1), (1, 0)])
        op = ControlledOp(FiniteSet(2), FiniteSet(2), FiniteSet(2), (identity(2), flip))
        swapped = ControlledOp(
            FiniteSet(2), FiniteSet(2), FiniteSet(2), (flip, identity(2))
        )
        assert not equal(controlled(swapped), oracle_controlled.copy_rewrite(op))

    def test_mirror_scalar_form(self):
        op = ControlledOp(
            FiniteSet(2),
            FiniteSet(2),
            FiniteSet(2),
            (identity(2), make(2, 2, [(0, 1), (1, 0)])),
        )
        mirrored = controlled_scalar_mirror(op)
        # wire is the high digit: (x, v) -> (family[v](x), v)
        assert mirrored.scalar().pairs() == [(0, 0), (1, 3), (2, 2), (3, 1)]


class TestSwapCell:
    def test_swap_involution(self):
        ab = swap_cell(2, 3)
        ba = swap_cell(3, 2)
        assert equal(
            vcompose(ab, ba), identity_two_cell(scalar_one_cell(6))
        )
