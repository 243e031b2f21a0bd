import tracemalloc
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from oracle_laws import (
    all_permutations,
    all_relations,
    diagonal,
    factor_through_kernel,
    holds,
    is_empty,
    kernel,
    merge,
)
from relcat import relations
from relcat.relations import (
    FiniteSet,
    Permutation,
    Rel,
    ShapeError,
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
    swap,
)


def rels(max_size=4):
    @st.composite
    def build(draw):
        src = FiniteSet(draw(st.integers(0, max_size)))
        dst = FiniteSet(draw(st.integers(0, max_size)))
        bits = draw(
            st.lists(
                st.booleans(),
                min_size=src.size * dst.size,
                max_size=src.size * dst.size,
            )
        )
        return Rel(src, dst, np.array(bits, bool).reshape(dst.size, src.size))

    return build()


class TestFiniteSet:
    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            FiniteSet(-1)

    def test_label_count_must_match(self):
        with pytest.raises(ValueError):
            FiniteSet(2, ("a",))

    def test_labels_must_be_distinct(self):
        with pytest.raises(ValueError):
            FiniteSet(2, ("a", "a"))

    def test_product_set_encodes_left_high(self):
        p = product_set(FiniteSet(2, ("x", "y")), FiniteSet(3, ("a", "b", "c")))
        assert p.size == 6
        assert p.label(1 * 3 + 2) == "(y,c)"

    def test_label_recipe_runs_when_labels_are_first_read(self):
        calls = []

        @dataclass(frozen=True)
        class Recipe:
            def __call__(self):
                calls.append(1)
                return ("a", "b")

        s, t = FiniteSet(2, Recipe()), FiniteSet(2, Recipe())
        assert s == t and hash(s) == hash(t) and {s: 0}[t] == 0
        assert calls == []
        assert s.label(1) == "b" and s.labels == ("a", "b")
        assert calls == [1]

    def test_equal_sets_have_equal_labels(self):
        xy, ab = FiniteSet(2, ("x", "y")), FiniteSet(2, ("a", "b"))
        assert xy != ab and FiniteSet(2) != xy
        assert product_set(xy, ab) == product_set(FiniteSet(2, ("x", "y")), ab)
        assert product_set(xy, ab) != product_set(ab, xy)
        assert product_set(xy, FiniteSet(3)) == FiniteSet(6)
        assert product_set(xy, FiniteSet(3)).labels is None


class TestMake:
    def test_empty(self):
        assert make(2, 2, []).pairs() == []

    def test_identity_pairs(self):
        assert make(2, 2, [(0, 0), (1, 1)]) == identity(2)

    def test_single_bit_encryption_fiber(self):
        e = make(4, 2, [(0, 0), (1, 1), (2, 1), (3, 0)])
        assert e.pairs() == [(0, 0), (1, 1), (2, 1), (3, 0)]

    def test_duplicates_idempotent(self):
        assert make(2, 2, [(0, 1), (0, 1)]) == make(2, 2, [(0, 1)])

    def test_out_of_range_named(self):
        with pytest.raises(ShapeError, match=r"\(2, 0\)"):
            make(2, 2, [(2, 0)])


def _compose_pairs(r: Rel, s: Rel) -> set:
    onward: dict = {}
    for b, c in s.pairs():
        onward.setdefault(b, set()).add(c)
    return {(a, c) for a, b in r.pairs() for c in onward.get(b, ())}


class TestCompose:
    @settings(max_examples=60, deadline=None)
    @given(
        blas=st.booleans(),
        density=st.sampled_from([0.02, 0.3, 0.9]),
        data=st.data(),
    )
    def test_matches_pair_sets_on_both_sides_of_blas_threshold(
        self, blas, density, data
    ):
        limit = relations._BOOL_MATMUL_MAX_WORK
        lo, hi = (17, 24) if blas else (0, 8)
        a, b, c = (data.draw(st.integers(lo, hi)) for _ in range(3))
        assert (a * b * c > limit) == blas
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        r = Rel(a, b, rng.random((b, a)) < density)
        s = Rel(b, c, rng.random((c, b)) < density)
        assert set(compose(r, s).pairs()) == _compose_pairs(r, s)

    @settings(max_examples=100, deadline=None)
    @given(
        b=st.sampled_from([0, 1, 2, 5, 70]),
        c=st.sampled_from([0, 1, 3, 70]),
        density=st.sampled_from([0.0, 0.3, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_reachable_set_matches_boolean_product(self, b, c, density, seed):
        # a one-element source is a reachable set, composed by OR-ing the
        # columns it selects: compare with the integer matrix product,
        # empty states, empty sets and BLAS-sized operands included
        rng = np.random.default_rng(seed)
        r = Rel(1, b, rng.random((b, 1)) < density)
        s = Rel(b, c, rng.random((c, b)) < 0.3)
        got = compose(r, s)
        want = (s.bits.astype(np.int64) @ r.bits.astype(np.int64)) > 0
        assert (got.src.size, got.dst.size) == (1, c)
        assert np.array_equal(got.bits, want)

    def test_identity_neutral(self, builder):
        for _ in range(20):
            a, b = builder.finite_set(1), builder.finite_set(1)
            r = builder.rel(a, b)
            assert compose(identity(a), r) == r
            assert compose(r, identity(b)) == r

    def test_by_definition(self):
        r = make(2, 2, [(0, 1)])
        s = make(2, 2, [(1, 0)])
        assert compose(r, s) == make(2, 2, [(0, 0)])

    def test_zero_absorbing(self, builder):
        r = builder.rel(FiniteSet(3), FiniteSet(2))
        assert compose(r, empty(2, 4)) == empty(3, 4)

    def test_middle_mismatch_reports_sizes(self):
        with pytest.raises(ShapeError, match="3 and 2"):
            compose(full(1, 3), full(2, 1))

    @settings(max_examples=100)
    @given(data=st.data())
    def test_associative(self, data):
        a, b, c, d = (FiniteSet(data.draw(st.integers(0, 4))) for _ in range(4))
        bits = lambda x, y: np.array(
            data.draw(
                st.lists(st.booleans(), min_size=x.size * y.size, max_size=x.size * y.size)
            ),
            bool,
        ).reshape(y.size, x.size)
        r, s, t = Rel(a, b, bits(a, b)), Rel(b, c, bits(b, c)), Rel(c, d, bits(c, d))
        assert compose(compose(r, s), t) == compose(r, compose(s, t))


class TestImmutability:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_caller_mutation_does_not_reach_the_relation(self, data):
        a, b = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
        bits = np.array(
            data.draw(st.lists(st.booleans(), min_size=a * b, max_size=a * b)),
            dtype=bool,
        ).reshape(b, a)
        r = Rel(a, b, bits)
        before = r.pairs()
        bits ^= True
        assert r.pairs() == before
        assert not r.bits.flags.writeable

    def test_unit_factor_reuses_bits(self, builder):
        r = builder.rel(FiniteSet(3), FiniteSet(2))
        for pr in (product(full(1, 1), r), product(r, full(1, 1))):
            assert pr == r and np.shares_memory(pr.bits, r.bits)

    @pytest.mark.parametrize(
        "build",
        [
            lambda n, pairs: identity(n),
            lambda n, pairs: full(n, n),
            lambda n, pairs: empty(n, n),
            lambda n, pairs: make(n, n, pairs),
        ],
        ids=["identity", "full", "empty", "make"],
    )
    def test_a_fresh_relation_is_not_copied(self, build):
        # the builders hand over a read-only array of their own, so no
        # relation briefly takes twice its bits
        n = 3000
        pairs = [(i, i) for i in range(n)]
        tracemalloc.start()
        try:
            r = build(n, pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.bits.size == n * n and not r.bits.flags.writeable
        assert peak <= 1.1 * n * n


class TestConverse:
    def test_identity_symmetric(self):
        assert converse(identity(3)) == identity(3)

    def test_involution(self, builder):
        for _ in range(50):
            r = builder.rel(builder.finite_set(), builder.finite_set())
            assert converse(converse(r)) == r

    def test_key_verification_cap(self):
        cup = make(1, 4, [(0, 0), (0, 3)])
        cap = converse(cup)
        assert cap.pairs() == [(0, 0), (3, 0)]

    def test_contravariant(self, builder):
        for _ in range(100):
            a, b, c = (builder.finite_set() for _ in range(3))
            r, s = builder.rel(a, b), builder.rel(b, c)
            assert converse(compose(r, s)) == compose(converse(s), converse(r))


class TestProduct:
    def test_identities(self):
        assert product(identity(2), identity(3)) == identity(6)

    def test_empty_absorbing(self, builder):
        r = builder.rel(FiniteSet(2), FiniteSet(2))
        assert product(empty(2, 2), r) == empty(4, 4)

    def test_full_row_vectors(self):
        assert product(full(1, 2), full(1, 2)) == full(1, 4)

    def test_pairs_by_definition(self, builder):
        for _ in range(30):
            a, b, c, d = (builder.finite_set(1, 3) for _ in range(4))
            r, s = builder.rel(a, b), builder.rel(c, d)
            pr = product(r, s)
            for x in a:
                for y in c:
                    for u in b:
                        for v in d:
                            expected = holds(r, x, u) and holds(s, y, v)
                            got = holds(pr, x * c.size + y, u * d.size + v)
                            assert got == expected


@st.composite
def kronecker_trees(draw, depth: int):
    """A relation built by nested `product` calls, with its dense form
    built by np.kron.  Each of its at most 2**depth leaves is 1..4 -> 2..4,
    a unit (1 -> 1, full) or has an empty side."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        kind = draw(st.sampled_from(["plain"] * 4 + ["unit", "empty"]))
        if kind == "unit":
            return full(1, 1), np.ones((1, 1), dtype=bool)
        a, b = draw(st.integers(1, 4)), draw(st.integers(2, 4))
        if kind == "empty":
            a, b = draw(st.sampled_from([(0, b), (a, 0)]))
        bits = np.array(
            draw(st.lists(st.booleans(), min_size=a * b, max_size=a * b)), bool
        ).reshape(b, a)
        return Rel(a, b, bits), bits
    (r, x), (s, y) = draw(kronecker_trees(depth - 1)), draw(kronecker_trees(depth - 1))
    return product(r, s), np.kron(x, y).astype(bool)


class TestFactoredProduct:
    @settings(max_examples=300, deadline=None)
    @given(
        m=st.sampled_from([0, 1, 1, 2, 2, 5]),
        limit=st.sampled_from([0, 0, relations._BOOL_MATMUL_MAX_WORK]),
        built=st.booleans(),
        data=st.data(),
    )
    def test_compose_equals_dense_boolean_product(self, m, limit, built, data):
        # with limit 0 every nonempty product is factored; at the default
        # one only products of more than that many cells are
        with mock.patch.object(relations, "_BOOL_MATMUL_MAX_WORK", limit):
            (x, want_x), (y, want_y) = (data.draw(kronecker_trees(1)) for _ in "xy")
            s, want_s = product(x, y), np.kron(want_x, want_y).astype(bool)
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            r = Rel(m, s.src.size, rng.random((s.src.size, m)) < 0.4)
            factored = type(s) is relations._FactoredRel
            contracts = (
                factored
                and m > 0
                and relations._contraction_work(s.factors, m)
                < s.src.size * s.dst.size * m
            )
            event(f"factored={factored} contracts={contracts} m={m}")
            if built:
                s.bits
            got = compose(r, s)
            if factored:
                stays_unbuilt = not built and (m == 0 or contracts)
                assert (s.dense is None) == stays_unbuilt
        want = (want_s.astype(np.int64) @ r.bits.astype(np.int64)) > 0
        assert (got.src.size, got.dst.size) == (m, s.dst.size)
        assert np.array_equal(got.bits, want)
        dense = Rel(s.src, s.dst, want_s)
        assert s == dense and dense == s and hash(s) == hash(dense)

    def test_large_product_is_factored_and_built_once(self):
        leaf = Rel(4, 3, np.arange(12).reshape(3, 4) % 3 == 0)
        s = product(product(leaf, leaf), product(leaf, leaf))
        assert type(s) is relations._FactoredRel
        assert [f.shape for f in s.factors] == [(9, 16), (9, 16)]
        state = Rel(1, 256, np.arange(256).reshape(256, 1) % 7 == 0)
        assert compose(state, s).bits.shape == (81, 1)
        assert s.dense is None  # a state is contracted axis by axis
        wide = Rel(256, 256, np.eye(256, dtype=bool))
        got = compose(wide, s)  # 0.9 M multiply-adds against 5.3 M dense
        assert s.dense is None
        assert got == s  # reading the product whole builds it
        assert s.dense is not None
        unit = full(1, 1)
        for copy in (product(unit, s), product(s, unit)):
            assert copy.bits is s.bits

    @pytest.mark.parametrize("limit", [1, 7, 64])
    def test_contraction_in_chunks_equals_dense_product(self, limit):
        # states of at most `limit` entries: under one column at 1, a few
        # columns at 7 and 64, so the chunks split the columns unevenly
        rng = np.random.default_rng(limit)
        x, y, z = (
            Rel(a, b, rng.random((b, a)) < 0.5) for a, b in [(3, 2), (2, 4), (3, 3)]
        )
        want_s = np.kron(np.kron(x.bits, y.bits), z.bits).astype(bool)
        with mock.patch.multiple(
            relations, _BOOL_MATMUL_MAX_WORK=0, _CONTRACT_MAX_STATE=limit
        ):
            s = product(product(x, y), z)
            r = Rel(9, s.src.size, rng.random((s.src.size, 9)) < 0.4)
            contracted = compose(r, s)
            assert s.dense is None
            dense = compose(r, Rel(s.src, s.dst, want_s))
        want = (want_s.astype(np.int64) @ r.bits.astype(np.int64)) > 0
        assert np.array_equal(contracted.bits, want)
        assert np.array_equal(dense.bits, want)

    def test_contraction_state_stays_under_the_limit(self):
        # three 8x8 factors on 64 columns: a whole float32 state is 128 KiB,
        # a chunk of at most 512 entries 2 KiB, and the result 32 KiB
        rng = np.random.default_rng(5)
        factors = tuple(rng.random((8, 8)) < 0.5 for _ in range(3))
        state = rng.random((512, 64)) < 0.3
        with mock.patch.object(relations, "_CONTRACT_MAX_STATE", 512):
            tracemalloc.start()
            try:
                relations._contract(factors, state)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 64 * 1024

    def test_empty_source_reads_nothing(self):
        s = product(identity(70), identity(70))
        assert type(s) is relations._FactoredRel
        got = compose(empty(0, s.src.size), s)
        assert (got.src.size, got.dst.size) == (0, 4900)
        assert s.dense is None


FACTOR_KINDS = ("dense", "permutation", "partial", "identity", "empty")


@st.composite
def contraction_parts(draw):
    """A dense relation of each kind `_contract` meets: any bits, a
    permutation, a partial function (each target reads at most one
    source), the identity, and the empty relation."""
    kind = draw(st.sampled_from(FACTOR_KINDS))
    n_src = draw(st.integers(1, 4))
    n_dst = n_src if kind in ("permutation", "identity") else draw(st.integers(1, 4))
    if kind == "dense":
        flat = draw(st.lists(st.booleans(), min_size=n_src * n_dst, max_size=n_src * n_dst))
        bits = np.array(flat, dtype=bool).reshape(n_dst, n_src)
    else:
        bits = np.zeros((n_dst, n_src), dtype=bool)
        if kind == "permutation":
            bits[np.arange(n_dst), draw(st.permutations(range(n_src)))] = True
        elif kind == "identity":
            bits[np.arange(n_dst), np.arange(n_src)] = True
        elif kind == "partial":
            for b in range(n_dst):
                a = draw(st.integers(-1, n_src - 1))
                if a >= 0:
                    bits[b, a] = True
    return kind, Rel(n_src, n_dst, bits)


class TestContract:
    """`relations._contract`, with row gathers and without, against the
    materialised Kronecker product."""

    @settings(max_examples=300, deadline=None)
    @given(
        drawn=st.lists(contraction_parts(), min_size=1, max_size=3),
        m=st.integers(1, 6),
        limit=st.sampled_from([1, 3, 16, relations._CONTRACT_MAX_STATE]),
        data=st.data(),
    )
    def test_equals_the_materialised_product(self, drawn, m, limit, data):
        kinds, parts = zip(*drawn)
        factors = tuple(part.bits for part in parts)
        gathers = [relations._gather(part) for part in parts]
        for part, gather in zip(parts, gathers):
            # a gather exactly when each target reads at most one source
            assert (gather is None) == bool((part.bits.sum(axis=1) > 1).any())
        n = int(np.prod([f.shape[1] for f in factors]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        bits = rng.random((n, m)) < data.draw(st.sampled_from([0.0, 0.3, 1.0]))
        want = relations._materialise(factors).astype(np.int64) @ bits.astype(np.int64) > 0
        # small limits take the columns in chunks of one or a few
        with mock.patch.object(relations, "_CONTRACT_MAX_STATE", limit):
            gathered = relations._contract(factors, bits, gathers)
            multiplied = relations._contract(factors, bits)
        event(f"kinds={sorted(set(kinds))} chunked={limit * len(factors) < n * m}")
        assert np.array_equal(gathered, want)
        assert np.array_equal(multiplied, want)

    def test_a_gather_is_decided_once_per_relation(self):
        rng = np.random.default_rng(3)
        perm = Rel(70, 70, np.eye(70, dtype=bool)[rng.permutation(70)])
        mixed = Rel(70, 70, rng.random((70, 70)) < 0.3)
        states = [Rel(m, 4900, rng.random((4900, m)) < 0.2) for m in (1, 2, 3)]
        with mock.patch.object(np, "count_nonzero", wraps=np.count_nonzero) as scans:
            compose(states[0], product(perm, mixed))
            first = scans.call_count
            for a, b in ((perm, mixed), (mixed, perm), (perm, perm)):
                s = product(a, b)
                assert type(s) is relations._FactoredRel
                dense = np.kron(a.bits, b.bits).astype(np.int64)
                for state in states:
                    got = compose(state, s)
                    assert s.dense is None
                    assert np.array_equal(got.bits, dense @ state.bits > 0)
        # both relations were read on the first contraction, and never again
        assert first > 0 and scans.call_count == first
        assert perm.gather is not None and mixed.gather is None

    def test_compose_hands_each_gather_to_the_contraction(self):
        rng = np.random.default_rng(4)
        perm = Rel(80, 80, np.eye(80, dtype=bool)[::-1])
        mixed = Rel(80, 80, rng.random((80, 80)) < 0.3)
        state = Rel(4, 6400, rng.random((6400, 4)) < 0.2)
        wide = Rel(80, 80, rng.random((80, 80)) < 0.3)
        with mock.patch.object(relations, "_contract", wraps=relations._contract) as contract:
            got = compose(state, product(perm, mixed))
            _, _, (first, second) = contract.call_args.args
            # a dense relation large enough for BLAS is gathered too
            dense = compose(wide, perm)
            _, _, (only,) = contract.call_args.args
        assert first is perm.gather and second is None is mixed.gather
        assert np.array_equal(first[0], np.arange(80)[::-1]) and first[1] is None
        assert only is perm.gather
        want = np.kron(perm.bits, mixed.bits).astype(np.int64) @ state.bits > 0
        assert np.array_equal(got.bits, want)
        assert np.array_equal(dense.bits, wide.bits[::-1])


class TestKron:
    """`relations._kron`, the one Kronecker kernel, against `product`."""

    @settings(max_examples=300, deadline=None)
    @given(
        limit=st.sampled_from([0, 64, relations._BOOL_MATMUL_MAX_WORK]),
        data=st.data(),
    )
    def test_equals_product_in_bits_and_route(self, limit, data):
        # operands dense, factored (under a low limit), unit or empty
        with mock.patch.object(relations, "_BOOL_MATMUL_MAX_WORK", limit):
            (r, want_r), (s, want_s) = (data.draw(kronecker_trees(1)) for _ in "rs")
            src = FiniteSet(r.src.size * s.src.size)
            dst = FiniteSet(r.dst.size * s.dst.size)
            got, want = relations._kron(r, s, src, dst), product(r, s)
        factored = type(got) is relations._FactoredRel
        event(f"factored={factored} r={type(r).__name__} s={type(s).__name__}")
        assert factored == (type(want) is relations._FactoredRel)
        # beside a unit, the result is the other operand itself
        other = next(
            (other for one, other in ((r, s), (s, r)) if relations._is_unit(one)),
            None,
        )
        if other is None:
            assert got.src is src and got.dst is dst
            assert factored == (src.size * dst.size > limit)
            if factored:
                assert got.factors == relations._factors(r) + relations._factors(s)
        else:
            assert got is other and want is other
        assert np.array_equal(got.bits, want.bits)
        assert np.array_equal(got.bits, np.kron(want_r, want_s).astype(bool))

    @pytest.mark.parametrize("a, b, factored", [(8, 8, False), (64, 2, True)])
    def test_factored_above_the_dense_limit(self, a, b, factored):
        # 64 x 64 is exactly the limit of 4096 cells; 128 x 128 is above it
        assert relations._BOOL_MATMUL_MAX_WORK == 4096
        got = relations._kron(identity(a), identity(b), FiniteSet(a * b), FiniteSet(a * b))
        assert (type(got) is relations._FactoredRel) == factored
        assert got == identity(a * b)


class TestKernel:
    def test_empty_relation_keeps_everything(self):
        k = kernel(empty(3, 2))
        assert k.carrier.size == 3
        assert k.inclusion == identity(3)

    def test_total_relation_has_empty_kernel(self):
        assert kernel(full(3, 2)).carrier.size == 0

    def test_row_scan(self):
        k = kernel(make(3, 2, [(0, 0), (2, 1)]))
        assert k.carrier.size == 1
        assert k.inclusion.pairs() == [(0, 1)]

    def test_inclusion_injective_function(self, builder):
        for _ in range(50):
            r = builder.rel(builder.finite_set(), builder.finite_set())
            props = predicates(kernel(r).inclusion)
            assert props.is_function and props.is_injective and props.is_total

    def test_composition_after_inclusion_is_empty(self, builder):
        for _ in range(50):
            r = builder.rel(builder.finite_set(), builder.finite_set())
            k = kernel(r)
            assert is_empty(compose(k.inclusion, r))

    def test_universal_property(self, builder):
        # any relation that the analyzed one kills factors through the kernel
        for _ in range(100):
            a, b, x = (builder.finite_set() for _ in range(3))
            r = builder.rel(a, b)
            k = kernel(r)
            members = [pair[1] for pair in k.inclusion.pairs()]
            sigma_bits = np.zeros((a.size, x.size), bool)
            for col in range(x.size):
                for m in members:
                    if builder.rng.random() < 0.5:
                        sigma_bits[m, col] = True
            sigma = Rel(x, a, sigma_bits)
            assert is_empty(compose(sigma, r))
            lifted = factor_through_kernel(sigma, k)
            assert compose(lifted, k.inclusion) == sigma


class TestPredicates:
    def test_identity_all_true(self):
        props = predicates(identity(3))
        assert all(
            (
                props.is_function,
                props.is_total,
                props.is_injective,
                props.is_surjective,
                props.is_bijection,
            )
        )

    def test_empty_function_but_not_total(self):
        props = predicates(empty(2, 2))
        assert props.is_function and not props.is_total

    def test_bit_flip_is_bijection(self):
        assert predicates(make(2, 2, [(0, 1), (1, 0)])).is_bijection


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation(FiniteSet(2), (0, 0))

    def test_all_in_lexicographic_order(self):
        mappings = [p.mapping for p in all_permutations(3)]
        assert mappings == sorted(mappings)
        assert len(mappings) == 6


class TestCodes:
    def test_round_trip(self, builder):
        for _ in range(50):
            r = builder.rel(builder.finite_set(), builder.finite_set())
            assert relation_from_code(r.src, r.dst, relation_code(r)) == r

    def test_all_relations_ascending(self):
        codes = [relation_code(r) for r in all_relations(2, 1)]
        assert codes == [0, 1, 2, 3]


class TestStructuralHelpers:
    def test_diagonal_then_merge_is_identity(self):
        for n in range(1, 5):
            assert compose(diagonal(n), merge(n)) == identity(n)

    def test_swap_involution(self):
        s = swap(2, 3)
        assert compose(s, swap(3, 2)) == identity(6)
