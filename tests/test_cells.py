import numpy as np
import pytest

from oracle_laws import converse_two_cell
from relcat import cells, protocols, relations
from relcat.cells import (
    OneCell,
    TwoCell,
    equal,
    hcompose_one,
    hcompose_two,
    identity_one_cell,
    identity_two_cell,
    scalar_one_cell,
    scalar_two_cell,
    tensor,
    tensor_one,
    vcompose,
)
from relcat.generators import canonical_cup, cup_cell, region_structure
from relcat.relations import (
    FiniteSet,
    Rel,
    ShapeError,
    compose,
    identity,
    make,
    predicates,
    product,
)


def test_identity_one_cell_fibers():
    assert identity_one_cell(1).fiber_sizes() == ((1,),)
    assert identity_one_cell(2).fiber_sizes() == ((1, 0), (0, 1))
    assert identity_one_cell(0).fiber_sizes() == ()


def test_one_cell_shape_validation():
    with pytest.raises(ShapeError):
        OneCell(FiniteSet(2), FiniteSet(1), ((FiniteSet(1),),))


def test_two_cell_component_shape_validation():
    dom = scalar_one_cell(2)
    cod = scalar_one_cell(3)
    with pytest.raises(ShapeError):
        TwoCell(dom, cod, ((identity(2),),))


class TestHComposeOne:
    def test_identity_preserves_cell(self, builder):
        for _ in range(30):
            s, t = builder.finite_set(1), builder.finite_set(1)
            a = builder.one_cell(s, t)
            assert hcompose_one(a, identity_one_cell(t)).fiber_sizes() == a.fiber_sizes()
            assert hcompose_one(identity_one_cell(s), a).fiber_sizes() == a.fiber_sizes()

    def test_scalar_sizes_multiply(self):
        a, b = scalar_one_cell(2), scalar_one_cell(3)
        assert hcompose_one(a, b).fiber(0, 0).size == 6

    def test_coproduct_formula(self):
        # one middle 0-cell of size 2; fibers (1,2) against (3,1)
        s = FiniteSet(1)
        t = FiniteSet(2)
        a = OneCell(s, t, ((FiniteSet(1),), (FiniteSet(2),)))
        b = OneCell(t, s, ((FiniteSet(3), FiniteSet(1)),))
        assert hcompose_one(a, b).fiber(0, 0).size == 3 * 1 + 1 * 2

    def test_sizes_sum_of_products(self, builder):
        for _ in range(30):
            s, t, u = (builder.finite_set(1) for _ in range(3))
            a, b = builder.one_cell(s, t), builder.one_cell(t, u)
            out = hcompose_one(a, b)
            for uu in range(u.size):
                for ss in range(s.size):
                    expected = sum(
                        b.fiber(uu, tt).size * a.fiber(tt, ss).size
                        for tt in range(t.size)
                    )
                    assert out.fiber(uu, ss).size == expected

    def test_fibers_are_made_when_first_read(self):
        s, t = FiniteSet(1), FiniteSet(2)
        a = OneCell(s, t, ((FiniteSet(1),), (FiniteSet(2),)))
        b = OneCell(t, t, ((FiniteSet(3), FiniteSet(1)), (FiniteSet(0), FiniteSet(2))))
        out = hcompose_one(a, b)
        assert out.sizes.tolist() == [[5], [4]]
        assert not out._fibers  # a composite is made from its sizes alone
        first = out.fiber(1, 0)
        assert out.fiber(1, 0) is first and list(out._fibers) == [(1, 0)]
        assert first.size == len(out.paths(1, 0)) == 4

    def test_middle_mismatch(self):
        with pytest.raises(ShapeError):
            hcompose_one(scalar_one_cell(1), identity_one_cell(2))

    def test_two_cells_with_mismatched_middles(self):
        alpha = identity_two_cell(scalar_one_cell(1))
        beta = identity_two_cell(identity_one_cell(2))
        with pytest.raises(ShapeError) as info:
            hcompose_two(alpha, beta)
        assert str(info.value) == (
            "horizontal composition: middle 0-cells have sizes 1 and 2"
        )

    def test_empty_middle_zero_cell(self):
        zero = FiniteSet(0)
        a = OneCell(FiniteSet(1), zero, ())
        b = OneCell(zero, FiniteSet(1), ((),))
        out = hcompose_one(a, b)
        assert out.fiber(0, 0).size == 0


def test_scalar_hcompose_is_relation_product(builder):
    # on trivial 0-cells, placing side by side multiplies the relations,
    # with the later (left) factor as the high digit
    for _ in range(30):
        r = builder.rel(builder.finite_set(), builder.finite_set())
        s = builder.rel(builder.finite_set(), builder.finite_set())
        out = hcompose_two(scalar_two_cell(r), scalar_two_cell(s))
        assert out.component(0, 0) == product(s, r)


class TestStrictLaws:
    def test_associativity_on_encodings(self, builder):
        for _ in range(200):
            s, t, u, v = (builder.finite_set(1) for _ in range(4))
            a = builder.two_cell(s, t)
            b = builder.two_cell(t, u)
            c = builder.two_cell(u, v)
            lhs = hcompose_two(hcompose_two(a, b), c)
            rhs = hcompose_two(a, hcompose_two(b, c))
            assert equal(lhs, rhs)
            assert lhs.domain.fiber_sizes() == rhs.domain.fiber_sizes()

    def test_unit_laws_on_encodings(self, builder):
        for _ in range(100):
            s, t = builder.finite_set(1), builder.finite_set(1)
            a = builder.two_cell(s, t)
            assert equal(hcompose_two(identity_two_cell(identity_one_cell(s)), a), a)
            assert equal(hcompose_two(a, identity_two_cell(identity_one_cell(t))), a)

    def test_interchange(self, builder):
        for _ in range(150):
            s, t, u = (builder.finite_set(1, 2) for _ in range(3))
            a = builder.two_cell(s, t)
            a2 = builder.two_cell_from(a.codomain)
            b = builder.two_cell(t, u)
            b2 = builder.two_cell_from(b.codomain)
            lhs = vcompose(hcompose_two(a, b), hcompose_two(a2, b2))
            rhs = hcompose_two(vcompose(a, a2), vcompose(b, b2))
            assert equal(lhs, rhs)

    def test_hcompose_of_identities_is_identity(self, builder):
        for _ in range(30):
            s, t, u = (builder.finite_set(1) for _ in range(3))
            a, b = builder.one_cell(s, t), builder.one_cell(t, u)
            assert equal(
                hcompose_two(identity_two_cell(a), identity_two_cell(b)),
                identity_two_cell(hcompose_one(a, b)),
            )


class TestVCompose:
    def test_identity_neutral(self, builder):
        a = builder.two_cell(FiniteSet(2), FiniteSet(2))
        assert equal(vcompose(a, identity_two_cell(a.codomain)), a)

    def test_bijection_with_converse_is_identity(self):
        flip = make(2, 2, [(0, 1), (1, 0)])
        cell = scalar_two_cell(flip)
        assert equal(
            vcompose(cell, converse_two_cell(cell)),
            identity_two_cell(cell.domain),
        )

    def test_componentwise_against_relations(self, builder):
        for _ in range(50):
            s, t = builder.finite_set(1), builder.finite_set(1)
            a = builder.two_cell(s, t)
            b = builder.two_cell_from(a.codomain)
            out = vcompose(a, b)
            for tt in range(t.size):
                for ss in range(s.size):
                    assert out.component(tt, ss) == compose(
                        a.component(tt, ss), b.component(tt, ss)
                    )

    def test_mismatch_raises(self, builder):
        a = builder.two_cell(FiniteSet(1), FiniteSet(1))
        b = builder.two_cell(FiniteSet(2), FiniteSet(2))
        with pytest.raises(ShapeError):
            vcompose(a, b)

    def test_a_component_with_an_empty_fiber_composes_nothing(self, monkeypatch):
        # copy then compare on a region: every fiber off the diagonal is empty
        rs, composed = region_structure(FiniteSet(4)), []

        def counted(r, s, _compose=compose):
            composed.append((r, s))
            return _compose(r, s)

        monkeypatch.setattr(cells, "compose_rel", counted)
        out = vcompose(rs.copy, rs.compare)
        assert len(composed) == 4
        off_diagonal = [
            out.component(t, s) for t in range(4) for s in range(4) if t != s
        ]
        assert len({id(r) for r in off_diagonal}) == 1
        assert off_diagonal[0] == relations.empty(0, 0)


class TestTensor:
    def test_shape_law(self, builder):
        a = builder.one_cell(FiniteSet(3), FiniteSet(2))
        b = builder.one_cell(FiniteSet(5), FiniteSet(4))
        out = tensor_one(a, b)
        assert (out.dst.size, out.src.size) == (8, 15)

    def test_unit_is_strict(self, builder):
        unit = identity_two_cell(identity_one_cell(1))
        a = builder.two_cell(FiniteSet(2), FiniteSet(2))
        assert tensor(a, unit) is a
        assert tensor(unit, a) is a

    def test_scalar_case_is_relation_product(self, builder):
        for _ in range(30):
            r = builder.rel(builder.finite_set(), builder.finite_set())
            s = builder.rel(builder.finite_set(), builder.finite_set())
            out = tensor(scalar_two_cell(r), scalar_two_cell(s))
            assert out.component(0, 0) == product(r, s)

    def test_associative_on_encodings(self, builder):
        for _ in range(40):
            cells = [builder.two_cell(FiniteSet(1), FiniteSet(1)) for _ in range(3)]
            a, b, c = cells
            assert equal(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))


class TestEndomorphismInverses:
    def test_one_sided_inverse_is_two_sided(self, builder):
        # sampled over parallel endo-cells: left inverse forces right inverse
        def endo(cell):
            components = tuple(
                tuple(
                    builder.rel(cell.fiber(t, s), cell.fiber(t, s))
                    for s in range(cell.src.size)
                )
                for t in range(cell.dst.size)
            )
            return TwoCell(cell, cell, components)

        found = 0
        for _ in range(4000):
            a = builder.one_cell(builder.finite_set(1, 2), builder.finite_set(1, 2))
            sigma, tau = endo(a), endo(a)
            if equal(vcompose(tau, sigma), identity_two_cell(a)):
                found += 1
                assert equal(vcompose(sigma, tau), identity_two_cell(a))
        assert found > 0


class TestEqual:
    def test_reflexive(self, builder):
        a = builder.two_cell(FiniteSet(2), FiniteSet(2))
        assert equal(a, a)

    def test_locates_first_difference(self):
        dom = identity_one_cell(2)
        lhs = identity_two_cell(dom)
        rhs = TwoCell(
            dom,
            dom,
            tuple(
                tuple(
                    Rel(dom.fiber(t, s), dom.fiber(t, s), np.zeros((dom.fiber(t, s).size,) * 2, bool))
                    for s in range(2)
                )
                for t in range(2)
            ),
        )
        res = equal(lhs, rhs)
        assert not res.equal
        assert res.difference.kind == "bit"
        assert (res.difference.t, res.difference.s) == (0, 0)
        assert res.difference.lhs and not res.difference.rhs

    def test_shape_mismatch_reported(self, builder):
        a = builder.two_cell(FiniteSet(1), FiniteSet(1))
        b = builder.two_cell(FiniteSet(2), FiniteSet(1))
        res = equal(a, b)
        assert not res.equal and res.difference.kind == "shape"


@pytest.mark.unchecked
def test_composites_skip_the_public_checks(builder, monkeypatch):
    checked, check = [], TwoCell.__post_init__

    def counted(cell):
        checked.append(cell)
        check(cell)

    for _ in range(10):
        s, t, u = (builder.finite_set(1) for _ in range(3))
        alpha, beta = builder.two_cell(s, t), builder.two_cell(t, u)
        gamma = builder.two_cell_from(alpha.codomain)
        with monkeypatch.context() as patch:
            patch.setattr(TwoCell, "__post_init__", counted)
            vcompose(alpha, gamma)
            hcompose_two(alpha, beta)
            tensor(alpha, beta)
            identity_two_cell(hcompose_one(alpha.domain, beta.domain))
    assert checked == []


class TestOneKroneckerKernel:
    """Components are made by `relations._kron_sum` between sets already
    held."""

    def test_relations_builds_every_block_at_several_middles(self, monkeypatch):
        # a recorder on relations._materialise sees each nonempty block of
        # a region's scalar copy, whose two whiskers run through 3 values
        from relcat.generators import scalar_copy

        rs = region_structure(3)
        first = hcompose_two(rs.id_left, rs.copy)
        want = []
        for alpha, beta in ((rs.id_left, rs.copy), (first, rs.id_right)):
            assert alpha.domain.dst.size == 3
            for u in range(beta.domain.dst.size):
                for s in range(alpha.domain.src.size):
                    for t in range(3):
                        b, a = beta.component(u, t), alpha.component(t, s)
                        shape = (b.dst.size * a.dst.size, b.src.size * a.src.size)
                        if shape[0] * shape[1]:
                            want.append(shape)
        built, real = [], relations._materialise

        def recording(factors):
            out = real(factors)
            built.append(out.shape)
            return out

        monkeypatch.setattr(relations, "_materialise", recording)
        scalar_copy(rs)
        assert want and sorted(built) == sorted(want)

    def test_identity_on_a_composite_is_each_fibers_identity(self, builder):
        for _ in range(30):
            s, t, u = (builder.finite_set(1) for _ in range(3))
            a = hcompose_one(builder.one_cell(s, t), builder.one_cell(t, u))
            ident = identity_two_cell(a)
            assert not a._fibers  # no fiber of the composite was made
            shared = {}
            for uu in range(u.size):
                for ss in range(s.size):
                    got = ident.component(uu, ss)
                    assert got == identity(a.fiber(uu, ss))
                    assert shared.setdefault(got.src.size, got) is got

    @staticmethod
    def _labelled_pair():
        # two parallel scalar cells on a labelled fiber that differ in one
        # pair, whose components run between unlabelled sets
        a = scalar_one_cell(FiniteSet(2, ["a0", "a1"]))
        x = TwoCell(a, a, ((Rel(2, 2, np.eye(2, dtype=bool)),),))
        y = TwoCell(a, a, ((Rel(2, 2, np.array([[1, 0], [1, 1]], bool)),),))
        return x, y

    def test_tensored_difference_keeps_the_fiber_labels(self):
        x, y = self._labelled_pair()
        wire = identity_two_cell(scalar_one_cell(FiniteSet(3, ["b0", "b1", "b2"])))
        lhs, rhs = tensor(wire, x), tensor(wire, y)
        diff = equal(lhs, rhs).difference
        assert (diff.col_label, diff.row_label) == ("(b0,a0)", "(b0,a1)")
        assert lhs.component(0, 0).src is lhs.domain.fiber(0, 0)

    def test_whiskered_difference_keeps_the_fiber_labels(self):
        x, y = self._labelled_pair()
        rs = region_structure(FiniteSet(2, ["s0", "s1"]))
        lhs, rhs = protocols._in_zone(rs, x), protocols._in_zone(rs, y)
        diff = equal(lhs, rhs).difference
        assert (diff.t, diff.s) == (0, 0)
        assert (diff.col_label, diff.row_label) == ("a0", "a1")
        assert lhs.component(0, 0).src.labels is None

    def test_a_whiskered_step_is_the_steps_own_relation(self):
        # the boundary identities are units, so no component is a copy
        x, _ = self._labelled_pair()
        cell = protocols._in_zone(region_structure(3), x)
        assert cell.domain.sizes.shape == (3, 3)
        assert all(c is x.component(0, 0) for row in cell.components for c in row)

    def test_components_make_no_product_sets(self, builder, monkeypatch):
        calls = []
        real = relations.product_set

        def counted(a, b):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(relations, "product_set", counted)
        monkeypatch.setattr(cells, "product_set", counted)
        for _ in range(30):
            s, t, u = (builder.finite_set(1) for _ in range(3))
            alpha, beta = builder.two_cell(s, t), builder.two_cell(t, u)
            calls.clear()
            hcompose_two(alpha, beta)
            assert calls == []
            a, b = builder.two_cell(s, t), builder.two_cell(t, u)
            calls.clear()
            tensor_one(a.domain, b.domain)
            tensor_one(a.codomain, b.codomain)
            boundaries = len(calls)
            calls.clear()
            tensor(a, b)
            assert len(calls) == boundaries  # one per fiber, none per component

    def test_zone_whisker_makes_one_set_per_fiber_size(self, monkeypatch):
        # the first step of a key exchange at q = 7, whiskered as it is there
        rs = region_structure(7)
        pad = cup_cell(canonical_cup(6))
        step = tensor(pad, pad)
        inner = hcompose_two(identity_two_cell(rs.boundary_right), step)
        made = []
        init = FiniteSet.__init__

        def counted(self, size, labels=None):
            made.append(size)
            init(self, size, labels)

        monkeypatch.setattr(FiniteSet, "__init__", counted)
        out = protocols._in_zone(rs, step)
        monkeypatch.undo()

        def sizes(cell):
            return {*cell.domain.sizes.flat, *cell.codomain.sizes.flat}

        assert out.domain.sizes.size == 49
        assert len(made) <= len(sizes(inner)) + len(sizes(out)) == 4
