import glob
import os

import numpy as np
import pytest

from oracle_laws import holds
from relcat import cells, cli, dsl, generators, protocols, relations
from relcat.cells import equal
from relcat.generators import (
    ControlledOp,
    canonical_cup,
    controlled_at_left_boundary,
    cup_cell,
    cup_from_permutation,
    region_structure,
)
from relcat.protocols import (
    _CHECKS,
    PreconditionError,
    ProtocolInstance,
    Verification,
    check_correctness,
    check_correctness_protocol_form,
    check_dh,
    check_encryption_not_invertible,
    check_security,
    derive_decryption_inverse,
    dh_instance,
    group_instance,
    instance_bits,
    rebuild_encryption,
    secret_sharing_from_otp,
    security_implications,
    single_bit_instance,
)
from relcat.relations import (
    FiniteSet,
    Permutation,
    identity,
    make,
    predicates,
    relation_from_code,
)


def all_bit_matrices(rows: int, cols: int) -> np.ndarray:
    """Every rows x cols 0/1 matrix, in bit-code order (first entry high)."""
    n = rows * cols
    codes = np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)
    return (codes & 1).astype(np.float32).reshape(1 << n, rows, cols)


def _is_identity_for_every_pair(first: np.ndarray, then: np.ndarray) -> np.ndarray:
    """``[i, j]``: whether relation ``first[i]``, then ``then[j]``, is the
    identity.  Both are stacks of target x source 0/1 matrices."""
    p, mid, k = first.shape
    q = len(then)
    out = then.reshape(q * k, mid) @ first.transpose(1, 0, 2).reshape(mid, p * k)
    eye = np.eye(k, dtype=bool)[:, None, :]
    return ((out.reshape(q, k, p, k) > 0) == eye).all(axis=(1, 3)).T


def inverses_exist_by_search(es: np.ndarray) -> np.ndarray:
    """Literal search for a two-sided relational inverse of each relation.

    ``es`` stacks target x source bit matrices of one shape.  Every relation
    back from target to source is tried against the identity equation on
    the smaller carrier, and against the other one where that holds.
    Shares no code with relcat.
    """
    m, n_dst, n_src = es.shape
    cands = all_bit_matrices(n_src, n_dst)
    if n_src <= n_dst:
        ei, ci = np.nonzero(_is_identity_for_every_pair(es, cands))
        after = es[ei] @ cands[ci]
    else:
        ci, ei = np.nonzero(_is_identity_for_every_pair(cands, es))
        after = cands[ci] @ es[ei]
    holds = ((after > 0) == np.eye(after.shape[1], dtype=bool)).all(axis=(1, 2))
    found = np.zeros(m, dtype=bool)
    found[ei[holds]] = True
    return found


def broken_decrypt_instance() -> ProtocolInstance:
    inst = single_bit_instance()
    return ProtocolInstance(
        inst.plaintexts,
        inst.keys,
        inst.ciphertexts,
        inst.encrypt,
        ControlledOp(
            inst.ciphertexts, inst.keys, inst.plaintexts, (identity(2), identity(2))
        ),
        inst.pad,
    )


class TestSingleBitInstance:
    def test_encryption_is_parity(self):
        inst = single_bit_instance()
        assert inst.encrypt.pairs() == [(0, 0), (1, 1), (2, 1), (3, 0)]

    def test_decryption_family(self):
        inst = single_bit_instance()
        assert inst.decrypt.family[0] == identity(2)
        assert inst.decrypt.family[1] == make(2, 2, [(0, 1), (1, 0)])

    def test_pad_cup_row(self):
        inst = single_bit_instance()
        assert inst.pad.cup.pairs() == [(0, 0), (0, 3)]

    def test_matches_group_of_order_two(self):
        a, b = single_bit_instance(), group_instance(2)
        assert a.encrypt == b.encrypt
        assert a.decrypt.family == b.decrypt.family
        assert a.pad.cup == b.pad.cup


class TestCorrectness:
    def test_single_bit(self):
        assert check_correctness(single_bit_instance()).holds

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_group_instances(self, n):
        assert check_correctness(group_instance(n)).holds

    def test_passing_check_builds_no_fiber_labels(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a passing check built a composite-fiber label")

        monkeypatch.setattr(cells, "_path_label", refuse)
        assert check_correctness(group_instance(4)).holds

    def test_both_forms_agree_on_good_and_broken(self):
        for inst in (
            single_bit_instance(),
            group_instance(3),
            broken_decrypt_instance(),
        ):
            compact = check_correctness(inst)
            protocol = check_correctness_protocol_form(inst)
            assert compact.holds == protocol.holds

    def test_broken_decryption_fails_with_witness(self):
        verdict = check_correctness(broken_decrypt_instance())
        assert not verdict.holds
        assert verdict.witness
        assert verdict.difference is not None

    def test_twisted_pad_without_adjustment_fails(self):
        base = group_instance(2)
        twisted = ProtocolInstance(
            base.plaintexts,
            base.keys,
            base.ciphertexts,
            base.encrypt,
            base.decrypt,
            cup_from_permutation(Permutation(base.keys, (1, 0))),
        )
        verdict = check_correctness(twisted)
        assert not verdict.holds and verdict.witness

    def test_twisted_pad_with_adjusted_decryption_passes(self):
        base = group_instance(2)
        adjusted = ProtocolInstance(
            base.plaintexts,
            base.keys,
            base.ciphertexts,
            base.encrypt,
            ControlledOp(
                base.ciphertexts,
                base.keys,
                base.plaintexts,
                (
                    make(2, 2, [(0, 1), (1, 0)]),
                    make(2, 2, [(0, 0), (1, 1)]),
                ),
            ),
            cup_from_permutation(Permutation(base.keys, (1, 0))),
        )
        assert check_correctness(adjusted).holds
        assert check_correctness_protocol_form(adjusted).holds


class TestSecurity:
    @pytest.mark.parametrize("which", ["S1", "S2", "S3", "S4"])
    def test_single_bit(self, which):
        assert check_security(single_bit_instance(), which).holds

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_group_primary_security(self, n):
        assert check_security(group_instance(n), "S1").holds

    def test_group_three_decryption_security(self):
        assert check_security(group_instance(3), "S4").holds

    def test_constant_encryption_fails_primary(self):
        inst = single_bit_instance()
        constant = ProtocolInstance(
            inst.plaintexts,
            inst.keys,
            inst.ciphertexts,
            make(4, 2, [(0, 0), (1, 0), (2, 0), (3, 0)]),
            inst.decrypt,
            inst.pad,
        )
        verdict = check_security(constant, "S1")
        assert not verdict.holds and verdict.witness

    def test_unknown_property_rejected(self):
        with pytest.raises(ValueError):
            check_security(single_bit_instance(), "S5")

    def test_implications(self):
        report = security_implications(single_bit_instance())
        assert report.s1.holds and report.implication_holds
        assert not report.vacuous

    def test_vacuous_when_primary_fails(self):
        inst = single_bit_instance()
        constant = ProtocolInstance(
            inst.plaintexts,
            inst.keys,
            inst.ciphertexts,
            make(4, 2, [(0, 0), (1, 0), (2, 0), (3, 0)]),
            inst.decrypt,
            inst.pad,
        )
        report = security_implications(constant)
        assert report.vacuous and report.implication_holds


class TestDecryptionInverse:
    def test_single_bit_inverse_is_self(self):
        inst = single_bit_instance()
        dinv, verdict = derive_decryption_inverse(inst)
        assert verdict.holds
        dec = controlled_at_left_boundary(inst.decrypt)
        assert equal(dinv, dec).equal  # both fibers are involutions

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_group_inverse_two_sided(self, n):
        _, verdict = derive_decryption_inverse(group_instance(n))
        assert verdict.holds

    def test_inverse_components_match_subtraction(self):
        inst = group_instance(3)
        dinv, _ = derive_decryption_inverse(inst)
        for c in range(3):
            expected = make(3, 3, [((c - k) % 3, k) for k in range(3)])
            assert dinv.component(c, 0) == expected

    def test_precondition_enforced(self):
        with pytest.raises(PreconditionError):
            derive_decryption_inverse(broken_decrypt_instance())


class TestEncryptionReconstruction:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_group_instances(self, n):
        assert rebuild_encryption(group_instance(n)).holds

    def test_single_bit(self):
        assert rebuild_encryption(single_bit_instance()).holds

    def test_tampered_inverse_reported_unequal(self):
        from relcat.cells import TwoCell
        from relcat.protocols import rebuild_encryption_from

        inst = group_instance(3)
        dinv, _ = derive_decryption_inverse(inst)
        comps = [list(row) for row in dinv.components]
        comps[0][0], comps[1][0] = comps[1][0], comps[0][0]
        tampered = TwoCell(dinv.domain, dinv.codomain, tuple(map(tuple, comps)))
        verdict = rebuild_encryption_from(inst, tampered)
        assert not verdict.holds and verdict.witness

    def test_tampered_inverse_detected(self):
        # swapping one decryption fiber spoils correctness, and so the
        # reconstruction cannot even be attempted
        inst = group_instance(3)
        fam = list(inst.decrypt.family)
        fam[0], fam[1] = fam[1], fam[0]
        tampered = ProtocolInstance(
            inst.plaintexts,
            inst.keys,
            inst.ciphertexts,
            inst.encrypt,
            ControlledOp(inst.ciphertexts, inst.keys, inst.plaintexts, tuple(fam)),
            inst.pad,
        )
        with pytest.raises(PreconditionError):
            rebuild_encryption(tampered)


class TestEncryptionNotInvertible:
    def test_single_bit_has_no_inverse(self):
        assert check_encryption_not_invertible(single_bit_instance()).holds

    def test_trivial_message_space_exemption(self):
        assert check_encryption_not_invertible(group_instance(1)).holds

    @pytest.mark.parametrize("n", [3, 5])
    def test_group_instances(self, n):
        assert check_encryption_not_invertible(group_instance(n)).holds

    def test_bijection_predicate_matches_inverse_search(self):
        # the isomorphisms of Rel are the bijections: compare on every
        # relation of at most 12 bits between carriers of at most 4
        # elements, empty carriers included
        for a in range(5):
            for b in range(5):
                if a * b > 12:
                    continue
                es = all_bit_matrices(b, a)
                found = np.concatenate(  # in slices, to keep memory small
                    [inverses_exist_by_search(x) for x in np.array_split(es, 16)]
                )
                predicted = [
                    predicates(relation_from_code(a, b, code)).is_bijection
                    for code in range(len(found))
                ]
                assert list(found) == predicted, (a, b)

    def test_requires_primary_security(self):
        inst = single_bit_instance()
        constant = ProtocolInstance(
            inst.plaintexts,
            inst.keys,
            inst.ciphertexts,
            make(4, 2, [(0, 0), (1, 0), (2, 0), (3, 0)]),
            inst.decrypt,
            inst.pad,
        )
        with pytest.raises(PreconditionError):
            check_encryption_not_invertible(constant)

    def test_held_primary_security_verdict_gives_the_same_refusal(self):
        inst = single_bit_instance()
        constant = ProtocolInstance(
            inst.plaintexts,
            inst.keys,
            inst.ciphertexts,
            make(4, 2, [(0, 0), (1, 0), (2, 0), (3, 0)]),
            inst.decrypt,
            inst.pad,
        )
        with pytest.raises(PreconditionError) as fresh:
            check_encryption_not_invertible(constant)
        record = Verification(constant)
        assert not record["S1"].holds
        held = record["encryption_not_invertible"]
        assert held.refused and not held.holds
        assert held.witness == str(fresh.value)

    def test_held_primary_security_verdict_is_used(self, monkeypatch):
        import relcat.protocols as protocols

        record = Verification(single_bit_instance())
        assert record["S1"].holds
        monkeypatch.setattr(protocols, "check_security", None)
        assert record["encryption_not_invertible"].holds


class TestSecretSharing:
    def test_single_bit_all_equations(self):
        result = secret_sharing_from_otp(single_bit_instance())
        assert result.recombination.holds
        assert result.erase_left_share.holds
        assert result.erase_right_share.holds

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_group_instances(self, n):
        result = secret_sharing_from_otp(group_instance(n))
        assert result.recombination.holds
        assert result.erase_left_share.holds
        assert result.erase_right_share.holds

    def test_requires_correct_scheme(self):
        with pytest.raises(PreconditionError):
            secret_sharing_from_otp(broken_decrypt_instance())

    def test_each_vertical_composite_is_built_once(self, monkeypatch):
        # the recombination and both erasures start with `prepare ; adjust`
        import relcat.protocols as protocols

        operands = []  # kept alive, so that no two cells share an id

        def counted(a, b, _build=cells.vcompose):
            operands.append((a, b))
            return _build(a, b)

        monkeypatch.setattr(cells, "vcompose", counted)
        monkeypatch.setattr(protocols, "vcompose", counted)
        result = secret_sharing_from_otp(group_instance(3))
        assert result.recombination.holds
        assert result.erase_left_share.holds and result.erase_right_share.holds
        assert len(operands) == 7
        assert len({(id(a), id(b)) for a, b in operands}) == 7

    def test_instance_fields(self):
        result = secret_sharing_from_otp(single_bit_instance())
        inst = result.instance
        assert inst.message_set.size == 2
        assert inst.recombine == single_bit_instance().encrypt


def single_message_instance() -> ProtocolInstance:
    """Correct at sizes (1, 2, 1), but decryption merges the two keys."""
    p, k, c = FiniteSet(1), FiniteSet(2), FiniteSet(1)
    merge = make(2, 1, [(0, 0), (1, 0)])
    return ProtocolInstance(
        p, k, c, merge, ControlledOp(c, k, p, (merge,)), canonical_cup(k)
    )


DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
# the `tests/data` files that `verify-otp --file` loads as instances
INSTANCE_FILES = [
    "instance_twisted_pad.rcat",
    "otp_broken_decryption.rcat",
    "otp_constant_encryption.rcat",
    "otp_labelled_extra_decryption.rcat",
    "otp_single_message.rcat",
]


def decided_alone(fresh) -> dict[str, tuple]:
    """Every check through its public function, each on an instance of its
    own: (holds, refused, witness) by check name."""

    def outcome(decide):
        try:
            verdict = decide(fresh())
        except PreconditionError as exc:
            return False, True, str(exc)
        assert not verdict.refused
        return verdict.holds, False, verdict.witness

    out = {
        "correctness": outcome(check_correctness),
        "correctness_protocol_form": outcome(check_correctness_protocol_form),
        **{
            w: outcome(lambda i, w=w: check_security(i, w))
            for w in protocols.SECURITY_PROPERTIES
        },
        "decryption_invertible": outcome(lambda i: derive_decryption_inverse(i)[1]),
        "encryption_rebuilt_from_inverse": outcome(rebuild_encryption),
        "encryption_not_invertible": outcome(check_encryption_not_invertible),
    }
    for name in protocols._SHARING:  # "sharing_x" is the result's field x
        field = name.removeprefix("sharing_")
        out[name] = outcome(lambda i, f=field: getattr(secret_sharing_from_otp(i), f))
    return out


def decided_together(inst: ProtocolInstance, names) -> dict[str, tuple]:
    record = Verification(inst)
    return {n: (record[n].holds, record[n].refused, record[n].witness) for n in names}


class TestSharedCells:
    @pytest.mark.parametrize(
        "fresh",
        [*(lambda n=n: group_instance(n) for n in range(1, 7)), single_bit_instance]
        + [
            lambda name=name: cli._instance_from_file(os.path.join(DATA_DIR, name))
            for name in INSTANCE_FILES
        ],
        ids=[f"group-{n}" for n in range(1, 7)] + ["single-bit"] + INSTANCE_FILES,
    )
    def test_one_record_decides_as_the_public_functions_alone(self, fresh):
        # a cell kept on the instance must carry nothing from one check to
        # the next, in whatever order the checks are decided
        alone = decided_alone(fresh)
        assert list(alone) == list(_CHECKS)
        assert decided_together(fresh(), _CHECKS) == alone
        assert decided_together(fresh(), reversed(list(_CHECKS))) == alone

    def test_every_other_data_file_is_refused_as_an_instance(self):
        # so that the parity test above covers every file that loads
        others = sorted(
            set(map(os.path.basename, glob.glob(os.path.join(DATA_DIR, "*.rcat"))))
            - set(INSTANCE_FILES)
        )
        assert others
        for name in others:
            with pytest.raises((ValueError, dsl.ParseError, dsl.ElaborationError)):
                cli._instance_from_file(os.path.join(DATA_DIR, name))

    def test_the_pad_beside_the_plaintext_wire_is_not_kept(self):
        # correctness and S1 build it, at (p·k)² bits, inside `sent`
        p, k = 2, 5
        inst = function_scheme(p, k, 1, seed=1)
        record = Verification(inst)
        verdicts = [record[name] for name in _CHECKS]
        # correct, so every check is decided but the rebuild, refused at p != k
        assert verdicts[0].holds
        kept = [
            rel
            for cell in vars(inst).values()
            if isinstance(cell, cells.TwoCell)
            for row in cell.components
            for rel in row
        ]
        assert kept and max(rel.bits.size for rel in kept) < (p * k) ** 2

    def test_verify_otp_builds_each_generator_once(self, monkeypatch, capsys):
        calls = {"controlled_at_left_boundary": 0, "wire_cell": 0, "cup_cell": 0}
        for name in calls:
            def counted(*args, _build=getattr(generators, name), _name=name):
                calls[_name] += 1
                return _build(*args)

            for module in (generators, protocols):
                monkeypatch.setattr(module, name, counted)
        assert cli.main(["verify-otp", "--group", "3"]) == 0
        capsys.readouterr()
        assert calls["controlled_at_left_boundary"] == 1
        assert calls["wire_cell"] <= 2
        assert calls["cup_cell"] == 1


class TestVerification:
    def test_each_check_is_decided_at_most_once(self, monkeypatch):
        import relcat.protocols as protocols

        calls = []
        for name, (hypothesis, decide) in protocols._CHECKS.items():
            def counted(record, _decide=decide):
                calls.append(_decide)
                return _decide(record)

            monkeypatch.setitem(protocols._CHECKS, name, (hypothesis, counted))
        record = Verification(group_instance(3))
        for _ in range(2):
            assert all(record[name].holds for name in protocols._CHECKS)
        # the three sharing equations are decided together
        assert len(calls) == len(set(calls)) == len(protocols._CHECKS) - 2

    def test_refusals_follow_the_preconditions(self):
        record = Verification(broken_decrypt_instance())
        correctness = record["correctness"]
        assert not correctness.holds and not correctness.refused
        inverse = record["decryption_invertible"]
        assert inverse.refused and inverse.witness == (
            f"decryption inverse requires correctness; {correctness.witness}"
        )
        # a refusal propagates with its own words
        assert record["encryption_rebuilt_from_inverse"].witness == inverse.witness
        assert record["sharing_recombination"].witness == (
            f"secret sharing is derived from a correct scheme; {correctness.witness}"
        )
        assert record.inverse is None

    def test_rebuild_is_refused_without_an_inverse(self):
        record = Verification(single_message_instance())
        assert record["correctness"].holds
        inverse = record["decryption_invertible"]
        assert not inverse.holds and not inverse.refused
        assert inverse.witness.endswith("a decryption fiber is not a bijection")
        assert not record.fibers_bijective
        rebuilt = record["encryption_rebuilt_from_inverse"]
        assert rebuilt.refused and rebuilt.witness == (
            f"reconstruction requires an invertible decryption; {inverse.witness}"
        )
        with pytest.raises(PreconditionError, match="^reconstruction requires"):
            rebuild_encryption(single_message_instance())

    def test_public_checks_agree_with_the_record(self):
        inst = group_instance(3)
        record = Verification(inst)
        assert check_correctness(inst) == record["correctness"]
        assert check_security(inst, "S3") == record["S3"]
        dinv, verdict = derive_decryption_inverse(inst)
        assert verdict == record["decryption_invertible"]
        assert equal(dinv, record.inverse).equal
        assert security_implications(inst) == record.implications()


class TestKeyExchange:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_holds_on_generators(self, q):
        assert check_dh(dh_instance(q)).holds

    def test_identity_base_fails_with_witness(self):
        verdict = check_dh(dh_instance(5, include_identity=True))
        assert not verdict.holds
        assert "base 1" in verdict.witness

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            dh_instance(4)
        with pytest.raises(ValueError):
            dh_instance(1)

    def test_no_erasure_variant_fails(self):
        verdict = check_dh(dh_instance(3), erase_published=False)
        assert not verdict.holds
        assert "retained" in verdict.witness

    def test_exponentiation_family(self):
        inst = dh_instance(5)
        # public value g^2, exponent 3 gives g^6 = g
        assert holds(inst.exp_op.family[2], 3, 1)

    @pytest.mark.parametrize(
        "include_identity, erase", [(False, True), (True, True), (False, False)]
    )
    def test_no_dense_layer_at_thirteen(self, monkeypatch, include_identity, erase):
        # every dense product is built by relations._materialise; the
        # q^4 x q^4 layers (q^8 bits) must stay factored, and nothing built
        # may exceed q^5 bits.  The cached region structure counts too, so
        # it is built afresh.
        q, built = 13, []
        materialise = relations._materialise
        region_structure.cache_clear()

        def recording(factors):
            out = materialise(factors)
            built.append(out.size)
            return out

        monkeypatch.setattr(relations, "_materialise", recording)
        verdict = check_dh(dh_instance(q, include_identity), erase_published=erase)
        assert verdict.holds == (erase and not include_identity)
        assert built and max(built) <= q**5

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
    def test_charge_is_the_largest_cell_held(self, record_built, q):
        # the left side holds one q^4-bit state per region value, and no
        # matrix built is larger than one value's share of the charge,
        # which is exactly q^4 once that passes the dense-product limit
        from relcat.protocols import _dh_bits, _dh_layers

        share = _dh_bits(q) // q
        for include_identity, erase in [(False, True), (True, True), (False, False)]:
            dh = dh_instance(q, include_identity)
            with record_built() as built:
                rs = region_structure(dh.elements)
                lhs, held = rs.copy, []
                for layer in _dh_layers(dh, rs, erase):
                    lhs = cells.vcompose(lhs, layer)
                    rels = [r for row in lhs.components for r in row]
                    held.append(sum(r.src.size * r.dst.size for r in rels))
            assert max(built) <= share and max(held) <= _dh_bits(q)
            if q**4 > relations._BOOL_MATMUL_MAX_WORK:
                assert max(built) == share == q**4 and max(held) == q**5

    def test_the_first_prime_refused_by_size_is_53(self):
        from relcat.protocols import _dh_bits

        assert _dh_bits(47) <= relations.MAX_DENSE_BITS < _dh_bits(53)
        dh_instance(47)
        with pytest.raises(ValueError, match="order 53 holds a cell of 418195493"):
            dh_instance(53)

    def test_boundary_identities_are_built_once_per_check(self, monkeypatch):
        # two on the region's boundaries and one per wire, whatever the
        # number of layers whiskered between the boundaries
        import relcat.generators as generators
        import relcat.protocols as protocols

        built = []

        def counted(a, _build=cells.identity_two_cell):
            built.append(a)
            return _build(a)

        for module in (generators, protocols):
            monkeypatch.setattr(module, "identity_two_cell", counted)
        counts = []
        for erase in (True, False):  # 11 and 10 layers
            region_structure.cache_clear()
            built.clear()
            check_dh(dh_instance(7), erase_published=erase)
            counts.append(len(built))
        assert counts == [4, 4]

    def test_only_the_diagonal_is_composed(self, monkeypatch):
        # off the region's diagonal every fiber is empty, so each of the 12
        # vertical composites composes only its 7 diagonal components
        composed = []

        def counted(r, s, _compose=relations.compose):
            composed.append((r, s))
            return _compose(r, s)

        monkeypatch.setattr(cells, "compose_rel", counted)
        assert check_dh(dh_instance(7)).holds
        assert len(composed) == 84

    def test_a_whiskered_step_builds_one_block_per_distinct_pair(self, monkeypatch):
        from relcat.protocols import _in_zone

        q, blocks = 7, []

        def counted(*args, _build=relations._kron):
            blocks.append(args)
            return _build(*args)

        rs = region_structure(FiniteSet(q))
        step = cells.tensor(cup_cell(canonical_cup(q)), cup_cell(canonical_cup(q)))
        monkeypatch.setattr(relations, "_kron", counted)
        cell = _in_zone(rs, step)
        assert len(blocks) <= 2
        # one relation, shared by all q x q components
        assert len({id(c) for row in cell.components for c in row}) == 1
        assert cell.component(3, 3) == step.scalar()


class TestVerdictInvariants:
    def test_witness_present_iff_failed(self):
        good = check_correctness(single_bit_instance())
        bad = check_correctness(broken_decrypt_instance())
        assert good.witness is None and bad.witness is not None


def function_scheme(p: int, k: int, c: int, seed: int) -> ProtocolInstance:
    """A scheme whose ciphertext x decrypts by a random function of the
    key, onto the messages when k >= p, and whose encryption sends (m, j)
    to every x that decrypts key j to m.  It is correct when k >= p, and
    its decryption is invertible when moreover p = k."""
    rng = np.random.default_rng(seed)
    ps, ks, cs = FiniteSet(p), FiniteSet(k), FiniteSet(c)
    maps = []
    for _ in range(c):
        f = rng.integers(0, p, size=k)
        if k >= p:
            f[rng.permutation(k)[:p]] = np.arange(p)
        maps.append(f.tolist())
    encrypt = make(
        relations.product_set(ps, ks),
        cs,
        [(f[j] * k + j, x) for x, f in enumerate(maps) for j in range(k)],
    )
    family = tuple(make(ks, ps, [(j, f[j]) for j in range(k)]) for f in maps)
    return ProtocolInstance(
        ps, ks, cs, encrypt, ControlledOp(cs, ks, ps, family), canonical_cup(ks)
    )


def random_scheme(p: int, k: int, c: int, seed: int) -> ProtocolInstance:
    """Random encryption and decryption bits: almost always incorrect."""
    rng = np.random.default_rng(seed)
    ps, ks, cs = FiniteSet(p), FiniteSet(k), FiniteSet(c)
    pairs = relations.product_set(ps, ks)
    encrypt = relations.Rel(pairs, cs, rng.random((c, p * k)) < 0.5)
    family = tuple(relations.Rel(ks, ps, rng.random((p, k)) < 0.5) for _ in range(c))
    return ProtocolInstance(
        ps, ks, cs, encrypt, ControlledOp(cs, ks, ps, family), canonical_cup(ks)
    )


# square and non-square sizes, with k < p, k = p and k > p, and sizes at
# which each term of `instance_bits` is the largest
CHARGE_SIZES = [
    (1, 1, 1), (1, 2, 2), (2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3),
    (3, 3, 1), (4, 4, 4), (3, 5, 7), (5, 3, 4), (6, 6, 6), (7, 7, 2),
    (3, 3, 31), (2, 17, 13), (17, 2, 13), (40, 2, 3), (2, 40, 3),
    (1, 1, 101), (11, 11, 3), (5, 5, 11), (2, 40, 1), (13, 17, 2),
]


class TestChargeTable:
    @staticmethod
    def largest_built(inst: ProtocolInstance, record_built) -> tuple[int, dict]:
        """The largest matrix built by every OTP and sharing check, dense
        or from Kronecker factors, and the verdicts."""
        with record_built() as built:
            record = Verification(inst)
            verdicts = {name: record[name] for name in _CHECKS}
        return max(built), verdicts

    @pytest.mark.parametrize("sizes", CHARGE_SIZES, ids=str)
    @pytest.mark.parametrize("scheme", [function_scheme, random_scheme])
    def test_no_matrix_built_exceeds_the_charge(self, record_built, sizes, scheme):
        largest, verdicts = self.largest_built(scheme(*sizes, seed=1), record_built)
        assert largest <= instance_bits(*sizes)
        p, k, _ = sizes
        if scheme is function_scheme and k >= p:
            # the correct schemes reach every check, the rebuild at p = k
            assert verdicts["correctness"].holds
            rebuilt = verdicts["encryption_rebuilt_from_inverse"]
            assert rebuilt.holds == (p == k) and rebuilt.refused == (p != k)

    @pytest.mark.parametrize(
        "sizes",
        [(4, 4, 4), (7, 7, 2), (2, 40, 1), (2, 17, 13), (17, 2, 13)],
        ids=["eager-product", "p*k^3*c", "(p*k)^2", "(k*c)^2", "(p*c)^2"],
    )
    def test_each_term_is_reached(self, record_built, sizes):
        # at each of these sizes one term of the charge alone is the largest
        largest, _ = self.largest_built(function_scheme(*sizes, seed=1), record_built)
        assert largest == instance_bits(*sizes)

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_group_charge_is_the_largest_matrix_built(self, record_built, n):
        # the rebuild's n^5 bits; the first group charged over 2^28 is 49
        largest, verdicts = self.largest_built(group_instance(n), record_built)
        assert all(v.holds for v in verdicts.values())
        assert largest == instance_bits(n, n, n) == n**5
        assert instance_bits(48, 48, 48) <= 1 << 28 < instance_bits(49, 49, 49)

    def test_group_instance_is_refused_before_anything_is_built(self, monkeypatch):
        made = []

        def counted(*args, _make=protocols.make):
            made.append(args)
            return _make(*args)

        monkeypatch.setattr(protocols, "make", counted)
        with pytest.raises(ValueError, match="282475249 dense bits"):
            group_instance(49)
        assert made == []

    def test_verification_refuses_an_oversized_instance(self):
        # the region's c^3 is over the limit; a library caller that builds
        # the instance itself is refused as `verify-otp --file` is
        inst = function_scheme(1, 1, 646, seed=1)
        with pytest.raises(ValueError, match="269586136 dense bits"):
            Verification(inst)
