import glob
import os
import random

import pytest

from relcat import dsl
from relcat.cells import equal, hcompose_two, tensor, vcompose
from relcat.dsl import (
    CheckReport,
    ElaborationError,
    ParseError,
    check_equation,
    elaborate,
    evaluate,
    evaluate_name,
    format_source,
    parse,
    run_source,
    structural_key,
)
from relcat.protocols import (
    check_correctness,
    check_correctness_protocol_form,
    check_dh,
    check_security,
    derive_decryption_inverse,
    dh_instance,
    group_instance,
    rebuild_encryption,
    secret_sharing_from_otp,
    single_bit_instance,
)

SPEC_DIR = os.path.join(
    os.path.dirname(__file__), "..", "src", "relcat", "specs"
)
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def spec_text(name: str) -> str:
    with open(os.path.join(SPEC_DIR, name), "r", encoding="utf-8") as handle:
        return handle.read()


def spec_files() -> list[str]:
    return sorted(glob.glob(os.path.join(SPEC_DIR, "*.rcat")))


class TestParser:
    def test_set_by_size(self):
        sf = parse("set K = 2")
        assert sf.statements[0].name == "K"
        assert sf.statements[0].size == 2

    def test_set_by_labels(self):
        sf = parse("set G = {e, g}")
        assert sf.statements[0].labels == ("e", "g")

    def test_def_structure(self):
        sf = parse("set K = 2\nset P = 2\nset C = 2\n"
                   "gen E : P * K -> C = {}\n"
                   "builtin D = controlled(C, K -> P, {0: {}, 1: {}})\n"
                   "def lhs = (E * id(K)) ; D\n")
        from relcat.dsl import ParTerm, SeqTerm

        term = sf.statements[-1].term
        assert isinstance(term, SeqTerm)
        assert isinstance(term.first, ParTerm)

    def test_malformed_def_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("def = ;")
        assert err.value.line == 1 and err.value.col == 5

    def test_lex_error_location(self):
        with pytest.raises(ParseError) as err:
            parse("set K = 2\nset J = @")
        assert err.value.line == 2

    def test_precedence(self):
        sf = parse("set A = 2\ndef x = id(A) * id(A) ; id(A * A) . id(1)\n")
        from relcat.dsl import HorizTerm, SeqTerm

        term = sf.statements[-1].term
        assert isinstance(term, SeqTerm)
        assert isinstance(term.second, HorizTerm)


class TestElaborator:
    def test_cup_codomain_is_square(self):
        env = elaborate(parse("set K = 2\ndef x = cup(K)\n"))
        assert env.cells["x"].typed.codomain.fiber(0, 0).size == 4

    def test_cup_then_cap_is_scalar_endoterm(self):
        env = elaborate(parse("set K = 2\ndef x = cup(K) ; cap(K)\n"))
        typed = env.cells["x"].typed
        assert typed.domain.fiber(0, 0).size == 1
        assert typed.codomain.fiber(0, 0).size == 1

    def test_composability_error_prints_both_types(self):
        with pytest.raises(ElaborationError) as err:
            elaborate(parse("set K = 2\ndef x = cup(K) ; delete(K)\n"))
        assert "4-element" in str(err.value) and "2-element" in str(err.value)

    def test_unknown_name(self):
        with pytest.raises(ElaborationError, match="unknown"):
            elaborate(parse("def x = mystery\n"))

    def test_redeclaration_rejected(self):
        with pytest.raises(ElaborationError, match="already"):
            elaborate(parse("set K = 2\nset K = 3\n"))

    def test_use_before_declare_rejected(self):
        with pytest.raises(ElaborationError):
            elaborate(parse("def x = id(K)\nset K = 2\n"))

    def test_labels_resolve(self):
        env = elaborate(
            parse("set G = {e, g}\ngen point : 1 -> G = {()->g}\n")
        )
        assert evaluate_name(env, "point").scalar().pairs() == [(0, 1)]

    def test_controlled_missing_block(self):
        with pytest.raises(ElaborationError, match="missing"):
            elaborate(
                parse(
                    "set C = 2\nset K = 2\n"
                    "builtin D = controlled(C, K -> K, {0: {}})\n"
                )
            )


class TestEvaluation:
    def test_identity(self):
        env = elaborate(parse("set K = 3\ndef x = id(K)\n"))
        cell = evaluate_name(env, "x")
        from relcat.relations import identity

        assert cell.scalar() == identity(3)

    def test_snake_composite_is_identity(self):
        report = run_source(spec_text("snake_equations.rcat"))
        assert report.exit_code == 0

    def test_cup_then_cap_is_the_unit_identity(self):
        report = run_source(
            "set K = 2\ndef loop = cup(K) ; cap(K)\ndef unit = id(1)\n"
            "check loop == unit\n"
        )
        assert report.exit_code == 0

    def test_compositional_denotation(self):
        # evaluating an operator node equals combining the evaluations
        env = elaborate(
            parse(
                "set A = 2\nset B = 3\n"
                "def f = create(A)\n"
                "def g = delete(A)\n"
                "def s = f ; g\n"
                "def h = f . f\n"
                "def p = f * f\n"
            )
        )
        f = evaluate_name(env, "f")
        g = evaluate_name(env, "g")
        assert equal(evaluate_name(env, "s"), vcompose(f, g))
        assert equal(evaluate_name(env, "h"), hcompose_two(f, f))
        assert equal(evaluate_name(env, "p"), tensor(f, f))

    def test_randomized_compositional_denotation(self):
        rng = random.Random(3)
        atoms = ["create(A)", "(create(A) ; delete(A))", "id(1)"]

        def grow(depth):
            if depth == 0:
                return rng.choice(atoms)
            a, b = grow(depth - 1), grow(depth - 1)
            op = rng.choice([" . ", " * "])
            return f"({a}{op}{b})"

        for trial in range(20):
            text = f"set A = 2\ndef x = {grow(3)}\n"
            env = elaborate(parse(text))
            typed = env.cells["x"].typed
            cell = evaluate(env, typed)
            assert cell.domain.fiber_sizes() == typed.domain.fiber_sizes()
            assert cell.codomain.fiber_sizes() == typed.codomain.fiber_sizes()


class TestCheckEquation:
    def test_equal_to_itself(self):
        env = elaborate(parse("set A = 2\ndef x = id(A)\ndef y = id(A)\ncheck x == y\n"))
        assert check_equation(env, "x", "y").verdict == "equal"

    def test_type_error_verdict(self):
        env = elaborate(
            parse("set A = 2\nset B = 3\ndef x = id(A)\ndef y = id(B)\n")
        )
        report = check_equation(env, "x", "y")
        assert report.verdict == "type-error"

    def test_each_inline_builtin_is_built_once(self, monkeypatch):
        calls = []

        def counted(*args, _build=dsl._builtin_binding):
            calls.append(args[1].op)
            return _build(*args)

        monkeypatch.setattr(dsl, "_builtin_binding", counted)
        report = run_source(
            "set A = 2\ndef x = id(A) ; id(A)\ndef y = id(A)\ncheck x == y\n"
        )
        assert report.exit_code == 0
        assert calls == ["id", "id", "id"]

    def test_unequal_with_witness(self):
        report = run_source(
            open(os.path.join(DATA_DIR, "otp_broken_decryption.rcat")).read()
        )
        assert report.exit_code == 1
        assert report.checks[0].verdict == "unequal"
        assert "pair" in report.checks[0].detail


class TestRoundTrip:
    @pytest.mark.parametrize(
        "path", spec_files(), ids=[os.path.basename(p) for p in spec_files()]
    )
    def test_print_then_parse_is_identity(self, path):
        with open(path, "r", encoding="utf-8") as handle:
            sf = parse(handle.read())
        assert structural_key(parse(format_source(sf))) == structural_key(sf)

    def test_corpus_is_large_enough(self):
        assert len(spec_files()) >= 20

    def test_twice_printed_is_stable(self):
        for path in spec_files():
            with open(path, "r", encoding="utf-8") as handle:
                once = format_source(parse(handle.read()))
            assert format_source(parse(once)) == once


class TestShippedSpecs:
    @pytest.mark.parametrize(
        "path", spec_files(), ids=[os.path.basename(p) for p in spec_files()]
    )
    def test_all_checks_pass(self, path):
        with open(path, "r", encoding="utf-8") as handle:
            report = run_source(handle.read())
        assert report.exit_code == 0, (report.error, report.checks)


class TestOracleAgreement:
    """Every shipped transcription agrees with its programmatic checker."""

    def test_correctness_files(self):
        inst = single_bit_instance()
        assert (
            run_source(spec_text("otp_correctness_compact.rcat")).exit_code == 0
        ) == check_correctness(inst).holds
        assert (
            run_source(spec_text("otp_correctness_protocol.rcat")).exit_code == 0
        ) == check_correctness_protocol_form(inst).holds

    def test_security_files(self):
        inst = single_bit_instance()
        mapping = {
            "otp_key_deleted.rcat": "S1",
            "otp_random_key.rcat": "S2",
            "otp_random_message.rcat": "S3",
            "otp_attacker_keyless.rcat": "S4",
        }
        for name, which in mapping.items():
            assert (
                run_source(spec_text(name)).exit_code == 0
            ) == check_security(inst, which).holds

    def test_inverse_files(self):
        inst = single_bit_instance()
        _, verdict = derive_decryption_inverse(inst)
        assert (
            run_source(spec_text("otp_decryption_inverse.rcat")).exit_code == 0
        ) == verdict.holds
        assert (
            run_source(spec_text("otp_encryption_from_inverse.rcat")).exit_code
            == 0
        ) == rebuild_encryption(inst).holds

    def test_sharing_files(self):
        result = secret_sharing_from_otp(single_bit_instance())
        assert (
            run_source(spec_text("sharing_recombination.rcat")).exit_code == 0
        ) == result.recombination.holds
        assert (
            run_source(spec_text("sharing_erase_left.rcat")).exit_code == 0
        ) == result.erase_left_share.holds
        assert (
            run_source(spec_text("sharing_erase_right.rcat")).exit_code == 0
        ) == result.erase_right_share.holds

    def test_exchange_file(self):
        inst = dh_instance(2)
        assert (
            run_source(spec_text("dh_exchange.rcat")).exit_code == 0
        ) == check_dh(inst).holds

    def test_group3_file(self):
        assert (
            run_source(spec_text("otp_group3.rcat")).exit_code == 0
        ) == check_correctness(group_instance(3)).holds

    def test_broken_file_matches_broken_checker(self):
        from relcat.generators import ControlledOp
        from relcat.protocols import ProtocolInstance
        from relcat.relations import identity

        inst = single_bit_instance()
        broken = ProtocolInstance(
            inst.plaintexts,
            inst.keys,
            inst.ciphertexts,
            inst.encrypt,
            ControlledOp(
                inst.ciphertexts,
                inst.keys,
                inst.plaintexts,
                (identity(2), identity(2)),
            ),
            inst.pad,
        )
        report = run_source(
            open(os.path.join(DATA_DIR, "otp_broken_decryption.rcat")).read()
        )
        assert (report.exit_code == 0) == check_correctness(broken).holds
