import glob
import json
import os
import sys

import pytest

from relcat import cells, dsl
from relcat.cells import equal, hcompose_two, tensor, vcompose
from relcat.dsl import (
    CheckReport,
    MAX_NESTING,
    ElaborationError,
    ParseError,
    check_equation,
    elaborate,
    evaluate_name,
    format_source,
    parse,
    run_source,
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


def _called_from_depth(frames: int, f, *args):
    """``f(*args)`` called from ``frames`` extra frames down the stack."""
    return f(*args) if frames == 0 else _called_from_depth(frames - 1, f, *args)


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
        from relcat.dsl import Chain, NameTerm

        term = sf.statements[-1].term
        assert isinstance(term, Chain) and term.op == ";"
        first, second = term.operands
        assert isinstance(first, Chain) and first.op == "*"
        assert second == NameTerm("D")

    def test_malformed_def_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("def = ;")
        assert err.value.line == 1 and err.value.col == 5

    def test_lex_error_location(self):
        with pytest.raises(ParseError) as err:
            parse("set K = 2\nset J = @")
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "body, what",
        [
            ("gen g : {type} -> 1 = {{}}", "types"),
            ("def x = id({type}) ; id(A)", "types"),
            ("def x = {term}", "terms"),
        ],
    )
    def test_deep_nesting_is_named_by_what_nests(self, body, what):
        # refused at the parenthesis that opens level MAX_NESTING + 1, from
        # any depth of the caller's stack
        n = 3000
        text = "set A = 2\n" + body.format(
            type="A * (" * n + "A" + ")" * n, term="(" * n + "id(A)" + ")" * n
        )
        col = {"gen": 513, "def x = id": 516, "def x = {": 109}
        col = next(c for start, c in col.items() if body.startswith(start))
        message = f"2:{col}: {what} nested too deeply, found '('"
        for extra_frames in (0, 100):
            with pytest.raises(ParseError) as info:
                _called_from_depth(extra_frames, parse, text)
            assert str(info.value) == message

    @pytest.mark.parametrize(
        "shape, extra_frames",
        [("chain", 0), ("mixed", 0), ("type in term", 0), ("chain", 200)],
    )
    def test_the_deepest_accepted_tree_compares_and_prints(self, shape, extra_frames):
        n, h = MAX_NESTING, MAX_NESTING // 2
        term = {
            "chain": "(id(A) ; " * n + "id(A)" + ")" * n,
            "mixed": "(id(A) * (id(A) . " * h + "id(A)" + "))" * h,
            "type in term": "(id(A) ; " * h
            + f"id({'A * (' * (n - h)}A{')' * (n - h)})"
            + ")" * h,
        }[shape]
        text = f"set A = 1\ndef x = {term}\ncheck x == x\n"

        def use():
            tree = parse(text)
            assert tree == parse(text) and hash(tree) == hash(parse(text))
            assert parse(format_source(tree)) == tree
            repr(tree)
            return run_source(text)

        assert _called_from_depth(extra_frames, use).exit_code == 0
        deeper = text.replace("def x = ", "def x = (").replace("\ncheck", ")\ncheck")
        with pytest.raises(ParseError, match=r"nested too deeply, found '\('"):
            parse(deeper)

    def test_the_deepest_accepted_type_compares_and_prints(self):
        n = MAX_NESTING
        text = f"set A = 1\ngen g : {'A * (' * n}A{')' * n} -> 1 = {{}}\n"
        tree = parse(text)
        assert tree == parse(text) and hash(tree) == hash(parse(text))
        assert parse(format_source(tree)) == tree
        repr(tree)
        with pytest.raises(ParseError, match=r"^2:513: types nested too deeply"):
            parse(text.replace(": A * (", ": A * (A * (").replace(" -> 1", ") -> 1"))

    def test_a_caller_without_stack_headroom_gets_a_parse_error(self):
        # an accepted file takes about five frames per level; a caller that
        # leaves fewer is refused with a located error, not a RecursionError
        n = MAX_NESTING
        text = f"set A = 1\ndef x = {'(' * n}id(A){')' * n}\n"
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            with pytest.raises(ParseError) as info:
                parse(text)
        finally:
            sys.setrecursionlimit(limit)
        assert "terms nested too deeply" in str(info.value)
        assert info.value.line == 2

    def test_precedence(self):
        sf = parse("set A = 2\ndef x = id(A) * id(A) ; id(A * A) . id(1)\n")
        from relcat.dsl import Chain

        term = sf.statements[-1].term
        assert isinstance(term, Chain) and term.op == ";"
        assert [t.op for t in term.operands] == ["*", "."]


class TestElaborator:
    def test_cup_codomain_is_square(self):
        env = elaborate(parse("set K = 2\ndef x = cup(K)\n"))
        assert env.cells["x"].codomain.fiber(0, 0).size == 4

    def test_cup_then_cap_is_scalar_endoterm(self):
        env = elaborate(parse("set K = 2\ndef x = cup(K) ; cap(K)\n"))
        cell = env.cells["x"]
        assert cell.domain.fiber(0, 0).size == 1
        assert cell.codomain.fiber(0, 0).size == 1

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

    def test_duplicate_label_is_located_at_its_set(self):
        with pytest.raises(ElaborationError) as err:
            elaborate(parse("set K = 2\n  set G = {e, g, e}\n"))
        assert (err.value.line, err.value.col) == (2, 3)
        assert "set 'G': labels must be pairwise distinct" in str(err.value)

    def test_dense_size_uses_integers_only(self):
        assert dsl.dense_size(1280) == "1280 dense bits (1.2 KiB)"  # half to even
        assert dsl.dense_size(1331) == "1331 dense bits (1.3 KiB)"
        below = 2**60 - 1
        assert dsl.dense_size(below) == f"{below} dense bits (1024.0 PiB)"
        assert dsl.dense_size(2**60) == "about 2^60 dense bits"
        assert dsl.dense_size(3 * 2**60) == "about 2^62 dense bits"  # 2^61.58
        assert dsl.dense_size(10**350) == "about 2^1163 dense bits"


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

    @pytest.mark.parametrize("n", [130, 200])
    def test_large_cup_then_cap_is_built(self, n):
        # the snake check is an n x n boolean product: n^2 bits, not n^4
        report = run_source(
            f"set K = {n}\ndef loop = cup(K) ; cap(K)\ndef unit = id(1)\n"
            "check loop == unit\n"
        )
        assert report.error is None and report.exit_code == 0

    def test_each_def_in_a_long_chain_is_read_by_name(self):
        # each def is built at its statement, so naming the one before it
        # does not nest: the depth of a chain of defs is not limited
        n = 1500
        text = "set A = 2\ndef x0 = id(A)\n" + "".join(
            f"def x{i} = x{i - 1} ; id(A)\n" for i in range(1, n)
        )
        report = run_source(text + f"check x{n - 1} == x0\n")
        assert report.error is None and report.exit_code == 0

    @pytest.mark.parametrize("op, size", [(";", 2), (".", 1), ("*", 1)])
    def test_long_chains_elaborate(self, op, size):
        # the left spine of a chain is walked in a loop, not by recursion
        n = 3000
        env = elaborate(
            parse(f"set A = {size}\ndef x = id(A){f' {op} id(A)' * n}\n")
        )
        assert env.cells["x"].codomain.fiber_sizes() == ((size,),)

    def test_horizontal_composite_builds_each_boundary_once(self, monkeypatch):
        # the charge is the product of the operands' dense sizes, so the only
        # composite one-cells built are the two boundaries of x
        built = []
        composite = cells.OneCell._composite

        def counted(cls, *args):
            built.append(composite(*args))
            return built[-1]

        monkeypatch.setattr(cells.OneCell, "_composite", classmethod(counted))
        env = elaborate(parse("set A = 2\ndef x = id(A) . id(A)\n"))
        x = env.cells["x"]
        assert built == [x.domain, x.codomain]

    def test_tensor_builds_each_boundary_once(self, monkeypatch):
        # the charge is the product of the operands' dense sizes, so the
        # only composite one-cells made are the tensor's own two boundaries
        calls = []
        tensor_one = cells.tensor_one

        def counted(a, b):
            calls.append((a, b))
            return tensor_one(a, b)

        monkeypatch.setattr(cells, "tensor_one", counted)
        monkeypatch.setattr(dsl, "tensor_one", counted, raising=False)
        elaborate(parse("set A = 2\ndef x = id(A) * id(A)\n"))
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "text, message, where",
        [
            (
                "set A = 3000\ndef x = id(A) * id(A)\n",
                "2:9: cell of 81000000000000 dense bits (73.7 TiB) exceeds "
                "the limit of 268435456",
                (2, 9),
            ),
            (
                "set A = 2\nset B = 3000\ndef y = cup(A) . id(B)\n"
                "def x = id(A) ; y * (delete(A) . id(B))\n",
                "4:17: cell of 648000000000000 dense bits (589.4 TiB) exceeds "
                "the limit of 268435456",
                (4, 17),
            ),
            (
                "set A = 2\nset B = 600\n"
                "def x = id(A) * (cup(A) . copy(B)) * delete(B)\n",
                "3:18: cell of 864000000 dense bits (824.0 MiB) exceeds "
                "the limit of 268435456",
                (3, 18),
            ),
        ],
    )
    def test_oversized_tensor_refusal_is_unchanged(self, text, message, where):
        # pinned from the charge of the tensor's built boundaries, the same
        # number as the product of its operands' dense sizes
        with pytest.raises(ElaborationError) as info:
            elaborate(parse(text))
        assert str(info.value) == message
        assert (info.value.line, info.value.col) == where

    @pytest.mark.parametrize(
        "text, message",
        [
            # inside a parenthesised first operand, which is spliced in
            (
                "set A = 2\nset B = 3\ndef x = (id(A) ; id(B)) ; id(B)\n",
                "3:18: cannot compose in sequence: first stage produces a "
                "2-element set, second consumes a 3-element set",
            ),
            (
                "set A = 2\nset B = 3\ndef x = (id(A) ; id(A)) ; id(B)\n",
                "3:27: cannot compose in sequence: first stage produces a "
                "2-element set, second consumes a 3-element set",
            ),
            (
                "set A = 2\nset B = 3\ndef x = (id(A) ; id(B)) . id(A)\n",
                "3:18: cannot compose in sequence: first stage produces a "
                "2-element set, second consumes a 3-element set",
            ),
            (
                "set A = 3000\nset B = 2\ndef x = (id(B) ; id(A) * id(A)) ; id(B)\n",
                "3:18: cell of 81000000000000 dense bits (73.7 TiB) exceeds "
                "the limit of 268435456",
            ),
            (
                "set A = 3000\ndef x = (id(A) * id(A) ; id(A)) ; id(A)\n",
                "2:10: cell of 81000000000000 dense bits (73.7 TiB) exceeds "
                "the limit of 268435456",
            ),
            (
                "set A = 3000\ndef x = (id(A) ; id(A)) * id(A) ; id(A)\n",
                "2:10: cell of 81000000000000 dense bits (73.7 TiB) exceeds "
                "the limit of 268435456",
            ),
            # inside a parenthesised later operand, which stays nested
            (
                "set A = 2\nset B = 3\ndef x = id(A) ; (id(A) ; id(B))\n",
                "3:26: cannot compose in sequence: first stage produces a "
                "2-element set, second consumes a 3-element set",
            ),
            (
                "set A = 2\nset B = 3\ndef x = id(A) ; (id(B) ; id(B))\n",
                "3:18: cannot compose in sequence: first stage produces a "
                "2-element set, second consumes a 3-element set",
            ),
            (
                "set A = 3000\ndef x = id(A) ; (id(A) ; id(A) * id(A))\n",
                "2:26: cell of 81000000000000 dense bits (73.7 TiB) exceeds "
                "the limit of 268435456",
            ),
            (
                "set A = 3000\ndef x = id(A) ; (id(A) * id(A) ; id(A))\n",
                "2:18: cell of 81000000000000 dense bits (73.7 TiB) exceeds "
                "the limit of 268435456",
            ),
        ],
    )
    def test_errors_in_nested_chains_are_located(self, text, message):
        # a mismatch is located at the operand that does not fit, and a
        # refusal at the first leaf of the refused chain
        with pytest.raises(ElaborationError) as info:
            elaborate(parse(text))
        assert str(info.value) == message
        line, col = message.split(":")[:2]
        assert (info.value.line, info.value.col) == (int(line), int(col))

    def test_tensor_charge_matches_the_built_composite(self, monkeypatch):
        charged = []
        monkeypatch.setattr(
            dsl, "_refuse_dense", lambda bits, line, col: charged.append(bits)
        )
        env = elaborate(
            parse("set A = 2\nset B = 3\ndef x = (cup(A) . copy(B)) * delete(A)\n")
        )
        x = env.cells["x"]
        assert charged[-1] == dsl._dense_bits(x.domain, x.codomain)

    def test_horizontal_charge_matches_the_built_composite(self, monkeypatch):
        charged = []
        monkeypatch.setattr(
            dsl, "_refuse_dense", lambda bits, line, col: charged.append(bits)
        )
        env = elaborate(
            parse("set A = 2\nset B = 3\ndef x = cup(A) . copy(B) . delete(A)\n")
        )
        x = env.cells["x"]
        # 2 * 3 * 1 elements in, 4 * 9 * 1 out
        assert charged[-1] == dsl._dense_bits(x.domain, x.codomain) == 6 * 36

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


# Every builtin at a small size, the controlled one with distinct sizes
# for its region and its two wires.
BUILTIN_CALLS = [
    "id(A)",
    "id(A * B)",
    "cup(A)",
    "cap(A)",
    "delete(A)",
    "create(A)",
    "copy(A)",
    "compare(A)",
    "delete_region(A)",
    "create_region(A)",
    "publish(A)",
    "sample(A)",
    "controlled(A, B -> B * A, {0: {0->(1,2)}, 1: {}, 2: {1->(0,0)}})",
    "controlled(B, A -> A, {0: {0->1}, 1: {2->2}})",
]


def _zero_cell_sizes(cell) -> tuple[int, int, int, int]:
    """The sizes of the 0-cells at both ends of a cell's two one-cells."""
    ends = (cell.domain.src, cell.domain.dst, cell.codomain.src, cell.codomain.dst)
    return tuple(x.size for x in ends)


class TestChargeTable:
    def test_every_builtin_is_listed(self):
        assert {c.split("(")[0] for c in BUILTIN_CALLS} == set(dsl.BUILTIN_OPS)

    @staticmethod
    def charges(monkeypatch) -> list[int]:
        """Every charge that `_refuse_dense` is asked to allow."""
        charged, refuse = [], dsl._refuse_dense

        def recording_refuse(bits, line, col):
            charged.append(bits)
            refuse(bits, line, col)

        monkeypatch.setattr(dsl, "_refuse_dense", recording_refuse)
        return charged

    @pytest.mark.parametrize("call", BUILTIN_CALLS)
    def test_no_relation_built_exceeds_the_charge(
        self, monkeypatch, record_built, call
    ):
        charged = self.charges(monkeypatch)
        with record_built() as built:
            report = run_source(
                f"set A = 3\nset B = 2\nbuiltin x = {call}\ncheck x == x\n"
            )
        assert report.exit_code == 0, report.error
        assert built and max(built) <= max(charged)

    @pytest.mark.parametrize("op", [".", "*"])
    def test_product_charge_matches_the_built_composite(self, monkeypatch, op):
        # every cell is a scalar, so `.` and `*` build fibers of the same
        # sizes: the product of their operands' dense sizes
        charged = []
        monkeypatch.setattr(
            dsl, "_refuse_dense", lambda bits, line, col: charged.append(bits)
        )
        for left in BUILTIN_CALLS:
            for right in BUILTIN_CALLS:
                env = elaborate(
                    parse(f"set A = 3\nset B = 2\ndef x = {left} {op} {right}\n")
                )
                x = env.cells["x"]
                assert charged[-1] == dsl._dense_bits(x.domain, x.codomain)

    def test_a_file_is_charged_for_every_cell_it_keeps(self):
        # four identities at |A| = 8000, 2.56e8 bits, are kept; a fifth
        # passes the limit at its own statement.  A cell kept under a
        # second name is charged once.
        defs = "".join(f"def x{i} = id(A)\n" for i in range(1, 5))
        text = f"set A = 8000\n{defs}def y = x4\ncheck x1 == y\n"
        assert run_source(text).exit_code == 0
        report = run_source(text.replace("def y", "def x5 = id(A)\ndef y"))
        assert report.error == (
            "6:1: cells kept by the file total 320000000 dense bits "
            "(305.2 MiB), over the limit of 268435456"
        )

    @pytest.mark.parametrize(
        "fifth",
        ["def x5 = id(A)", "def x5 = x1 ; x2 ; x3", "gen x5 : A -> A = {}"],
    )
    def test_a_refused_statement_builds_nothing(self, monkeypatch, record_built, fifth):
        # under a limit of 300 bits, four 8 x 8 identities are kept and a
        # fifth cell of 64 bits is refused before anything of it is built
        monkeypatch.setattr(dsl, "MAX_DENSE_BITS", 300)
        kept = "set A = 8\n" + "".join(f"def x{i} = id(A)\n" for i in range(1, 5))
        with record_built() as before:
            elaborate(parse(kept))
        with record_built() as built, pytest.raises(ElaborationError) as info:
            elaborate(parse(f"{kept}{fifth}\n"))
        assert str(info.value) == (
            "6:1: cells kept by the file total 320 dense bits (320.0 B), "
            "over the limit of 300"
        )
        assert built == before

    @pytest.mark.parametrize("call", BUILTIN_CALLS)
    def test_every_builtin_is_charged_at_least_its_cell(self, monkeypatch, call):
        # so a cell that is kept was charged with the cells kept before it
        charged = self.charges(monkeypatch)
        x = elaborate(parse(f"set A = 3\nset B = 2\nbuiltin x = {call}\n")).cells["x"]
        assert charged[0] >= dsl._dense_bits(x.domain, x.codomain)

    @pytest.mark.parametrize("call", BUILTIN_CALLS)
    def test_every_builtin_is_a_scalar(self, call):
        env = elaborate(parse(f"set A = 3\nset B = 2\nbuiltin x = {call}\n"))
        assert _zero_cell_sizes(env.cells["x"]) == (1, 1, 1, 1)

    def test_every_shipped_cell_is_a_scalar(self):
        files = spec_files() + sorted(glob.glob(os.path.join(DATA_DIR, "*.rcat")))
        sizes = []
        for path in files:
            with open(path, "r", encoding="utf-8") as handle:
                try:
                    env = elaborate(parse(handle.read()))
                except (ParseError, ElaborationError):
                    continue
            sizes += [_zero_cell_sizes(cell) for cell in env.cells.values()]
        assert len(sizes) >= 100 and set(sizes) == {(1, 1, 1, 1)}

    def test_oversized_composite_is_refused_before_it_is_built(
        self, monkeypatch, record_built
    ):
        # 26^4 bits for the inner product, 26^6 for the outer one
        assert 26**4 <= dsl.MAX_DENSE_BITS < 26**6
        charged = self.charges(monkeypatch)
        with record_built() as built:
            report = run_source(
                "set A = 26\ndef x = id(A) * id(A) * id(A)\ncheck x == x\n"
            )
        assert report.error == (
            "2:9: cell of 308915776 dense bits (294.6 MiB) exceeds the limit "
            "of 268435456"
        )
        assert charged[-1] == 26**6
        assert built and max(built) <= max(charged[:-1]) < 26**6


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

    def test_each_def_is_built_once(self, monkeypatch):
        # y is built at its def, then read by name from z and both checks
        calls = []

        def counted(a, b, _build=dsl.vcompose):
            calls.append(1)
            return _build(a, b)

        monkeypatch.setattr(dsl, "vcompose", counted)
        report = run_source(
            "set A = 2\ndef x = id(A)\ndef y = x ; x\ndef z = y * y\n"
            "check z == z\ncheck y == y\n"
        )
        assert report.exit_code == 0
        assert len(calls) == 1

    def test_unequal_with_witness(self):
        with open(os.path.join(DATA_DIR, "otp_broken_decryption.rcat")) as handle:
            report = run_source(handle.read())
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
        assert parse(format_source(sf)) == sf

    @pytest.mark.parametrize(
        "body",
        [
            f"gen g : A{' * A' * 2999} -> 1 = {{}}",
            f"builtin g = id(A * (A * A){' * A' * 2999})",
            f"def x = id(A){' ; id(A)' * 3000}",
            f"def x = id(A){' . id(A)' * 3000}",
            f"def x = id(A){' * id(A)' * 3000}",
            f"def x = id(A){' ; (id(A) . id(A)) * id(A) . id(A)' * 1000}",
        ],
        ids=["type", "builtin-type", ";", ".", "*", "mixed"],
    )
    def test_long_chains_round_trip(self, body):
        # a chain or a product is one node with a tuple of operands, so its
        # length costs no depth in the printer, ==, hash or repr
        text = f"set A = 1\n{body}\n"
        sf = parse(text)
        assert format_source(sf) == text
        assert parse(format_source(sf)) == sf
        assert hash(sf) == hash(parse(text))
        assert repr(sf).startswith("SourceFile(")

    def test_printed_text_is_pinned(self):
        # the round trip alone would pass a printer that added parentheses;
        # the golden holds the text printed for every file that parses
        printed = {}
        data_files = sorted(glob.glob(os.path.join(DATA_DIR, "*.rcat")))
        for path in spec_files() + data_files:
            with open(path, "r", encoding="utf-8") as handle:
                try:
                    sf = parse(handle.read())
                except ParseError:
                    continue
            key = f"{os.path.basename(os.path.dirname(path))}/{os.path.basename(path)}"
            printed[key] = format_source(sf)
        golden = os.path.join(DATA_DIR, "golden", "format_source.json")
        with open(golden, "r", encoding="utf-8") as handle:
            assert printed == json.load(handle)

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
        with open(os.path.join(DATA_DIR, "otp_broken_decryption.rcat")) as handle:
            report = run_source(handle.read())
        assert (report.exit_code == 0) == check_correctness(broken).holds
