"""Textual term language for building and checking relation cells.

A source file declares finite sets, generating cells (either by explicit
relation data or as builtin structure over a declared set), named composite
terms, and equality checks.  Grammar::

    file    := stmt*
    stmt    := set | gen | def | check
    set     := "set" IDENT "=" INT
             | "set" IDENT "=" "{" IDENT ("," IDENT)* "}"
    gen     := "gen" IDENT ":" type "->" type "=" reldata
             | "builtin" IDENT "=" builtincall
    def     := "def" IDENT "=" term
    check   := "check" IDENT "==" IDENT
    type    := IDENT | type "*" type | "1"
    term    := IDENT | builtincall | term ";" term | term "." term
             | term "*" term | "(" term ")"
    reldata := "{" pair ("," pair)* "}" | "{}"
    pair    := tuple "->" tuple
    tuple   := elem | "(" ")" | "(" elem ("," elem)* ")"
    elem    := INT | IDENT

Comments run from ``#`` to end of line.  The tokenizer is one compiled
pattern matched at successive offsets, with a branch each for newlines,
blanks, comments, identifiers, integers and punctuation; identifiers and
integers are ASCII only.  Operator precedence is ``*`` over
``.`` over ``;``, all left associative: ``;`` composes in time (left operand
first), ``.`` places cells side by side with the left operand on the left,
and ``*`` is the tensor with the left operand as the high digit.  Builtins:
``id, cup, cap, delete, create, copy, compare, delete_region,
create_region, publish, sample`` take a type argument;
``controlled(S, A -> B, {v: reldata, ...})`` takes one relation block per
public value.

A chain of one operator is one syntax node holding its operands in a
tuple, and a product type one node holding its factors, so the parser,
`evaluate` and the printer each read a chain of any length in one loop;
only parentheses nest.  A parenthesised first operand of the same operator
is spliced in, so ``(a ; b) ; c`` and ``a ; b ; c`` are the same tree.
At most `MAX_NESTING` parentheses may be open at once, in terms and types
together; a deeper file is refused at the parenthesis that opens the
extra level.
`elaborate` builds each cell once, at its statement.  Every build is
charged its dense size before it is made, alone and with the cells the
file keeps: `evaluate` types a composite from its operands' cells first.
A check compares two built cells by name.

Every cell the language can express is a scalar: a two-cell between
one-cells from the one-element 0-cell to itself, in which a region appears
only as a bubble.  So a ``.`` node and a ``*`` node have fibers of the same
sizes, and both are charged the product of their operands' dense sizes.  A
builtin whose cell had larger 0-cells would need a charge computed from
its fiber sizes instead.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, NamedTuple, Optional, Union

from relcat.cells import (
    OneCell,
    TwoCell,
    equal,
    hcompose_two,
    identity_one_cell,
    identity_two_cell,
    scalar_one_cell,
    tensor,
    vcompose,
)
from relcat.generators import (
    ControlledOp,
    canonical_cup,
    cap_cell,
    controlled_scalar,
    create_cell,
    cup_cell,
    delete_cell,
    region_structure,
    scalar_compare,
    scalar_copy,
)
from relcat.relations import (
    MAX_DENSE_BITS,
    FiniteSet,
    Rel,
    dense_size,
    make,
    product_set,
)

__all__ = [
    "MAX_NESTING",
    "CheckReport",
    "ElaborationError",
    "Env",
    "ParseError",
    "SourceFile",
    "SourceReport",
    "check_equation",
    "elaborate",
    "evaluate",
    "format_source",
    "parse",
    "run_source",
]


# ---------------------------------------------------------------------------
# Lexer.
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int, expected=()):
        self.line, self.col, self.expected = line, col, tuple(expected)
        extra = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{extra}")


class Token(NamedTuple):
    kind: str  # IDENT, INT, PUNCT, EOF
    text: str
    line: int
    col: int


# One branch per kind of lexeme, tried in this order at each offset.  `->`
# and `==` come before `=`.  Identifiers and integers are ASCII only:
# `str.isdigit` and `\d` also accept superscripts and other scripts' digits,
# which `int` then refuses or reads as decimals.
_LEXEME = re.compile(
    r"""
    (?P<NEWLINE>\n)
  | (?P<BLANK>[ \t\r]+)
  | (?P<COMMENT>\#[^\n]*)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<INT>[0-9]+)
  | (?P<PUNCT>->|==|[=:;.*(){},])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[Token]:
    out = []
    append, match = out.append, _LEXEME.match
    # `eof` is where the end-of-file token goes: a comment does not advance
    # the column, so a file that ends in one ends at its `#`
    line, line_start, pos, eof = 1, 0, 0, 0
    n = len(text)
    while pos < n:
        m = match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup
        if kind == "BLANK":
            eof = m.end()
        elif kind == "NEWLINE":
            line += 1
            line_start = eof = pos + 1
        elif kind == "COMMENT":
            eof = pos
        else:
            append(Token(kind, m.group(), line, pos - line_start + 1))
            eof = m.end()
        pos = m.end()
    append(Token("EOF", "", line, eof - line_start + 1))
    return out


# ---------------------------------------------------------------------------
# Syntax trees.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TypeExpr:
    pass


@dataclass(frozen=True)
class TypeUnit(TypeExpr):
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class TypeName(TypeExpr):
    name: str
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class TypeProd(TypeExpr):
    # two or more, the first never a product itself
    factors: tuple[TypeExpr, ...]


Elem = Union[int, str]
TuplePattern = tuple[Elem, ...]
RelData = tuple[tuple[TuplePattern, TuplePattern], ...]


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class NameTerm(Term):
    name: str
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BuiltinCall(Term):
    op: str
    type_args: tuple[TypeExpr, ...]
    blocks: tuple[tuple[Elem, RelData], ...] = ()
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


# Term operators from the loosest to the tightest binding.
_TERM_OPS = (";", ".", "*")


@dataclass(frozen=True)
class Chain(Term):
    op: str  # one of _TERM_OPS
    # two or more, left to right; the first is never a chain of `op`
    operands: tuple[Term, ...]


@dataclass(frozen=True)
class SetDecl:
    name: str
    size: int
    labels: Optional[tuple[str, ...]]
    line: int = field(compare=False)
    col: int = field(compare=False)


@dataclass(frozen=True)
class GenDecl:
    name: str
    dom: TypeExpr
    cod: TypeExpr
    data: RelData
    line: int = field(compare=False)
    col: int = field(compare=False)


@dataclass(frozen=True)
class BuiltinDecl:
    name: str
    call: BuiltinCall
    line: int = field(compare=False)
    col: int = field(compare=False)


@dataclass(frozen=True)
class DefDecl:
    name: str
    term: Term
    line: int = field(compare=False)
    col: int = field(compare=False)


@dataclass(frozen=True)
class CheckDecl:
    lhs: str
    rhs: str
    line: int = field(compare=False)
    col: int = field(compare=False)


Statement = Union[SetDecl, GenDecl, BuiltinDecl, DefDecl, CheckDecl]


@dataclass(frozen=True)
class SourceFile:
    statements: tuple[Statement, ...]


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


# The most parentheses a term or type may hold open at once, terms and
# types counted together.  The trees the parser accepts are then compared,
# hashed, printed and evaluated far inside Python's default recursion
# limit, which runs out at about 250 levels.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # parentheses open in terms and types

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, expected=()) -> ParseError:
        tok = self.peek()
        return ParseError(
            f"{message}, found {tok.text!r}" if tok.text else f"{message}, found end of file",
            tok.line,
            tok.col,
            expected,
        )

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise self.fail(f"expected {want!r}", (want,))
        return self.next()

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "PUNCT" and tok.text == text

    def parenthesised(self, parse_inner: Callable[[], object], what: str):
        """What `parse_inner` reads between parentheses, refused at the
        opening parenthesis beyond `MAX_NESTING`."""
        if self.depth == MAX_NESTING:
            raise self.fail(f"{what} nested too deeply")
        self.next()
        self.depth += 1
        inner = parse_inner()
        self.expect("PUNCT", ")")
        self.depth -= 1
        return inner

    def parse_file(self) -> SourceFile:
        statements = []
        keywords = {"set", "gen", "builtin", "def", "check"}
        while self.peek().kind != "EOF":
            tok = self.peek()
            if tok.kind != "IDENT" or tok.text not in keywords:
                raise self.fail("expected a statement", sorted(keywords))
            statements.append(getattr(self, f"parse_{tok.text}")())
        return SourceFile(tuple(statements))

    def parse_set(self) -> SetDecl:
        start = self.expect("IDENT", "set")
        name = self.expect("IDENT").text
        self.expect("PUNCT", "=")
        if self.peek().kind == "INT":
            size = int(self.next().text)
            return SetDecl(name, size, None, start.line, start.col)
        self.expect("PUNCT", "{")
        labels = [self.expect("IDENT").text]
        while self.at_punct(","):
            self.next()
            labels.append(self.expect("IDENT").text)
        self.expect("PUNCT", "}")
        return SetDecl(name, len(labels), tuple(labels), start.line, start.col)

    def parse_gen(self) -> GenDecl:
        start = self.expect("IDENT", "gen")
        name = self.expect("IDENT").text
        self.expect("PUNCT", ":")
        dom = self.parse_type()
        self.expect("PUNCT", "->")
        cod = self.parse_type()
        self.expect("PUNCT", "=")
        data = self.parse_reldata()
        return GenDecl(name, dom, cod, data, start.line, start.col)

    def parse_builtin(self) -> BuiltinDecl:
        start = self.expect("IDENT", "builtin")
        name = self.expect("IDENT").text
        self.expect("PUNCT", "=")
        call = self.parse_builtincall()
        return BuiltinDecl(name, call, start.line, start.col)

    def parse_def(self) -> DefDecl:
        start = self.expect("IDENT", "def")
        name = self.expect("IDENT").text
        self.expect("PUNCT", "=")
        term = self.parse_term()
        return DefDecl(name, term, start.line, start.col)

    def parse_check(self) -> CheckDecl:
        start = self.expect("IDENT", "check")
        lhs = self.expect("IDENT").text
        self.expect("PUNCT", "==")
        rhs = self.expect("IDENT").text
        return CheckDecl(lhs, rhs, start.line, start.col)

    def parse_type(self) -> TypeExpr:
        factors = [self.parse_type_atom()]
        while self.at_punct("*"):
            self.next()
            factors.append(self.parse_type_atom())
        if len(factors) == 1:
            return factors[0]
        if isinstance(factors[0], TypeProd):  # parenthesised
            factors[:1] = factors[0].factors
        return TypeProd(tuple(factors))

    def parse_type_atom(self) -> TypeExpr:
        tok = self.peek()
        if tok.kind == "INT" and tok.text == "1":
            self.next()
            return TypeUnit(tok.line, tok.col)
        if tok.kind == "IDENT":
            self.next()
            return TypeName(tok.text, tok.line, tok.col)
        if self.at_punct("("):
            return self.parenthesised(self.parse_type, "types")
        raise self.fail("expected a type", ("IDENT", "1", "("))

    def parse_reldata(self) -> RelData:
        self.expect("PUNCT", "{")
        if self.at_punct("}"):
            self.next()
            return ()
        pairs = [self.parse_pair()]
        while self.at_punct(","):
            self.next()
            pairs.append(self.parse_pair())
        self.expect("PUNCT", "}")
        return tuple(pairs)

    def parse_pair(self) -> tuple[TuplePattern, TuplePattern]:
        src = self.parse_tuple()
        self.expect("PUNCT", "->")
        dst = self.parse_tuple()
        return (src, dst)

    def parse_tuple(self) -> TuplePattern:
        if self.at_punct("("):
            self.next()
            if self.at_punct(")"):
                self.next()
                return ()
            elems = [self.parse_elem()]
            while self.at_punct(","):
                self.next()
                elems.append(self.parse_elem())
            self.expect("PUNCT", ")")
            return tuple(elems)
        return (self.parse_elem(),)

    def parse_elem(self) -> Elem:
        tok = self.peek()
        if tok.kind == "INT":
            self.next()
            return int(tok.text)
        if tok.kind == "IDENT":
            self.next()
            return tok.text
        raise self.fail("expected an element", ("INT", "IDENT"))

    def parse_builtincall(self) -> BuiltinCall:
        tok = self.expect("IDENT")
        if tok.text not in BUILTIN_OPS:
            raise ParseError(
                f"unknown builtin {tok.text!r}",
                tok.line,
                tok.col,
                BUILTIN_OPS,
            )
        self.expect("PUNCT", "(")
        if tok.text == "controlled":
            public = self.parse_type()
            self.expect("PUNCT", ",")
            dom = self.parse_type()
            self.expect("PUNCT", "->")
            cod = self.parse_type()
            self.expect("PUNCT", ",")
            blocks = self.parse_blocks()
            self.expect("PUNCT", ")")
            return BuiltinCall(
                "controlled", (public, dom, cod), blocks, tok.line, tok.col
            )
        arg = self.parse_type()
        self.expect("PUNCT", ")")
        return BuiltinCall(tok.text, (arg,), (), tok.line, tok.col)

    def parse_blocks(self) -> tuple[tuple[Elem, RelData], ...]:
        self.expect("PUNCT", "{")
        blocks = [self.parse_block()]
        while self.at_punct(","):
            self.next()
            blocks.append(self.parse_block())
        self.expect("PUNCT", "}")
        return tuple(blocks)

    def parse_block(self) -> tuple[Elem, RelData]:
        key = self.parse_elem()
        self.expect("PUNCT", ":")
        return (key, self.parse_reldata())

    def parse_term(self, level: int = 0) -> Term:
        """A chain of `_TERM_OPS[level]`, or its only operand.  An operand
        is a term of the next level, or an atom at the last level."""
        op, last = _TERM_OPS[level], level + 1 == len(_TERM_OPS)
        operands = [self.parse_atom() if last else self.parse_term(level + 1)]
        while self.at_punct(op):
            self.next()
            operands.append(self.parse_atom() if last else self.parse_term(level + 1))
        if len(operands) == 1:
            return operands[0]
        first = operands[0]
        if isinstance(first, Chain) and first.op == op:  # parenthesised
            operands[:1] = first.operands
        return Chain(op, tuple(operands))

    def parse_atom(self) -> Term:
        tok = self.peek()
        if self.at_punct("("):
            return self.parenthesised(self.parse_term, "terms")
        if tok.kind == "IDENT":
            if tok.text in BUILTIN_OPS:
                return self.parse_builtincall()
            self.next()
            return NameTerm(tok.text, tok.line, tok.col)
        raise self.fail("expected a term", ("IDENT", "("))


def parse(text: str) -> SourceFile:
    parser = _Parser(_tokenize(text))
    try:
        return parser.parse_file()
    except RecursionError:
        # a level costs about five frames, so an accepted file needs about
        # 500 of them; a caller with less headroom is refused, not crashed
        raise parser.fail("terms nested too deeply") from None


# ---------------------------------------------------------------------------
# Elaboration and evaluation.
# ---------------------------------------------------------------------------


class ElaborationError(ValueError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line, self.col = line, col
        super().__init__(f"{line}:{col}: {message}" if line else message)


def _refuse_dense(bits: int, line: int, col: int) -> None:
    """Refuse a cell before it is built when its bit matrices are too large."""
    if bits > MAX_DENSE_BITS:
        raise ElaborationError(
            f"cell of {dense_size(bits)} exceeds the limit of {MAX_DENSE_BITS}",
            line,
            col,
        )


def _dense_bits(domain: OneCell, codomain: OneCell) -> int:
    """Bits in the component matrices of a two-cell between these one-cells."""
    sizes = zip(domain.sizes.ravel().tolist(), codomain.sizes.ravel().tolist())
    return sum(a * b for a, b in sizes)


@dataclass
class Env:
    sets: dict[str, FiniteSet] = field(default_factory=dict)
    cells: dict[str, TwoCell] = field(default_factory=dict)
    controlled: dict[str, ControlledOp] = field(default_factory=dict)
    checks: list[CheckDecl] = field(default_factory=list)
    # label -> element, for each set an element was named in
    label_index: dict[FiniteSet, dict[str, int]] = field(
        default_factory=dict, repr=False
    )
    # the bits of the distinct cells in `cells`, and where the statement
    # being elaborated starts: each build is charged with them
    kept_bits: int = 0
    statement: tuple[int, int] = (0, 0)


def _charge(env: Env, bits: int, line: int, col: int) -> None:
    """Refuse a build of `bits` before it is made: alone over the limit,
    at (line, col), or together with the cells the file keeps, at the
    statement."""
    _refuse_dense(bits, line, col)
    total = env.kept_bits + bits
    if total > MAX_DENSE_BITS:
        raise ElaborationError(
            f"cells kept by the file total {dense_size(total)}, "
            f"over the limit of {MAX_DENSE_BITS}",
            *env.statement,
        )


def _flatten_type(env: Env, t: TypeExpr) -> list[FiniteSet]:
    """The factors of a type, left to right; the unit type has none."""
    if isinstance(t, TypeName):
        if t.name not in env.sets:
            raise ElaborationError(f"unknown set {t.name!r}", t.line, t.col)
        return [env.sets[t.name]]
    if isinstance(t, TypeUnit):
        return []
    factors = []
    for factor in t.factors:
        factors += _flatten_type(env, factor)
    return factors


def _fiber(factors: list[FiniteSet]) -> FiniteSet:
    """The elements of a type with these factors, the left one high."""
    return reduce(product_set, factors) if factors else FiniteSet(1)


def _type_one_cell(factors: list[FiniteSet], fiber: FiniteSet) -> OneCell:
    return scalar_one_cell(fiber) if factors else identity_one_cell(fiber)


def _resolve_elem(env: Env, factor: FiniteSet, elem: Elem, where) -> int:
    if isinstance(elem, int):
        if not 0 <= elem < factor.size:
            raise ElaborationError(
                f"element {elem} out of range for a set of size {factor.size}",
                where.line,
                where.col,
            )
        return elem
    index = env.label_index.get(factor)
    if index is None:
        index = env.label_index[factor] = {
            label: i for i, label in enumerate(factor.labels or ())
        }
    if elem in index:
        return index[elem]
    raise ElaborationError(
        f"unknown element label {elem!r}", where.line, where.col
    )


def _encode_tuple(
    env: Env, factors: list[FiniteSet], pattern: TuplePattern, where
) -> int:
    if len(pattern) != len(factors):
        raise ElaborationError(
            f"tuple {pattern!r} has {len(pattern)} components, type has "
            f"{len(factors)} factors",
            where.line,
            where.col,
        )
    index = 0
    for factor, elem in zip(factors, pattern):
        index = index * factor.size + _resolve_elem(env, factor, elem, where)
    return index


def _build_rel(
    env: Env,
    dom: list[FiniteSet],
    cod: list[FiniteSet],
    data: RelData,
    where,
) -> Rel:
    """The relation `data` between types with these factors."""
    src, dst = _fiber(dom), _fiber(cod)
    _charge(env, src.size * dst.size, where.line, where.col)
    pairs = [
        (_encode_tuple(env, dom, a, where), _encode_tuple(env, cod, b, where))
        for a, b in data
    ]
    return make(src, dst, pairs)


# Each builtin but `controlled`, with the exponent k of its charge and the
# function that builds its cell from its argument's factors and elements.
# On an n-element set it builds at most n ** k bits in one matrix: a cup or
# cap is an n x n matrix, and a region's largest matrix is its scalar copy
# or compare, n x n^2.  The region's bound also keeps its n^2 Python-level
# components few.  A controlled cell is charged as its region or as its
# scalar form, n^2 * |in| * |out|, whichever is larger.
_REGION_BITS_EXPONENT = 3
_BUILTINS: dict[str, tuple[int, Callable[[list[FiniteSet], FiniteSet], TwoCell]]] = {
    "id": (2, lambda factors, s: identity_two_cell(_type_one_cell(factors, s))),
    "cup": (2, lambda _, s: cup_cell(canonical_cup(s))),
    "cap": (2, lambda _, s: cap_cell(canonical_cup(s))),
    "delete": (1, lambda _, s: delete_cell(s)),
    "create": (1, lambda _, s: create_cell(s)),
    "copy": (3, lambda _, s: scalar_copy(region_structure(s))),
    "compare": (3, lambda _, s: scalar_compare(region_structure(s))),
    "delete_region": (3, lambda _, s: region_structure(s).delete_region),
    "create_region": (3, lambda _, s: region_structure(s).create_region),
    "publish": (3, lambda _, s: region_structure(s).publish),
    "sample": (3, lambda _, s: region_structure(s).sample),
}
BUILTIN_OPS = (*_BUILTINS, "controlled")


def _builtin_binding(
    env: Env, call: BuiltinCall
) -> tuple[TwoCell, Optional[ControlledOp]]:
    """The cell of a builtin call, with its relation blocks if it is a
    controlled cell."""
    op = call.op
    factors = [_flatten_type(env, t) for t in call.type_args]
    if op == "controlled":
        public, in_set, out_set = map(_fiber, factors)
        n = public.size
        bits = max(n**_REGION_BITS_EXPONENT, n * n * in_set.size * out_set.size)
        _charge(env, bits, call.line, call.col)
        by_value: dict[int, Rel] = {}
        for key, data in call.blocks:
            v = _resolve_elem(env, public, key, call)
            if v in by_value:
                raise ElaborationError(
                    f"public value {key!r} given twice", call.line, call.col
                )
            by_value[v] = _build_rel(env, factors[1], factors[2], data, call)
        missing = [v for v in range(public.size) if v not in by_value]
        if missing:
            raise ElaborationError(
                f"controlled cell is missing blocks for public values "
                f"{[public.label(v) for v in missing]}",
                call.line,
                call.col,
            )
        op_data = ControlledOp(
            public, in_set, out_set, tuple(by_value[v] for v in range(public.size))
        )
        return controlled_scalar(op_data), op_data
    exponent, build = _BUILTINS[op]
    fiber = _fiber(factors[0])
    _charge(env, fiber.size**exponent, call.line, call.col)
    return build(factors[0], fiber), None


def _describe(cell: OneCell) -> str:
    return f"{cell.fiber(0, 0).size}-element set"


def evaluate(env: Env, term: Term) -> TwoCell:
    """The cell a term denotes.

    A chain's operands are evaluated left to right in one loop.  Each step
    is charged by its dense size before its composite is built, and the
    charge is located at the chain's first leaf.  Every cell is a scalar,
    so a `.` step is charged as a `*` step is.
    """
    if isinstance(term, NameTerm):
        if term.name not in env.cells:
            raise ElaborationError(
                f"unknown cell {term.name!r}", term.line, term.col
            )
        return env.cells[term.name]
    if isinstance(term, BuiltinCall):
        return _builtin_binding(env, term)[0]
    if not isinstance(term, Chain):
        raise AssertionError(term)
    cell = evaluate(env, term.operands[0])
    where = _term_pos(term)
    for operand in term.operands[1:]:
        left, right = cell, evaluate(env, operand)
        if term.op == ";":
            if left.codomain.fiber_sizes() != right.domain.fiber_sizes():
                raise ElaborationError(
                    f"cannot compose in sequence: first stage produces a "
                    f"{_describe(left.codomain)}, second consumes a "
                    f"{_describe(right.domain)}",
                    *_term_pos(operand),
                )
            _charge(env, _dense_bits(left.domain, right.codomain), *where)
            cell = vcompose(left, right)
        else:
            # each component is a product of one from each side
            bits = _dense_bits(left.domain, left.codomain)
            _charge(env, bits * _dense_bits(right.domain, right.codomain), *where)
            # `.` applies its right operand first
            cell = hcompose_two(right, left) if term.op == "." else tensor(left, right)
    return cell


def _term_pos(term: Term) -> tuple[int, int]:
    """Where a term starts: at its first leaf."""
    while isinstance(term, Chain):
        term = term.operands[0]
    return (term.line, term.col)


def elaborate(sf: SourceFile) -> Env:
    """Check declarations in order, building each cell at its statement."""
    env = Env()
    kept = set()  # the distinct cells in `env.cells`, by id
    for stmt in sf.statements:
        env.statement = (stmt.line, stmt.col)
        if isinstance(stmt, SetDecl):
            _declare(env, stmt.name, stmt)
            try:
                env.sets[stmt.name] = FiniteSet(stmt.size, stmt.labels)
            except ValueError as exc:  # labels repeated
                raise ElaborationError(
                    f"set {stmt.name!r}: {exc}", stmt.line, stmt.col
                ) from None
        elif isinstance(stmt, GenDecl):
            _declare(env, stmt.name, stmt)
            dom, cod = _flatten_type(env, stmt.dom), _flatten_type(env, stmt.cod)
            rel = _build_rel(env, dom, cod, stmt.data, stmt)
            env.cells[stmt.name] = TwoCell(
                _type_one_cell(dom, rel.src),
                _type_one_cell(cod, rel.dst),
                ((rel,),),
            )
        elif isinstance(stmt, BuiltinDecl):
            _declare(env, stmt.name, stmt)
            cell, op = _builtin_binding(env, stmt.call)
            env.cells[stmt.name] = cell
            if op is not None:
                env.controlled[stmt.name] = op
        elif isinstance(stmt, DefDecl):
            _declare(env, stmt.name, stmt)
            try:
                env.cells[stmt.name] = evaluate(env, stmt.term)
            except RecursionError:
                raise ElaborationError(
                    "term nested too deeply", stmt.line, stmt.col
                ) from None
        elif isinstance(stmt, CheckDecl):
            for name in (stmt.lhs, stmt.rhs):
                if name not in env.cells:
                    raise ElaborationError(
                        f"check refers to unknown cell {name!r}",
                        stmt.line,
                        stmt.col,
                    )
            env.checks.append(stmt)
        else:
            raise AssertionError(stmt)
        # a kept cell lives until the file is done: count each once.  It
        # was charged at least its bits with those kept before it.
        cell = env.cells.get(getattr(stmt, "name", None))
        if cell is not None and id(cell) not in kept:
            kept.add(id(cell))
            env.kept_bits += _dense_bits(cell.domain, cell.codomain)
    return env


def _declare(env: Env, name: str, stmt) -> None:
    if name in env.sets or name in env.cells:
        raise ElaborationError(
            f"{name!r} is already declared", stmt.line, stmt.col
        )


def evaluate_name(env: Env, name: str) -> TwoCell:
    return env.cells[name]


# ---------------------------------------------------------------------------
# Checking.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckReport:
    name: str
    verdict: str  # "equal", "unequal", "type-error"
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict == "equal"


def check_equation(env: Env, lhs: str, rhs: str) -> CheckReport:
    name = f"{lhs} == {rhs}"
    left, right = evaluate_name(env, lhs), evaluate_name(env, rhs)
    if (
        left.domain.fiber_sizes() != right.domain.fiber_sizes()
        or left.codomain.fiber_sizes() != right.codomain.fiber_sizes()
    ):
        return CheckReport(
            name,
            "type-error",
            f"sides have different boundaries: {lhs} is "
            f"{_describe(left.domain)} -> {_describe(left.codomain)}, "
            f"{rhs} is {_describe(right.domain)} -> "
            f"{_describe(right.codomain)}",
        )
    res = equal(left, right)
    if res.equal:
        return CheckReport(name, "equal")
    return CheckReport(name, "unequal", res.difference.describe())


@dataclass(frozen=True)
class SourceReport:
    checks: tuple[CheckReport, ...]
    error: Optional[str] = None

    @property
    def exit_code(self) -> int:
        if self.error is not None:
            return 2
        return 0 if all(c.passed for c in self.checks) else 1


def run_source(text: str) -> SourceReport:
    """Parse, elaborate, and run every check statement of a source file.

    A source without a check statement is an error, not a vacuous pass.
    """
    try:
        env = elaborate(parse(text))
        reports = tuple(
            check_equation(env, c.lhs, c.rhs) for c in env.checks
        )
    except (ParseError, ElaborationError) as exc:
        return SourceReport((), str(exc))
    if not reports:
        return SourceReport((), "the source has no check statement")
    return SourceReport(reports)


# ---------------------------------------------------------------------------
# Pretty-printing.
# ---------------------------------------------------------------------------


def _format_type(t: TypeExpr, nested: bool = False) -> str:
    """A type's source text, in parentheses if it is a product nested in
    one.  Factors are printed in a plain loop, not a generator, so that a
    parenthesis costs the printer fewer frames than the parser."""
    if isinstance(t, TypeUnit):
        return "1"
    if isinstance(t, TypeName):
        return t.name
    parts = []
    for factor in t.factors:
        parts.append(_format_type(factor, nested=True))
    text = " * ".join(parts)
    return f"({text})" if nested else text


def _format_elem(e: Elem) -> str:
    return str(e)


def _format_tuple(t: TuplePattern) -> str:
    if len(t) == 1:
        return _format_elem(t[0])
    return "(" + ",".join(_format_elem(e) for e in t) + ")"


def _format_reldata(data: RelData) -> str:
    if not data:
        return "{}"
    body = ", ".join(
        f"{_format_tuple(a)}->{_format_tuple(b)}" for a, b in data
    )
    return "{" + body + "}"


def _format_call(call: BuiltinCall) -> str:
    if call.op == "controlled":
        public, dom, cod = call.type_args
        blocks = ", ".join(
            f"{_format_elem(key)}: {_format_reldata(data)}"
            for key, data in call.blocks
        )
        return (
            f"controlled({_format_type(public)}, {_format_type(dom)} -> "
            f"{_format_type(cod)}, {{{blocks}}})"
        )
    return f"{call.op}({_format_type(call.type_args[0])})"


def _format_term(term: Term, parent: int = 0) -> str:
    """A term's source text, in parentheses if its operator comes before
    `_TERM_OPS[parent]`, binding looser.  A chain's first operand may bind
    as loosely as the chain, and the others must bind tighter."""
    if isinstance(term, NameTerm):
        return term.name
    if isinstance(term, BuiltinCall):
        return _format_call(term)
    level = _TERM_OPS.index(term.op)
    parts = []
    for i, operand in enumerate(term.operands):
        parts.append(_format_term(operand, level + (i > 0)))
    text = f" {term.op} ".join(parts)
    return text if level >= parent else f"({text})"


def format_source(sf: SourceFile) -> str:
    lines = []
    for stmt in sf.statements:
        if isinstance(stmt, SetDecl):
            if stmt.labels is not None:
                lines.append(
                    f"set {stmt.name} = {{{', '.join(stmt.labels)}}}"
                )
            else:
                lines.append(f"set {stmt.name} = {stmt.size}")
        elif isinstance(stmt, GenDecl):
            lines.append(
                f"gen {stmt.name} : {_format_type(stmt.dom)} -> "
                f"{_format_type(stmt.cod)} = {_format_reldata(stmt.data)}"
            )
        elif isinstance(stmt, BuiltinDecl):
            lines.append(f"builtin {stmt.name} = {_format_call(stmt.call)}")
        elif isinstance(stmt, DefDecl):
            lines.append(f"def {stmt.name} = {_format_term(stmt.term)}")
        elif isinstance(stmt, CheckDecl):
            lines.append(f"check {stmt.lhs} == {stmt.rhs}")
    return "\n".join(lines) + "\n"
