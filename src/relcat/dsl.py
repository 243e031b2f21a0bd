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

Comments run from ``#`` to end of line.  Operator precedence is ``*`` over
``.`` over ``;``, all left associative: ``;`` composes in time (left operand
first), ``.`` places cells side by side with the left operand on the left,
and ``*`` is the tensor with the left operand as the high digit.  Builtins:
``id, cup, cap, delete, create, copy, compare, delete_region,
create_region, publish, sample`` take a type argument;
``controlled(S, A -> B, {v: reldata, ...})`` takes one relation block per
public value.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Union

from relcat.cells import (
    OneCell,
    TwoCell,
    equal,
    hcompose_one,
    hcompose_two,
    identity_one_cell,
    identity_two_cell,
    scalar_one_cell,
    tensor,
    tensor_one,
    vcompose,
)
from relcat.generators import (
    ControlledOp,
    DualityPair,
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
from relcat.relations import FiniteSet, Rel, make, product_set

__all__ = [
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
    "structural_key",
]


# ---------------------------------------------------------------------------
# Lexer.
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int, expected=()):
        self.line, self.col, self.expected = line, col, tuple(expected)
        extra = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{extra}")


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT, INT, PUNCT, EOF
    text: str
    line: int
    col: int


_PUNCT = ("->", "==", "=", ":", ";", ".", "*", "(", ")", "{", "}", ",")
_IDENT_START = set(string.ascii_letters + "_")
_IDENT_CONT = set(string.ascii_letters + string.digits + "_")


def _tokenize(text: str) -> list[Token]:
    out = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line, col, i = line + 1, 1, i + 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in _IDENT_START:
            start = i
            while i < n and text[i] in _IDENT_CONT:
                i += 1
            out.append(Token("IDENT", text[start:i], line, col))
            col += i - start
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            out.append(Token("INT", text[start:i], line, col))
            col += i - start
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                out.append(Token("PUNCT", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    out.append(Token("EOF", "", line, col))
    return out


# ---------------------------------------------------------------------------
# Syntax trees.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TypeExpr:
    pass


@dataclass(frozen=True)
class TypeUnit(TypeExpr):
    line: int = 0
    col: int = 0


@dataclass(frozen=True)
class TypeName(TypeExpr):
    name: str
    line: int = 0
    col: int = 0


@dataclass(frozen=True)
class TypeProd(TypeExpr):
    left: TypeExpr
    right: TypeExpr


Elem = Union[int, str]
TuplePattern = tuple[Elem, ...]
RelData = tuple[tuple[TuplePattern, TuplePattern], ...]


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class NameTerm(Term):
    name: str
    line: int = 0
    col: int = 0


@dataclass(frozen=True)
class BuiltinCall(Term):
    op: str
    type_args: tuple[TypeExpr, ...]
    blocks: tuple[tuple[Elem, RelData], ...] = ()
    line: int = 0
    col: int = 0


@dataclass(frozen=True)
class SeqTerm(Term):
    first: Term
    second: Term


@dataclass(frozen=True)
class HorizTerm(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class ParTerm(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class SetDecl:
    name: str
    size: int
    labels: Optional[tuple[str, ...]]
    line: int
    col: int


@dataclass(frozen=True)
class GenDecl:
    name: str
    dom: TypeExpr
    cod: TypeExpr
    data: RelData
    line: int
    col: int


@dataclass(frozen=True)
class BuiltinDecl:
    name: str
    call: BuiltinCall
    line: int
    col: int


@dataclass(frozen=True)
class DefDecl:
    name: str
    term: Term
    line: int
    col: int


@dataclass(frozen=True)
class CheckDecl:
    lhs: str
    rhs: str
    line: int
    col: int


Statement = Union[SetDecl, GenDecl, BuiltinDecl, DefDecl, CheckDecl]


@dataclass(frozen=True)
class SourceFile:
    statements: tuple[Statement, ...]


BUILTIN_OPS = (
    "id",
    "cup",
    "cap",
    "delete",
    "create",
    "copy",
    "compare",
    "delete_region",
    "create_region",
    "publish",
    "sample",
    "controlled",
)


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

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
        left = self.parse_type_atom()
        while self.at_punct("*"):
            self.next()
            left = TypeProd(left, self.parse_type_atom())
        return left

    def parse_type_atom(self) -> TypeExpr:
        tok = self.peek()
        if tok.kind == "INT" and tok.text == "1":
            self.next()
            return TypeUnit(tok.line, tok.col)
        if tok.kind == "IDENT":
            self.next()
            return TypeName(tok.text, tok.line, tok.col)
        if self.at_punct("("):
            self.next()
            inner = self.parse_type()
            self.expect("PUNCT", ")")
            return inner
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

    # term precedence: * > . > ; (all left-associative)
    def parse_term(self) -> Term:
        left = self.parse_horiz()
        while self.at_punct(";"):
            self.next()
            left = SeqTerm(left, self.parse_horiz())
        return left

    def parse_horiz(self) -> Term:
        left = self.parse_par()
        while self.at_punct("."):
            self.next()
            left = HorizTerm(left, self.parse_par())
        return left

    def parse_par(self) -> Term:
        left = self.parse_atom()
        while self.at_punct("*"):
            self.next()
            left = ParTerm(left, self.parse_atom())
        return left

    def parse_atom(self) -> Term:
        tok = self.peek()
        if self.at_punct("("):
            self.next()
            inner = self.parse_term()
            self.expect("PUNCT", ")")
            return inner
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
        raise parser.fail("terms nested too deeply") from None


# ---------------------------------------------------------------------------
# Elaboration and evaluation.
# ---------------------------------------------------------------------------


class ElaborationError(ValueError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line, self.col = line, col
        super().__init__(f"{line}:{col}: {message}" if line else message)


# The most bits one dense matrix of a source file may hold.  A bit takes a
# byte, and a large composition casts its operands to float32 besides.
MAX_DENSE_BITS = 1 << 28


def _refuse_dense(bits: int, line: int, col: int) -> None:
    """Refuse a cell before it is built when its bit matrices are too large."""
    if bits > MAX_DENSE_BITS:
        scale = min(5, (bits.bit_length() - 1) // 10)
        size = f"{bits / 1024**scale:.1f} {('B KiB MiB GiB TiB PiB').split()[scale]}"
        raise ElaborationError(
            f"cell of {bits} dense bits ({size}) exceeds the limit of "
            f"{MAX_DENSE_BITS}",
            line,
            col,
        )


def _dense_bits(domain: OneCell, codomain: OneCell) -> int:
    """Bits in the component matrices of a two-cell between these one-cells."""
    return sum(
        a * b
        for row_a, row_b in zip(domain.fiber_sizes(), codomain.fiber_sizes())
        for a, b in zip(row_a, row_b)
    )


# Each builtin on an n-element set holds at most n ** k bits in one matrix,
# counting the axioms checked while it is built: a cup's snake equations
# tensor it with a wire, a region's Frobenius check tensors its scalar
# compare with a wire.
_BUILTIN_BITS_EXPONENT = {"id": 2, "cup": 4, "cap": 4, "delete": 1, "create": 1}
_REGION_BITS_EXPONENT = 5


@dataclass
class TypedTerm:
    """A term annotated with its boundary one-cells.  A builtin call keeps
    the cell built while typing it, so evaluation does not build it again."""

    node: Term
    domain: OneCell
    codomain: OneCell
    children: tuple["TypedTerm", ...] = ()
    cell: Optional[TwoCell] = None


@dataclass
class CellBinding:
    name: str
    typed: TypedTerm
    cell: Optional[TwoCell] = None  # for generators and builtins
    controlled: Optional[ControlledOp] = None
    duality: Optional[DualityPair] = None


@dataclass
class Env:
    sets: dict[str, FiniteSet] = field(default_factory=dict)
    cells: dict[str, CellBinding] = field(default_factory=dict)
    checks: list[CheckDecl] = field(default_factory=list)


def _flatten_type(env: Env, t: TypeExpr) -> list[FiniteSet]:
    if isinstance(t, TypeUnit):
        return []
    if isinstance(t, TypeName):
        if t.name not in env.sets:
            raise ElaborationError(f"unknown set {t.name!r}", t.line, t.col)
        return [env.sets[t.name]]
    if isinstance(t, TypeProd):
        return _flatten_type(env, t.left) + _flatten_type(env, t.right)
    raise AssertionError(t)


def _type_fiber(env: Env, t: TypeExpr) -> FiniteSet:
    factors = _flatten_type(env, t)
    if not factors:
        return FiniteSet(1)
    fiber = factors[0]
    for f in factors[1:]:
        fiber = product_set(fiber, f)
    return fiber


def _type_one_cell(env: Env, t: TypeExpr) -> OneCell:
    factors = _flatten_type(env, t)
    if not factors:
        return identity_one_cell(FiniteSet(1))
    fiber = factors[0]
    for f in factors[1:]:
        fiber = product_set(fiber, f)
    return scalar_one_cell(fiber)


def _resolve_elem(factor: FiniteSet, elem: Elem, where) -> int:
    if isinstance(elem, int):
        if not 0 <= elem < factor.size:
            raise ElaborationError(
                f"element {elem} out of range for a set of size {factor.size}",
                where.line,
                where.col,
            )
        return elem
    if factor.labels is not None and elem in factor.labels:
        return factor.labels.index(elem)
    raise ElaborationError(
        f"unknown element label {elem!r}", where.line, where.col
    )


def _encode_tuple(
    factors: list[FiniteSet], pattern: TuplePattern, where
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
        index = index * factor.size + _resolve_elem(factor, elem, where)
    return index


def _build_rel(
    env: Env,
    dom: TypeExpr,
    cod: TypeExpr,
    data: RelData,
    where,
) -> Rel:
    dom_factors = _flatten_type(env, dom)
    cod_factors = _flatten_type(env, cod)
    src = _type_fiber(env, dom)
    dst = _type_fiber(env, cod)
    _refuse_dense(src.size * dst.size, where.line, where.col)
    pairs = [
        (
            _encode_tuple(dom_factors, a, where),
            _encode_tuple(cod_factors, b, where),
        )
        for a, b in data
    ]
    return make(src, dst, pairs)


def _builtin_binding(env: Env, call: BuiltinCall, name: str) -> CellBinding:
    op = call.op
    if op == "controlled":
        public_t, dom_t, cod_t = call.type_args
        public = _type_fiber(env, public_t)
        in_f = _flatten_type(env, dom_t)
        out_f = _flatten_type(env, cod_t)
        in_set = _type_fiber(env, dom_t)
        out_set = _type_fiber(env, cod_t)
        n = public.size
        _refuse_dense(
            max(n**_REGION_BITS_EXPONENT, n * n * in_set.size * out_set.size),
            call.line,
            call.col,
        )
        by_value: dict[int, Rel] = {}
        for key, data in call.blocks:
            v = _resolve_elem(public, key, call)
            if v in by_value:
                raise ElaborationError(
                    f"public value {key!r} given twice", call.line, call.col
                )
            pairs = [
                (
                    _encode_tuple(in_f, a, call),
                    _encode_tuple(out_f, b, call),
                )
                for a, b in data
            ]
            by_value[v] = make(in_set, out_set, pairs)
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
        cell = controlled_scalar(op_data)
        typed = TypedTerm(call, cell.domain, cell.codomain, cell=cell)
        return CellBinding(name, typed, cell, controlled=op_data)
    arg = call.type_args[0]
    fiber = _type_fiber(env, arg)
    _refuse_dense(
        fiber.size ** _BUILTIN_BITS_EXPONENT.get(op, _REGION_BITS_EXPONENT),
        call.line,
        call.col,
    )
    duality = None
    if op == "id":
        cell = identity_two_cell(_type_one_cell(env, arg))
    elif op == "cup":
        duality = canonical_cup(fiber)
        cell = cup_cell(duality)
    elif op == "cap":
        duality = canonical_cup(fiber)
        cell = cap_cell(duality)
    elif op == "delete":
        cell = delete_cell(fiber)
    elif op == "create":
        cell = create_cell(fiber)
    else:
        rs = region_structure(fiber)
        cell = {
            "copy": lambda: scalar_copy(rs),
            "compare": lambda: scalar_compare(rs),
            "delete_region": lambda: rs.delete_region,
            "create_region": lambda: rs.create_region,
            "publish": lambda: rs.publish,
            "sample": lambda: rs.sample,
        }[op]()
    typed = TypedTerm(call, cell.domain, cell.codomain, cell=cell)
    return CellBinding(name, typed, cell, duality=duality)


def _describe(cell: OneCell) -> str:
    fiber = cell.fiber(0, 0) if cell.src.size == 1 and cell.dst.size == 1 else None
    if fiber is None:
        return f"cell between 0-cells of sizes {cell.src.size} and {cell.dst.size}"
    return f"{fiber.size}-element set"


def _type_term(env: Env, term: Term) -> TypedTerm:
    if isinstance(term, NameTerm):
        if term.name not in env.cells:
            raise ElaborationError(
                f"unknown cell {term.name!r}", term.line, term.col
            )
        binding = env.cells[term.name]
        return TypedTerm(term, binding.typed.domain, binding.typed.codomain)
    if isinstance(term, BuiltinCall):
        binding = _builtin_binding(env, term, f"<builtin {term.op}>")
        return binding.typed
    if isinstance(term, SeqTerm):
        first = _type_term(env, term.first)
        second = _type_term(env, term.second)
        if first.codomain.fiber_sizes() != second.domain.fiber_sizes():
            raise ElaborationError(
                f"cannot compose in sequence: first stage produces a "
                f"{_describe(first.codomain)}, second consumes a "
                f"{_describe(second.domain)}",
                *_term_pos(term.second),
            )
        children = (first, second)
        dom, cod = first.domain, second.codomain
    elif isinstance(term, HorizTerm):
        children = (_type_term(env, term.left), _type_term(env, term.right))
        dom = hcompose_one(children[1].domain, children[0].domain)
        cod = hcompose_one(children[1].codomain, children[0].codomain)
    elif isinstance(term, ParTerm):
        children = (_type_term(env, term.left), _type_term(env, term.right))
        dom = tensor_one(children[0].domain, children[1].domain)
        cod = tensor_one(children[0].codomain, children[1].codomain)
    else:
        raise AssertionError(term)
    _refuse_dense(_dense_bits(dom, cod), *_term_pos(term))
    return TypedTerm(term, dom, cod, children)


def _term_pos(term: Term) -> tuple[int, int]:
    while isinstance(term, (SeqTerm, HorizTerm, ParTerm)):
        term = term.first if isinstance(term, SeqTerm) else term.left
    return (term.line, term.col)


def elaborate(sf: SourceFile) -> Env:
    """Check declarations in order and annotate every term with its types."""
    env = Env()
    for stmt in sf.statements:
        if isinstance(stmt, SetDecl):
            _declare(env, stmt.name, stmt)
            env.sets[stmt.name] = FiniteSet(stmt.size, stmt.labels)
        elif isinstance(stmt, GenDecl):
            _declare(env, stmt.name, stmt)
            rel = _build_rel(env, stmt.dom, stmt.cod, stmt.data, stmt)
            cell = TwoCell(
                _type_one_cell(env, stmt.dom),
                _type_one_cell(env, stmt.cod),
                ((rel,),),
            )
            typed = TypedTerm(
                NameTerm(stmt.name, stmt.line, stmt.col),
                cell.domain,
                cell.codomain,
            )
            env.cells[stmt.name] = CellBinding(stmt.name, typed, cell)
        elif isinstance(stmt, BuiltinDecl):
            _declare(env, stmt.name, stmt)
            env.cells[stmt.name] = _builtin_binding(env, stmt.call, stmt.name)
        elif isinstance(stmt, DefDecl):
            _declare(env, stmt.name, stmt)
            try:
                typed = _type_term(env, stmt.term)
            except RecursionError:
                raise ElaborationError(
                    "term nested too deeply", stmt.line, stmt.col
                ) from None
            env.cells[stmt.name] = CellBinding(stmt.name, typed)
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
    return env


def _declare(env: Env, name: str, stmt) -> None:
    if name in env.sets or name in env.cells:
        raise ElaborationError(
            f"{name!r} is already declared", stmt.line, stmt.col
        )


def evaluate(env: Env, typed: TypedTerm) -> TwoCell:
    """Denotation by structural recursion; deterministic."""
    node = typed.node
    if isinstance(node, NameTerm) and node.name in env.cells:
        binding = env.cells[node.name]
        if binding.cell is not None:
            return binding.cell
        cell = evaluate(env, binding.typed)
        binding.cell = cell
        return cell
    if isinstance(node, BuiltinCall):
        return typed.cell
    first, second = typed.children
    if isinstance(node, SeqTerm):
        return vcompose(evaluate(env, first), evaluate(env, second))
    if isinstance(node, HorizTerm):
        return hcompose_two(evaluate(env, second), evaluate(env, first))
    if isinstance(node, ParTerm):
        return tensor(evaluate(env, first), evaluate(env, second))
    raise AssertionError(node)


def evaluate_name(env: Env, name: str) -> TwoCell:
    binding = env.cells[name]
    if binding.cell is None:
        try:
            binding.cell = evaluate(env, binding.typed)
        except RecursionError:
            raise ElaborationError(f"cell {name!r} is nested too deeply") from None
    return binding.cell


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
    left, right = env.cells[lhs], env.cells[rhs]
    if (
        left.typed.domain.fiber_sizes() != right.typed.domain.fiber_sizes()
        or left.typed.codomain.fiber_sizes()
        != right.typed.codomain.fiber_sizes()
    ):
        return CheckReport(
            name,
            "type-error",
            f"sides have different boundaries: {lhs} is "
            f"{_describe(left.typed.domain)} -> {_describe(left.typed.codomain)}, "
            f"{rhs} is {_describe(right.typed.domain)} -> "
            f"{_describe(right.typed.codomain)}",
        )
    res = equal(evaluate_name(env, lhs), evaluate_name(env, rhs))
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
    """Parse, elaborate, and run every check statement of a source file."""
    try:
        env = elaborate(parse(text))
        reports = tuple(
            check_equation(env, c.lhs, c.rhs) for c in env.checks
        )
    except (ParseError, ElaborationError) as exc:
        return SourceReport((), str(exc))
    return SourceReport(reports)


# ---------------------------------------------------------------------------
# Pretty-printing.
# ---------------------------------------------------------------------------


def _format_type(t: TypeExpr, nested: bool = False) -> str:
    if isinstance(t, TypeUnit):
        return "1"
    if isinstance(t, TypeName):
        return t.name
    text = f"{_format_type(t.left)} * {_format_type(t.right, nested=True)}"
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


_PREC = {SeqTerm: 1, HorizTerm: 2, ParTerm: 3}
_OPS = {SeqTerm: ";", HorizTerm: ".", ParTerm: "*"}


def _format_term(term: Term, parent: int = 0) -> str:
    if isinstance(term, NameTerm):
        return term.name
    if isinstance(term, BuiltinCall):
        return _format_call(term)
    prec = _PREC[type(term)]
    op = _OPS[type(term)]
    a, b = (
        (term.first, term.second)
        if isinstance(term, SeqTerm)
        else (term.left, term.right)
    )
    text = f"{_format_term(a, prec)} {op} {_format_term(b, prec + 1)}"
    return f"({text})" if prec < parent else text


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


def structural_key(sf: SourceFile):
    """Canonical content of a source file, for round-trip comparison.

    Positions are erased; everything else (names, sizes, labels, relation
    data, term shapes) is kept.
    """

    def term_key(t: Term):
        if isinstance(t, NameTerm):
            return ("name", t.name)
        if isinstance(t, BuiltinCall):
            return ("builtin", t.op, tuple(map(type_key, t.type_args)), t.blocks)
        a, b = (
            (t.first, t.second) if isinstance(t, SeqTerm) else (t.left, t.right)
        )
        return (_OPS[type(t)], term_key(a), term_key(b))

    def type_key(t: TypeExpr):
        if isinstance(t, TypeUnit):
            return ("1",)
        if isinstance(t, TypeName):
            return ("set", t.name)
        return ("*", type_key(t.left), type_key(t.right))

    out = []
    for stmt in sf.statements:
        if isinstance(stmt, SetDecl):
            out.append(("set", stmt.name, stmt.size, stmt.labels))
        elif isinstance(stmt, GenDecl):
            out.append(
                (
                    "gen",
                    stmt.name,
                    type_key(stmt.dom),
                    type_key(stmt.cod),
                    stmt.data,
                )
            )
        elif isinstance(stmt, BuiltinDecl):
            out.append(("builtin", stmt.name, term_key(stmt.call)))
        elif isinstance(stmt, DefDecl):
            out.append(("def", stmt.name, term_key(stmt.term)))
        elif isinstance(stmt, CheckDecl):
            out.append(("check", stmt.lhs, stmt.rhs))
    return tuple(out)
