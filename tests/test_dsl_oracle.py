"""The term language against the independent cell model in oracle_cells.py.

Each example draws a well-typed scalar term over sets of size 0 to 3: its
leaves are `gen` cells with random relation data and the builtins `id`,
`cup`, `cap`, `delete` and `create`, and its nodes are `;`, `.` and `*`.
The term is written out as `.rcat` text and run through parse, elaborate
and evaluate.  The same tree is built, leaf by leaf, in the model, and
every bit of every component is compared.

A type is a tuple of set names, the empty tuple being the unit ``1``.  The
language types `;` by fiber sizes alone, so the model joins the two stages
of a sequence by matching the paths of the shared fiber rank by rank.

A second test checks, on the same terms, that every cell and every
composite built on the way is a scalar, and that a `.` or `*` composite
has the product of its operands' dense sizes, which is how `evaluate`
charges it.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_cells as oracle
from relcat.dsl import (
    Chain,
    _dense_bits,
    elaborate,
    evaluate,
    format_source,
    parse,
    run_source,
)

SET_NAMES = ("A", "B", "C")
MAX_FACTORS = 3  # on every boundary, so that no fiber exceeds 27 elements


def _size(sizes: dict, factors: tuple) -> int:
    n = 1
    for name in factors:
        n *= sizes[name]
    return n


def _type_text(factors: tuple) -> str:
    return " * ".join(factors) if factors else "1"


def _digits(sizes: dict, factors: tuple, index: int) -> tuple:
    """The element tuple of `index`, the left factor being the high digit."""
    out = []
    for name in reversed(factors):
        index, digit = divmod(index, sizes[name])
        out.append(digit)
    return tuple(reversed(out))


def _tuple_text(elems: tuple) -> str:
    return str(elems[0]) if len(elems) == 1 else "(" + ",".join(map(str, elems)) + ")"


@st.composite
def _factors(draw, min_len: int, max_len: int) -> tuple:
    length = draw(st.sampled_from(range(min_len, max_len + 1)))
    return tuple(draw(st.sampled_from(SET_NAMES)) for _ in range(length))


def _leaves(sizes: dict, dom: tuple, max_cod: int) -> list:
    """The builtin calls that consume `dom`, by size, within the cod bound."""
    n = _size(sizes, dom)
    out = [("id", dom)] if len(dom) <= max_cod else []
    for x in SET_NAMES:
        if n == sizes[x] ** 2:
            out.append(("cap", x))
        if n == sizes[x]:
            out.append(("delete", x))
        if n == 1 and max_cod >= 1:
            out.append(("create", x))
        if n == 1 and max_cod >= 2:
            out.append(("cup", x))
    return out


@st.composite
def _term(draw, sizes: dict, gens: list, dom: tuple, depth: int, max_cod: int):
    """A term tree consuming `dom`, with its codomain type."""
    kind = draw(st.sampled_from(("leaf", "gen", ";", ".", "*")[: 2 + 3 * (depth > 0)]))
    if kind == ";":
        first, mid = draw(_term(sizes, gens, dom, depth - 1, MAX_FACTORS))
        second, cod = draw(_term(sizes, gens, mid, depth - 1, max_cod))
        return (";", first, second), cod
    if kind in ".*":
        cut = draw(st.sampled_from(range(len(dom) + 1)))
        room = draw(st.sampled_from(range(max_cod + 1)))
        left, cod_l = draw(_term(sizes, gens, dom[:cut], depth - 1, room))
        right, cod_r = draw(_term(sizes, gens, dom[cut:], depth - 1, max_cod - room))
        # `.` applies its right operand first, so its boundaries are read
        # right to left; only their sizes matter
        return (kind, left, right), cod_l + cod_r
    leaves = _leaves(sizes, dom, max_cod)
    if kind == "leaf" and leaves:
        leaf = draw(st.sampled_from(leaves))
        cod = {
            "id": dom, "cap": (), "delete": (), "create": (leaf[1],),
            "cup": (leaf[1], leaf[1]),
        }[leaf[0]]
        return leaf, cod
    cod = draw(_factors(min(1, max_cod), min(2, max_cod)))
    m, n = _size(sizes, dom), _size(sizes, cod)
    pairs = tuple(
        (j, i)
        for i in range(n)
        for j in range(m)
        if draw(st.booleans())
    )
    gen = ("gen", f"g{len(gens)}", dom, cod, pairs)
    gens.append(gen)
    return gen, cod


@st.composite
def programs(draw):
    # sets of 0 or 1 element make every cell over them trivial, so they
    # are drawn less often
    sizes = {name: draw(st.sampled_from((0, 1, 2, 2, 3, 3))) for name in SET_NAMES}
    gens: list = []
    dom = draw(_factors(0, 2))
    tree, _ = draw(_term(sizes, gens, dom, depth=3, max_cod=MAX_FACTORS))
    return sizes, gens, tree


def _render(node) -> str:
    kind = node[0]
    if kind == "gen":
        return node[1]
    if kind == "id":
        return f"id({_type_text(node[1])})"
    if kind in ("cup", "cap", "delete", "create"):
        return f"{kind}({node[1]})"
    return f"({_render(node[1])} {kind} {_render(node[2])})"


def _source(sizes: dict, gens: list, tree) -> str:
    lines = [f"set {name} = {n}" for name, n in sizes.items()]
    for _, name, dom, cod, pairs in gens:
        data = ", ".join(
            f"{_tuple_text(_digits(sizes, dom, j))}->{_tuple_text(_digits(sizes, cod, i))}"
            for j, i in pairs
        )
        lines.append(
            f"gen {name} : {_type_text(dom)} -> {_type_text(cod)} = {{{data}}}"
        )
    lines += [f"def x = {_render(tree)}", "check x == x"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The same tree in the model.
# ---------------------------------------------------------------------------


def _boundary(n: int, unit: bool) -> oracle.One:
    return oracle.identity(1) if unit else oracle.atom([[n]], 1, 1)


def _leaf(sizes: dict, dom: tuple, cod: tuple, pairs) -> oracle.Two:
    """A scalar cell relating input index j to output index i."""
    m, n = _size(sizes, dom), _size(sizes, cod)
    related = set(pairs)
    bits = {(0, 0): [[(j, i) in related for j in range(m)] for i in range(n)]}
    return oracle.two_from_bits(_boundary(m, not dom), _boundary(n, not cod), bits)


def _model(sizes: dict, node) -> oracle.Two:
    kind = node[0]
    if kind == "gen":
        return _leaf(sizes, *node[2:])
    if kind in ("id", "cap", "delete", "create", "cup"):
        arg = node[1]
        if kind == "id":
            return _leaf(sizes, arg, arg, [(j, j) for j in range(_size(sizes, arg))])
        n = sizes[arg]
        if kind == "cup":
            return _leaf(sizes, (), (arg, arg), [(0, x * n + x) for x in range(n)])
        if kind == "cap":
            return _leaf(sizes, (arg, arg), (), [(x * n + x, 0) for x in range(n)])
        if kind == "delete":
            return _leaf(sizes, (arg,), (), [(x, 0) for x in range(n)])
        return _leaf(sizes, (), (arg,), [(0, x) for x in range(n)])
    a, b = _model(sizes, node[1]), _model(sizes, node[2])
    if kind == ";":
        return _sequence(a, b)
    if kind == ".":
        return oracle.hcompose_two(b, a)
    return oracle.tensor(a, b)


def _sequence(a: oracle.Two, b: oracle.Two) -> oracle.Two:
    """a, then b, through a.cod: b's input paths are renamed by rank."""
    pairs = {}
    for (t, s), rel in b.pairs.items():
        rename = dict(zip(oracle.paths(b.dom, t, s), oracle.paths(a.cod, t, s)))
        pairs[(t, s)] = {(rename[x], y) for x, y in rel}
    return oracle.vcompose(a, oracle.Two(a.cod, b.cod, pairs))


@settings(max_examples=300, deadline=None)
@given(program=programs())
def test_denotation_matches_cell_oracle(program):
    sizes, gens, tree = program
    text = _source(sizes, gens, tree)
    report = run_source(text)
    assert report.error is None and report.exit_code == 0, (text, report.error)
    source = parse(text)
    # every node is parenthesised, so this splices `(a ; b) ; c` and
    # keeps `a ; (b ; c)` nested
    assert parse(format_source(source)) == source
    cell = evaluate(elaborate(source), source.statements[-2].term)
    model = _model(sizes, tree)
    assert (cell.domain.src.size, cell.domain.dst.size) == (model.dom.src, model.dom.dst)
    assert set(model.pairs) == {(0, 0)}
    for (t, s), rel in model.pairs.items():
        ins, outs = oracle.paths(model.dom, t, s), oracle.paths(model.cod, t, s)
        assert cell.domain.sizes[t, s] == len(ins), text
        assert cell.codomain.sizes[t, s] == len(outs), text
        expected = [[(x, y) in rel for x in ins] for y in outs]
        assert cell.component(t, s).bits.tolist() == expected, text


def _steps(term):
    """Each composite that evaluating a term builds, as a term of its own,
    with the two terms it is built from."""
    if not isinstance(term, Chain):
        return
    for operand in term.operands:
        yield from _steps(operand)
    for k in range(2, len(term.operands) + 1):
        before = Chain(term.op, term.operands[: k - 1]) if k > 2 else term.operands[0]
        yield Chain(term.op, term.operands[:k]), before, term.operands[k - 1]


@settings(max_examples=100, deadline=None)
@given(program=programs())
def test_every_cell_is_a_scalar(program):
    # every leaf and every composite lies on the one-element 0-cell, so a
    # `.` step builds, as a `*` step does, the product of its operands'
    # dense sizes, which is what `evaluate` charges both
    source = parse(_source(*program))
    env = elaborate(source)
    cells = list(env.cells.values())
    for step, before, operand in _steps(source.statements[-2].term):
        built, a, b = (evaluate(env, t) for t in (step, before, operand))
        cells.append(built)
        if step.op != ";":
            assert _dense_bits(built.domain, built.codomain) == _dense_bits(
                a.domain, a.codomain
            ) * _dense_bits(b.domain, b.codomain)
    for cell in cells:
        ends = (cell.domain.src, cell.domain.dst, cell.codomain.src, cell.codomain.dst)
        assert [x.size for x in ends] == [1, 1, 1, 1]
