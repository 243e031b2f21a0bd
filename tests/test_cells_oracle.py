"""relcat's cell layer against the independent model in oracle_cells.py.

Each test draws atomic two-cells (0-cells and fibers of size at most 3),
builds them in both, composes them the same way in both, and compares the
fiber paths and every bit of every component.  Fibers that small never
reach relcat's factored products, so each test runs a second time with
every nonempty product factored and contracted wherever `compose` can.
One pair of tests draws components from a few relations, so that one
relation object stands at many positions of a cell, and joins its atoms
at 0-cells of 3 or 4 values.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_cells as oracle
from relcat import relations
from relcat.cells import (
    OneCell,
    TwoCell,
    hcompose_two,
    identity_one_cell,
    identity_two_cell,
    tensor,
    vcompose,
)
from relcat.relations import FiniteSet, Rel


def _sizes(draw, src: int, dst: int) -> list[list[int]]:
    return [[draw(st.integers(0, 3)) for _ in range(src)] for _ in range(dst)]


def _bits(draw, dom: list[list[int]], cod: list[list[int]]) -> dict:
    return {
        (t, s): [
            [draw(st.booleans()) for _ in range(dom[t][s])]
            for _ in range(cod[t][s])
        ]
        for t in range(len(dom))
        for s in range(len(dom[t]))
    }


def _one_cell(src: int, dst: int, sizes) -> OneCell:
    fibers = tuple(tuple(FiniteSet(n) for n in row) for row in sizes)
    return OneCell(FiniteSet(src), FiniteSet(dst), fibers)


def _pair(src: int, dst: int, dom, cod, bits) -> tuple[TwoCell, oracle.Two]:
    """The same atomic two-cell in relcat and in the model."""
    d, c = _one_cell(src, dst, dom), _one_cell(src, dst, cod)
    components = tuple(
        tuple(
            Rel(
                d.fiber(t, s),
                c.fiber(t, s),
                np.array(bits[(t, s)], dtype=bool).reshape(cod[t][s], dom[t][s]),
            )
            for s in range(src)
        )
        for t in range(dst)
    )
    model = oracle.two_from_bits(
        oracle.atom(dom, src, dst), oracle.atom(cod, src, dst), bits
    )
    return TwoCell(d, c, components), model


@st.composite
def shared_atoms(draw, src: int, dst: int) -> tuple[TwoCell, oracle.Two]:
    """An atomic two-cell whose components are drawn from two relations of
    each shape, so that most components are one and the same object."""
    dom, cod = _sizes(draw, src, dst), _sizes(draw, src, dst)
    drawn: dict = {}  # (rows, cols, choice) -> (bits, relation)
    bits, components = {}, []
    for t in range(dst):
        row = []
        for s in range(src):
            rows, cols = cod[t][s], dom[t][s]
            key = (rows, cols, draw(st.integers(0, 1)))
            if key not in drawn:
                b = [[draw(st.booleans()) for _ in range(cols)] for _ in range(rows)]
                bits_array = np.array(b, dtype=bool).reshape(rows, cols)
                drawn[key] = (b, Rel(FiniteSet(cols), FiniteSet(rows), bits_array))
            bits[(t, s)], rel = drawn[key]
            row.append(rel)
        components.append(tuple(row))
    d, c = _one_cell(src, dst, dom), _one_cell(src, dst, cod)
    cell = TwoCell(d, c, tuple(components))
    model = oracle.two_from_bits(
        oracle.atom(dom, src, dst), oracle.atom(cod, src, dst), bits
    )
    return cell, model


@st.composite
def shared_chains(draw):
    """Two or three atoms with shared components, joined at 0-cells of 3
    or 4 values."""
    n = draw(st.integers(2, 3))
    zero = [draw(st.integers(0, 2))]
    zero += [draw(st.integers(3, 4)) for _ in range(n - 1)]
    zero.append(draw(st.integers(0, 3)))
    return [draw(shared_atoms(zero[k], zero[k + 1])) for k in range(n)]


def _unit_pair() -> tuple[TwoCell, oracle.Two]:
    return (
        identity_two_cell(identity_one_cell(1)),
        oracle.Two(oracle.identity(1), oracle.identity(1), {(0, 0): {((), ())}}),
    )


@st.composite
def chains(draw, max_atoms: int = 3, max_zero: int = 3, layers: int = 1):
    """``layers`` vertically composable chains of 1..max_atoms atoms."""
    n = draw(st.integers(1, max_atoms))
    zero = [draw(st.integers(0, max_zero)) for _ in range(n + 1)]
    out = [[] for _ in range(layers)]
    for k in range(n):
        src, dst = zero[k], zero[k + 1]
        dom = _sizes(draw, src, dst)
        for layer in out:
            cod = _sizes(draw, src, dst)
            layer.append(_pair(src, dst, dom, cod, _bits(draw, dom, cod)))
            dom = cod
    return out


def _hchain(pairs, right_first: bool) -> tuple[TwoCell, oracle.Two]:
    cells = [p[0] for p in pairs]
    model = pairs[0][1]
    for p in pairs[1:]:
        model = oracle.hcompose_two(model, p[1])
    if right_first:
        cell = cells[-1]
        for c in reversed(cells[:-1]):
            cell = hcompose_two(c, cell)
    else:
        cell = cells[0]
        for c in cells[1:]:
            cell = hcompose_two(cell, c)
    return cell, model


def assert_agrees(cell: TwoCell, model: oracle.Two) -> None:
    assert cell.domain.src.size == model.dom.src
    assert cell.domain.dst.size == model.dom.dst
    for t in range(model.dom.dst):
        for s in range(model.dom.src):
            ins = oracle.paths(model.dom, t, s)
            outs = oracle.paths(model.cod, t, s)
            assert cell.domain.paths(t, s) == ins
            assert cell.codomain.paths(t, s) == outs
            want = np.array(
                [[(i, o) in model.pairs[(t, s)] for i in ins] for o in outs],
                dtype=bool,
            ).reshape(len(outs), len(ins))
            assert np.array_equal(cell.component(t, s).bits, want), (t, s)


@settings(max_examples=150, deadline=None)
@given(chain=chains(), right_first=st.booleans())
def test_hcompose_chain(chain, right_first):
    assert_agrees(*_hchain(chain[0], right_first))


@settings(max_examples=150, deadline=None)
@given(chain=shared_chains(), right_first=st.booleans())
def test_hcompose_shared_components_at_several_middles(chain, right_first):
    assert_agrees(*_hchain(chain, right_first))


@settings(max_examples=100, deadline=None)
@given(layers=chains(layers=2), right_first=st.booleans())
def test_vcompose_and_interchange(layers, right_first):
    (a, ma), (b, mb) = (_hchain(chain, right_first) for chain in layers)
    model = oracle.vcompose(ma, mb)
    assert_agrees(vcompose(a, b), model)
    stacked = [
        (vcompose(x[0], y[0]), oracle.vcompose(x[1], y[1]))
        for x, y in zip(*layers)
    ]
    assert_agrees(_hchain(stacked, right_first)[0], model)


@settings(max_examples=100, deadline=None)
@given(
    left=chains(max_atoms=2, max_zero=2),
    right=chains(max_atoms=1, max_zero=2),
    unit=st.sampled_from([None, "left", "right"]),
)
def test_tensor(left, right, unit):
    a, ma = _hchain(left[0], False)
    b, mb = right[0][0]
    if unit == "left":
        a, ma = _unit_pair()
    elif unit == "right":
        b, mb = _unit_pair()
    assert_agrees(tensor(a, b), oracle.tensor(ma, mb))
    assert_agrees(tensor(b, a), oracle.tensor(mb, ma))


@contextlib.contextmanager
def _all_products_factored():
    """Factor every nonempty product, and contract every factored one that
    `compose` meets unbuilt, however small."""
    with mock.patch.object(relations, "_BOOL_MATMUL_MAX_WORK", 0):
        with mock.patch.object(relations, "_contraction_work", lambda f, m: -1):
            yield


@settings(max_examples=100, deadline=None)
@given(chain=chains(), right_first=st.booleans())
def test_hcompose_chain_factored(chain, right_first):
    with _all_products_factored():
        test_hcompose_chain.hypothesis.inner_test(chain, right_first)


@settings(max_examples=100, deadline=None)
@given(layers=chains(layers=2), right_first=st.booleans())
def test_vcompose_and_interchange_factored(layers, right_first):
    with _all_products_factored():
        test_vcompose_and_interchange.hypothesis.inner_test(layers, right_first)


@settings(max_examples=100, deadline=None)
@given(
    left=chains(max_atoms=2, max_zero=2),
    right=chains(max_atoms=1, max_zero=2),
    unit=st.sampled_from([None, "left", "right"]),
)
def test_tensor_factored(left, right, unit):
    with _all_products_factored():
        test_tensor.hypothesis.inner_test(left, right, unit)


@settings(max_examples=100, deadline=None)
@given(chain=shared_chains(), right_first=st.booleans())
def test_hcompose_shared_components_at_several_middles_factored(chain, right_first):
    with _all_products_factored():
        test_hcompose_shared_components_at_several_middles.hypothesis.inner_test(
            chain, right_first
        )
