"""The coloured-prop laws, as properties of elaboration and of the text form.

The language is a coloured prop: `;` and `|` are associative, they
interchange, the symmetry is natural, and the trace superposes, slides
and yanks.  `to_netlist` forgets bracketing, so for random well-typed
subterms both sides of each law must elaborate to isomorphic netlists,
and each side must print to text that parses back to the same drawing.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cpbs.netlist import netlists_isomorphic, to_netlist
from cpbs.terms import (
    _FIXED_TYPES,
    GATE_FOR,
    GATE_KINDS,
    NEG_FOR,
    Colour,
    Gen,
    Term,
    Trace,
    ident,
    identity_of,
    par,
    pbs4,
    perm,
    seq,
    swap,
    type_of,
)
from cpbs.textform import parse, print_term

T, V, H = Colour.T, Colour.V, Colour.H
WORDS = [(), ("U",), ("V",), ("U", "V")]
LAWS = settings(max_examples=50, deadline=None)

wire_types = st.lists(st.sampled_from([T, T, V, H]), min_size=1, max_size=3).map(tuple)


def _pieces(cur: tuple[Colour, ...]) -> list[tuple[Term, int]]:
    """Each generator that fits a slice of `cur`, with the slice's start;
    a traced splitter stands for a one-wire piece with feedback inside."""
    out: list[tuple[Term, int]] = []
    for kind, (tin, _) in sorted(_FIXED_TYPES.items()):
        if kind not in GATE_KINDS:
            out += [(Gen(kind), p) for p in range(len(cur) - len(tin) + 1) if cur[p : p + len(tin)] == tin]
    for p, c in enumerate(cur):
        out += [(Gen(GATE_FOR[c], w), p) for w in WORDS]
        if c is T:
            out.append((Trace(T, pbs4()), p))
    out += [(swap(cur[p], cur[p + 1]), p) for p in range(len(cur) - 1)]
    return out


@st.composite
def grown(draw, a: tuple[Colour, ...]) -> tuple[Term, tuple[Colour, ...]]:
    """A random well-typed term from wire type `a`, and its output type."""
    cur, layers = a, []
    for _ in range(draw(st.integers(0, 4))):
        piece, p = draw(st.sampled_from(_pieces(cur)))
        tin, tout = type_of(piece)
        layers.append(par(*map(ident, cur[:p]), piece, *map(ident, cur[p + len(tin) :])))
        cur = cur[:p] + tout + cur[p + len(tin) :]
    return (seq(*layers) if layers else identity_of(a)), cur


@st.composite
def with_last(draw, a: tuple[Colour, ...], c: Colour) -> tuple[Term, tuple[Colour, ...]]:
    """A term from `a` whose last output wire has colour `c`: a negation
    turns V into H and back, and nothing turns T into V or H."""
    d, b = draw(grown(a))
    if b[-1] != c and {b[-1], c} == {V, H}:
        d, b = seq(d, par(*map(ident, b[:-1]), Gen(NEG_FOR[b[-1]]))), b[:-1] + (c,)
    assume(b[-1] == c)
    return d, b


def same(lhs: Term, rhs: Term) -> None:
    assert type_of(lhs) == type_of(rhs)
    net = to_netlist(lhs)
    assert netlists_isomorphic(net, to_netlist(rhs))
    for side in (lhs, rhs):
        # the text drops the brackets that associativity makes redundant
        text = print_term(side)
        back = parse(text)
        assert print_term(back) == text
        assert netlists_isomorphic(to_netlist(back), net)


@LAWS
@given(st.data(), wire_types)
def test_seq_is_associative(data, a):
    f, b = data.draw(grown(a))
    g, c = data.draw(grown(b))
    h, _ = data.draw(grown(c))
    same(seq(seq(f, g), h), seq(f, seq(g, h)))


@LAWS
@given(st.data(), wire_types, wire_types, wire_types)
def test_par_is_associative(data, a, b, c):
    f, g, h = (data.draw(grown(x))[0] for x in (a, b, c))
    same(par(par(f, g), h), par(f, par(g, h)))


@LAWS
@given(st.data(), wire_types, wire_types)
def test_interchange(data, a, c):
    f, b = data.draw(grown(a))
    g, _ = data.draw(grown(b))
    h, d = data.draw(grown(c))
    k, _ = data.draw(grown(d))
    same(par(seq(f, g), seq(h, k)), seq(par(f, h), par(g, k)))


def _symmetry(a: tuple[Colour, ...], c: tuple[Colour, ...]) -> Term:
    """The wires `a` crossed under the wires `c`."""
    return perm(a + c, [len(c) + i for i in range(len(a))] + list(range(len(c))))


@LAWS
@given(st.data(), wire_types, wire_types)
def test_symmetry_is_natural(data, a, c):
    f, b = data.draw(grown(a))
    g, d = data.draw(grown(c))
    same(seq(par(f, g), _symmetry(b, d)), seq(_symmetry(a, c), par(g, f)))


@LAWS
@given(st.data(), wire_types, wire_types, st.sampled_from([T, V, H]))
def test_trace_superposes(data, a, c, x):
    f, _ = data.draw(with_last(a + (x,), x))
    g, _ = data.draw(grown(c))
    same(par(g, Trace(x, f)), Trace(x, par(g, f)))


@LAWS
@given(st.data(), wire_types, st.sampled_from([T, V, H]))
def test_trace_slides(data, a, x):
    # f : a + x -> b + y and h : y -> x, slid from the output of f to its input
    f, b = data.draw(grown(a + (x,)))
    h, y = data.draw(with_last((b[-1],), x))
    assume(len(y) == 1)
    lhs = Trace(x, seq(f, par(*map(ident, b[:-1]), h)))
    rhs = Trace(b[-1], seq(par(*map(ident, a), h), f))
    same(lhs, rhs)


@pytest.mark.parametrize("c", [T, V, H])
def test_trace_yanks(c):
    same(Trace(c, swap(c, c)), ident(c))
