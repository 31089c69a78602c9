"""Long and wide terms through every stage under the default recursion limit.

Terms are binary trees, left-nested by ``seq``/``par`` and the parser,
so a chain of n layers is n deep; every stage must walk it without
recursing on its shape.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from contextlib import contextmanager
from functools import lru_cache, reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpbs.cli import main
from cpbs.errors import CpbsError
from cpbs.netlist import netlists_isomorphic, to_netlist
from cpbs.normal_form import normalize
from cpbs.quantum import MatrixLabel, interpret
from cpbs.randgen import random_diagram
from cpbs.rules import WVar, substitute
from cpbs.semantics import semantics_table, tables_equal
from cpbs.terms import (
    Colour,
    Gen,
    Par,
    Seq,
    count_generators,
    count_neg,
    count_pbs,
    count_queries,
    gate_t,
    generators,
    letter_counts,
    letters_of,
    par,
    seq,
    term_size,
    type_of,
)
from cpbs.textform import parse, print_term

T, V, H = Colour.T, Colour.V, Colour.H
CHAIN, WIDE = 10_000, 2_000


@contextmanager
def default_recursion_limit():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


@pytest.fixture(autouse=True)
def _limit():
    with default_recursion_limit():
        yield


# gates and wires of each shape
SIZES = {"chain": (CHAIN, 1), "wide": (WIDE, WIDE)}


def _big(shape: str, g: Gen):
    return seq(*[g] * CHAIN) if shape == "chain" else par(*[g] * WIDE)


@pytest.fixture(params=sorted(SIZES))
def shape(request):
    return request.param


def test_typing_and_counts(shape):
    d, (n, w) = _big(shape, gate_t("U")), SIZES[shape]
    assert type_of(d) == ((T,) * w, (T,) * w)
    assert count_queries(d, "U") == n
    assert count_generators(d) == term_size(d) == n
    assert count_pbs(d) == count_neg(d) == 0
    assert letter_counts(d) == Counter(U=n)
    assert letters_of(d) == {"U"}


def test_equality_hash_and_repr(shape):
    d, n = _big(shape, gate_t("U")), SIZES[shape][0]
    same = parse(print_term(d))
    assert same is not d and same == d and hash(same) == hash(d)
    other = (seq if shape == "chain" else par)(*[gate_t("U")] * (n - 1), gate_t("V"))
    assert other != d and d != other
    text = repr(d)
    assert text == repr(same) and text.count("Gen(kind='gate_t', word=('U',)") == n


def test_print_parse_round_trip(shape):
    d = _big(shape, gate_t("U"))
    text = print_term(d)
    back = parse(text)
    assert print_term(back) == text
    assert type_of(back) == type_of(d)


def test_netlist_table_and_normal_form(shape):
    d, (n, w) = _big(shape, gate_t("U")), SIZES[shape]
    net = to_netlist(d)
    assert len(net.nodes) == n
    t = semantics_table(net)
    word = ("U",) * (n // w)
    assert all(t.entries[(c, p)] == ((c, p), word) for c in (V, H) for p in range(w))
    assert [(l.source, l.target, l.word) for l in normalize(d).lines] == t.rows()


def test_netlists_isomorphic(shape):
    d, n = _big(shape, gate_t("U")), SIZES[shape][0]
    net = to_netlist(d)
    assert netlists_isomorphic(net, to_netlist(parse(print_term(d))))
    other = (seq if shape == "chain" else par)(*[gate_t("U")] * (n - 1), gate_t("V"))
    assert not netlists_isomorphic(net, to_netlist(other))


def test_substitute_and_interpret(shape):
    d = _big(shape, Gen("gate_t", (WVar("x"),)))
    bound = substitute(d, {"x": ("U", "V")})
    assert print_term(bound) == print_term(_big(shape, gate_t("UV")))
    m = interpret(bound, {"U": np.eye(2), "V": np.eye(2)})
    assert type_of(m) == type_of(d)
    assert all(isinstance(g.word[0], MatrixLabel) for g in generators(m))
    assert count_generators(m) == SIZES[shape][0]


@pytest.mark.parametrize("command", ["normalize", "bounds"])
def test_cli(shape, command, tmp_path, capsys):
    path = tmp_path / "big.cpbs"
    path.write_text(print_term(_big(shape, gate_t("U"))))
    assert main([command, str(path)]) == 0
    assert capsys.readouterr().out


# ---------------------------------------------------------------------------
# random long chains
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _pieces() -> dict[tuple, list]:
    """Small random diagrams, grouped by their (input, output) type."""
    out: dict[tuple, list] = {}
    for s in range(400):
        d = random_diagram(s, max_generators=3, max_wires=2)
        out.setdefault(type_of(d), []).append(d)
    return out


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    layers=st.integers(1, 3000),
    op=st.sampled_from([Seq, Par]),
    left=st.booleans(),
    mistyped=st.booleans(),
)
def test_long_random_chains_fail_only_cleanly(seed, layers, op, left, mistyped):
    # a seq chain repeats one type, so it is well typed unless one piece
    # of another type is dropped into it
    rng = random.Random(seed)
    pieces = _pieces()
    if op is Seq:
        a = rng.choice(sorted((k for k in pieces if k[0] == k[1]), key=repr))
        chain = [rng.choice(pieces[a]) for _ in range(layers)]
    else:
        chain = [rng.choice(rng.choice(list(pieces.values()))) for _ in range(layers)]
    if mistyped:
        chain[rng.randrange(layers)] = rng.choice(rng.choice(list(pieces.values())))
    d = reduce(op, chain) if left else reduce(lambda x, y: op(y, x), reversed(chain))
    with default_recursion_limit():
        try:
            back = parse(print_term(d))
            assert type_of(back) == type_of(d)
            assert tables_equal(semantics_table(to_netlist(back)), semantics_table(to_netlist(d)))
        except (CpbsError, TypeError, SyntaxError):
            pass
