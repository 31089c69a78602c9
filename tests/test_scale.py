"""Long and wide terms through every stage under the default recursion limit.

Terms are binary trees, left-nested by ``seq``/``par`` and the parser,
so a chain of n layers is n deep; every stage must walk it without
recursing on its shape.
"""

from __future__ import annotations

import random
import sys
import time
from collections import Counter
from contextlib import contextmanager
from functools import lru_cache, reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpbs.cli import main
from cpbs.errors import CpbsError
from cpbs.hardness import build_C_w_sigma, orient_eulerian, parse_graph
from cpbs.netlist import netlists_isomorphic, to_netlist, to_term
from cpbs.normal_form import normalize
from cpbs.pgt import to_pgt_form
from cpbs.quantum import MatrixLabel, interpret
from cpbs.randgen import random_diagram
from cpbs.rules import WVar, substitute
from cpbs.semantics import semantics_table, tables_equal
from cpbs.stairs import Staircase
from cpbs.terms import (
    Colour,
    Gen,
    Par,
    Seq,
    Trace,
    count_generators,
    count_neg,
    count_pbs,
    count_queries,
    gate_h,
    gate_t,
    gate_v,
    generators,
    letter_counts,
    letters_of,
    merge_vh,
    par,
    seq,
    split_vh,
    term_size,
    type_of,
)
from cpbs.textform import parse, print_term

T, V, H = Colour.T, Colour.V, Colour.H
CHAIN, WIDE = 10_000, 2_000
BROAD = 32_000  # gates in one parallel group, for the stages linear in its width
BOUND_S = 5.0  # a generous wall-clock bound for a stage that is linear in its input


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
    assert repr(Trace(T, d)) == f"Trace(colour={T!r}, body={text})"


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


def test_chain_to_term_round_trip():
    net = to_netlist(_big("chain", gate_t("U")))
    start = time.perf_counter()
    back = to_term(net)
    assert time.perf_counter() - start < BOUND_S
    assert netlists_isomorphic(to_netlist(back), net)


def test_broad_group_is_typed_elaborated_and_parsed():
    d = par(*[gate_t("U")] * BROAD)
    text = print_term(d)
    start = time.perf_counter()
    a, b = type_of(d)
    net = to_netlist(d)
    back = parse(text)
    assert time.perf_counter() - start < BOUND_S
    assert a == b == (T,) * BROAD
    assert len(net.nodes) == BROAD and net.in_type == a
    assert net.wires[("bout", BROAD - 1)] == ("nout", BROAD - 1, 0)
    assert back == d


PARSE_TOKENS = 100_000  # generators in one text, for the parser's per-token cost


@pytest.mark.parametrize(
    "spelling, sep, op", [("id[T]", " | ", Par), ("gate[U]", " ; ", Seq)], ids=["side-by-side", "chain"]
)
def test_parse_is_linear_in_tokens(spelling, sep, op):
    text = sep.join([spelling] * PARSE_TOKENS)
    start = time.perf_counter()
    d = parse(text)
    assert time.perf_counter() - start < BOUND_S
    leaves = []
    while type(d) is op:  # left-nested: the last leaf is on the right at the root
        leaves.append(d.second if op is Seq else d.bottom)
        d = d.first if op is Seq else d.top
    assert len(leaves) == PARSE_TOKENS - 1
    assert d == parse(spelling) and all(x is d for x in leaves)


@pytest.mark.parametrize("depth", [400, CHAIN])
def test_nested_brackets_parse(depth):
    assert parse("(" * depth + "pbs" + ")" * depth) == Gen("pbs4")


def test_nested_traces_round_trip():
    # each level loops a splitter's second output back to its second input
    d = gate_t("U")
    for _ in range(WIDE):
        d = Trace(T, seq(par(d, Gen("id", colours=(T,))), Gen("pbs4")))
    text = print_term(d)
    assert text.count("tr[T](") == WIDE
    back = parse(text)
    assert back == d
    assert type_of(back) == ((T,), (T,))


@pytest.mark.parametrize("command", ["normalize", "bounds"])
def test_cli(shape, command, tmp_path, capsys):
    path = tmp_path / "big.cpbs"
    path.write_text(print_term(_big(shape, gate_t("U"))))
    assert main([command, str(path)]) == 0
    assert capsys.readouterr().out


def _reduction_text(edges: int, tmp_path, capsys) -> str:
    path = tmp_path / f"cycle{edges}.txt"
    path.write_text("\n".join(f"v{i} v{(i + 1) % edges}" for i in range(edges)))
    assert main(["reduce-ecd", str(path)]) == 0
    return capsys.readouterr().out


def test_reduction_text_is_linear_in_the_edges(tmp_path, capsys):
    # an Eulerian circuit makes sigma one cycle: each router is one ladder
    # with a rung per edge but one, which padded rungs made quadratic
    size = {n: len(_reduction_text(n, tmp_path, capsys)) for n in (32, 64, 128)}
    assert size[64] < 2.5 * size[32]
    assert size[128] < 5 * size[32]
    assert size[128] < 20_000


def test_opt_pbs_hands_the_optimised_netlist_over(tmp_path, capsys):
    # 200 pairs split ; gate_v[Ui] | gate_h[Ui] ; merge side by side: the
    # optimiser fuses each pair into one gate_t[Ui], and its netlist goes to
    # the PGT step undrawn.  0.16 s on a 2-vCPU Xeon with Python 3.11; drawing
    # and re-elaborating the optimised term took 3.5 s
    n = 200
    pair = [seq(split_vh(), par(gate_v(f"U{i}"), gate_h(f"U{i}")), merge_vh()) for i in range(n)]
    path = tmp_path / "pairs.cpbs"
    path.write_text(print_term(par(*pair)))
    start = time.perf_counter()
    assert main(["opt-pbs", str(path)]) == 0
    assert time.perf_counter() - start < 3.0
    out = parse(capsys.readouterr().out)
    assert count_pbs(out) == 0
    assert letter_counts(out) == {f"U{i}": 1 for i in range(n)}


def test_pgt_form_of_a_long_cycle_reduction():
    # one black ladder per router, aligned with two of its walks: 0.36 s and
    # 13 MB more peak RSS on a 2-vCPU Xeon with Python 3.11, where aligning
    # all 2s + 2 walks of each ladder took 10.6 s and 300 MB
    n = 1024
    o = orient_eulerian(parse_graph("".join(f"v{i} v{(i + 1) % n}\n" for i in range(n))))
    d = build_C_w_sigma(o.w, o.sigma)
    start = time.perf_counter()
    form = to_pgt_form(d)
    assert time.perf_counter() - start < 3.0
    assert form.count_pbs() == 2 * (n - 1)


def test_wide_ladder_round_trips_in_linear_time():
    n = 1024
    start = time.perf_counter()
    d = Staircase("black_ladder", n).as_term()
    back = parse(print_term(d))
    t = semantics_table(to_netlist(back))
    assert time.perf_counter() - start < 1.0
    assert back == d
    # the ladder fixes V and moves H from each wire to the one before, the first to the last
    assert t.entries == {
        (c, p): ((c, p if c == V else (p - 1) % (n + 1)), ()) for c in (V, H) for p in range(n + 1)
    }


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
