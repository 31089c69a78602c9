from __future__ import annotations

import random

import pytest

import cpbs.gallery
from cpbs.errors import InvalidConfiguration
from cpbs.hardness import build_C_w_sigma, corpus, orient_eulerian, parse_graph
from cpbs.netlist import to_netlist
from cpbs.pgt import _cut
from cpbs.randgen import random_diagram
from cpbs.semantics import _ACTION, chase, evaluate, is_bijective, semantics_table, tables_equal
from cpbs.terms import (
    GATE_KINDS,
    Colour,
    Empty,
    Gen,
    Par,
    Seq,
    Term,
    Trace,
    configurations,
    gate_h,
    gate_t,
    gate_v,
    ident,
    merge_hv,
    merge_vh,
    neg_t,
    par,
    pbs4,
    perm,
    seq,
    split_hv,
    split_vh,
    swap,
    type_of,
)

T, V, H = Colour.T, Colour.V, Colour.H


# ---------------------------------------------------------------------------
# an independent interpreter, used as an oracle
#
# It never builds a netlist: tables are computed by structural recursion,
# and the per-generator behaviour is derived from port colours alone
# (V passes straight, H reflects; with a single admissible port there is
# no choice to make).
# ---------------------------------------------------------------------------

def _admits(c: Colour, pol: Colour) -> bool:
    return c == T or c == pol


def _gen_table(g: Gen) -> dict:
    tin, tout = g.signature()
    out = {}
    if g.kind == "id":
        for pol, p in configurations(tin):
            out[(pol, p)] = ((pol, p), ())
    elif g.kind == "swap":
        for pol, p in configurations(tin):
            out[(pol, p)] = ((pol, 1 - p), ())
    elif g.kind == "perm":
        for pol, p in configurations(tin):
            out[(pol, p)] = ((pol, g.slots[p]), ())
    elif g.kind in ("gate_t", "gate_v", "gate_h"):
        for pol, p in configurations(tin):
            out[(pol, p)] = ((pol, p), tuple(g.word))
    elif g.kind == "neg_t":
        out[(V, 0)] = ((H, 0), ())
        out[(H, 0)] = ((V, 0), ())
    elif g.kind == "neg_vh":
        out[(V, 0)] = ((H, 0), ())
    elif g.kind == "neg_hv":
        out[(H, 0)] = ((V, 0), ())
    else:
        # a beam splitter: V transmits, H reflects, colours permitting
        for pol, p in configurations(tin):
            targets = [q for q, c in enumerate(tout) if _admits(c, pol)]
            if len(targets) == 1:
                q = targets[0]
            elif pol == V:
                q = p
            else:
                q = 1 - p
            out[(pol, p)] = ((pol, q), ())
    return out


def _oracle(t: Term) -> dict:
    if isinstance(t, Gen):
        return _gen_table(t)
    if isinstance(t, Empty):
        return {}
    if isinstance(t, Seq):
        t1, t2 = _oracle(t.first), _oracle(t.second)
        return {
            c: (t2[m][0], w + t2[m][1])
            for c, (m, w) in t1.items()
        }
    if isinstance(t, Par):
        (a1, b1) = type_of(t.top)
        top, bot = _oracle(t.top), _oracle(t.bottom)
        out = dict(top)
        for (pol, p), ((pol2, q), w) in bot.items():
            out[(pol, p + len(a1))] = ((pol2, q + len(b1)), w)
        return out
    assert isinstance(t, Trace)
    a, b = type_of(t.body)
    body = _oracle(t.body)
    la, lb = len(a) - 1, len(b) - 1
    out = {}
    for c in list(body):
        if c[1] == la:
            continue
        cur, w = body[c]
        for _ in range(4):
            if cur[1] != lb:
                break
            cur, w2 = body[(cur[0], la)]
            w = w + w2
        else:
            raise AssertionError("oracle: photon did not leave the loop")
        out[c] = (cur, w)
    return out


# ---------------------------------------------------------------------------
# frozen single-generator checks
# ---------------------------------------------------------------------------

def test_pbs4_action():
    t = semantics_table(pbs4())
    assert t.entries == {
        (V, 0): ((V, 0), ()),
        (V, 1): ((V, 1), ()),
        (H, 0): ((H, 1), ()),
        (H, 1): ((H, 0), ()),
    }


def test_split_and_merge_actions():
    assert semantics_table(split_vh()).entries == {
        (V, 0): ((V, 0), ()),
        (H, 0): ((H, 1), ()),
    }
    assert semantics_table(split_hv()).entries == {
        (V, 0): ((V, 1), ()),
        (H, 0): ((H, 0), ()),
    }
    assert semantics_table(merge_vh()).entries == {
        (V, 0): ((V, 0), ()),
        (H, 1): ((H, 0), ()),
    }
    assert semantics_table(merge_hv()).entries == {
        (V, 1): ((V, 0), ()),
        (H, 0): ((H, 0), ()),
    }


def test_mixed_pbs_actions():
    assert semantics_table(Gen("pbs_tv_vt")).entries == {
        (V, 0): ((V, 0), ()),
        (H, 0): ((H, 1), ()),
        (V, 1): ((V, 1), ()),
    }
    assert semantics_table(Gen("pbs_ht_ht")).entries == {
        (H, 0): ((H, 1), ()),
        (V, 1): ((V, 1), ()),
        (H, 1): ((H, 0), ()),
    }


def test_gate_appends_in_trajectory_order():
    d = Seq(gate_v("U"), gate_v("V"))
    assert semantics_table(d).entries == {(V, 0): ((V, 0), ("U", "V"))}


# ---------------------------------------------------------------------------
# worked diagrams
# ---------------------------------------------------------------------------

def _quantum_switch() -> Term:
    return Trace(T, seq(pbs4(), Par(gate_t("U"), gate_t("V")), swap(T, T), pbs4()))


def test_quantum_switch_table():
    t = semantics_table(_quantum_switch())
    assert t.entries == {
        (V, 0): ((V, 0), ("U", "V")),
        (H, 0): ((H, 0), ("V", "U")),
    }


def test_folded_equals_unfolded():
    folded = Trace(T, seq(pbs4(), Par(gate_t("U"), gate_t("V")), pbs4()))
    unfolded = seq(split_vh(), Par(gate_v("U"), gate_h("V")), merge_vh())
    assert tables_equal(semantics_table(folded), semantics_table(unfolded))


def test_three_query_switch_circuit():
    def controlled(w):
        return seq(split_vh(), Par(ident(V), gate_h(w)), merge_vh())

    d = seq(controlled("U"), neg_t(), controlled("V"), neg_t(), controlled("U"))
    t = semantics_table(d)
    assert t.entries == {
        (V, 0): ((V, 0), ("V",)),
        (H, 0): ((H, 0), ("U", "U")),
    }


# ---------------------------------------------------------------------------
# errors and properties
# ---------------------------------------------------------------------------

def test_invalid_configuration():
    with pytest.raises(InvalidConfiguration):
        evaluate(gate_v("U"), (H, 0))
    with pytest.raises(InvalidConfiguration):
        evaluate(gate_v("U"), (V, 1))
    with pytest.raises(InvalidConfiguration):
        evaluate(gate_v("U"), (T, 0))


def test_evaluate_reads_each_table_entry():
    diagrams = [getattr(cpbs.gallery, name)() for name in GALLERY]
    diagrams += [random_diagram(s) for s in range(100)]
    for d in diagrams:
        n = to_netlist(d)
        for c, entry in semantics_table(n).entries.items():
            assert evaluate(d, c) == evaluate(n, c) == entry, (d, c)


def test_tables_are_bijective():
    for seed in range(30):
        d = random_diagram(random.Random(seed))
        assert is_bijective(semantics_table(d)), f"seed {seed}"


def test_netlist_interpreter_matches_structural_oracle():
    for seed in range(120):
        d = random_diagram(random.Random(1000 + seed))
        t = semantics_table(d)
        assert t.entries == _oracle(d), f"seed {seed}: {d!r}"
    d = seq(perm((T, V, H), (2, 0, 1)), par(merge_vh(), gate_t("U")))
    assert semantics_table(d).entries == _oracle(d)


# ---------------------------------------------------------------------------
# the argument that every walk ends
# ---------------------------------------------------------------------------

def test_every_box_action_is_one_to_one():
    for kind, action in _ACTION.items():
        assert len(set(action.values())) == len(action), kind


def _chase_with_visited_set(sink_at, nodes, src, pol, stop=()):
    """Reference: the walk that stores every (source, polarisation) state
    it visits, and ends with ``None`` on a revisit."""
    word, seen = [], set()
    while (src, pol) not in seen:
        seen.add((src, pol))
        snk = sink_at.get(src)
        if snk is None or snk[0] == "bout" or snk[1] in stop:
            return (src if snk is None else snk), pol, tuple(word)
        _, nid, k = snk
        if nodes[nid].kind in GATE_KINDS:
            word.extend(nodes[nid].word)
            src = ("nout", nid, 0)
        else:
            pol, k = _ACTION[nodes[nid].kind][(pol, k)]
            src = ("nout", nid, k)
    return None, pol, tuple(word)


GALLERY = (
    "quantum_switch", "three_query_circuit", "half_switch_traced", "half_switch_lean",
    "worked_example", "worked_example_query_optimal", "worked_example_pgt",
    "two_query_pbs_free", "one_query_two_pbs", "repeated_switch", "fused_double_gate",
)


def test_walks_from_the_boundary_and_from_cut_gates_never_come_round():
    diagrams = [getattr(cpbs.gallery, name)() for name in GALLERY]
    diagrams += [random_diagram(s, max_generators=(8, 16, 32, 64)[s % 4], max_wires=2 + s % 5)
                 for s in range(400)]
    graphs = [parse_graph("".join(f"v{i} v{(i + 1) % k}\n" for i in range(k))) for k in (8, 32, 128)]
    graphs += corpus().values()
    diagrams += [build_C_w_sigma(o.w, o.sigma) for o in map(orient_eulerian, graphs)]
    walks = 0
    for d in diagrams:
        n = to_netlist(d)
        sink_at = n.sink_of()
        starts = [(("bin", pos), pol, ()) for pol, pos in configurations(n.in_type)]
        cut = _cut(n)[0]
        starts += [(("nout", nid, 0), pol, cut) for nid, c in cut.items()
                   for pol in ((V, H) if c == T else (c,))]
        for src, pol, stop in starts:
            expected = _chase_with_visited_set(sink_at, n.nodes, src, pol, stop)
            assert expected[0] is not None
            assert chase(sink_at, n.nodes, src, pol, stop) == expected
            walks += 1
    assert walks > 4000
