"""Rewrite engine: matching, application, soundness, derivations."""

from __future__ import annotations

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpbs.errors import DerivationFailed, StaleInstance
from cpbs.netlist import netlists_isomorphic, to_netlist, to_term
from cpbs.randgen import random_diagram
from cpbs.rewrite import (
    _CHAINS,
    ProofStep,
    _match_word,
    apply,
    check_soundness,
    find_matches,
    render_trace,
    replay_derivation,
)
from cpbs.rules import ALL_RULE_IDS, RULES, Rule, WVar, _gh, _gv
from cpbs.semantics import semantics_table, tables_equal
from cpbs.terms import (
    Colour,
    Trace,
    gate_h,
    gate_t,
    gate_v,
    ident,
    merge_vh,
    neg_t,
    par,
    seq,
    split_vh,
)

# ---------------------------------------------------------------------------
# word matching
# ---------------------------------------------------------------------------

A = WVar("A")
B = WVar("B")


def test_match_word_literal():
    assert _match_word(("x", "y"), ("x", "y"), {}) == [{}]
    assert _match_word(("x", "y"), ("y", "x"), {}) == []


def test_match_word_splits_are_ordered():
    out = _match_word((A, B), ("x", "y"), {})
    assert [b["A"] for b in out] == [(), ("x",), ("x", "y")]
    for b in out:
        assert b["A"] + b["B"] == ("x", "y")


def test_match_word_repeated_variable():
    out = _match_word((A, A), ("x", "x"), {})
    assert out == [{"A": ("x",)}]
    assert _match_word((A, A), ("x", "y"), {}) == []


def test_match_word_constraints():
    u = WVar("u", exact=1)
    w = WVar("w", min_len=1)
    assert _match_word((u,), (), {}) == []
    assert _match_word((w,), (), {}) == []
    assert _match_word((u, w), ("x", "y"), {}) == [{"u": ("x",), "w": ("y",)}]


@given(st.lists(st.sampled_from("UVW"), max_size=6).map(tuple))
def test_match_word_enumerates_every_split(word):
    out = _match_word((A, B), word, {})
    assert len(out) == len(word) + 1
    assert all(b["A"] + b["B"] == word for b in out)


# ---------------------------------------------------------------------------
# soundness
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rule_id", sorted(ALL_RULE_IDS))
def test_rule_is_sound(rule_id):
    assert check_soundness(rule_id, samples=5, seed=0)


def test_soundness_rejects_a_wrong_rule():
    w = WVar("W")
    RULES["XX_BROKEN"] = Rule("XX_BROKEN", _gv(w), _gh(w))
    try:
        assert not check_soundness("XX_BROKEN")
    finally:
        del RULES["XX_BROKEN"]
    RULES["XX_BROKEN2"] = Rule("XX_BROKEN2", neg_t(), ident(Colour.T))
    try:
        assert not check_soundness("XX_BROKEN2")
    finally:
        del RULES["XX_BROKEN2"]


# ---------------------------------------------------------------------------
# matching and applying
# ---------------------------------------------------------------------------

def test_gate_fusion_reverse_enumerates_splits():
    n = to_netlist(gate_v("UVW"))
    matches = find_matches(n, "AX2", "R2L")
    splits = {(m.bindings["A"], m.bindings["B"]) for m in matches}
    assert splits == {
        ((), ("U", "V", "W")),
        (("U",), ("V", "W")),
        (("U", "V"), ("W",)),
        (("U", "V", "W"), ()),
    }


def test_gate_fusion_forward():
    n = to_netlist(seq(gate_v("U"), gate_v("V")))
    matches = find_matches(n, "AX2", "L2R")
    assert len(matches) == 1
    out = apply(n, matches[0])
    assert netlists_isomorphic(out, to_netlist(gate_v("UV")))


def test_empty_gate_becomes_a_wire():
    n = to_netlist(gate_v(()))
    (m,) = find_matches(n, "AX1", "L2R")
    out = apply(n, m)
    assert out.nodes == {}
    assert out.wires == {("bout", 0): ("bin", 0)}


def test_wire_expands_to_interferometer_and_back():
    n = to_netlist(ident(Colour.T))
    (m,) = find_matches(n, "AX9", "R2L")
    mid = apply(n, m)
    kinds = sorted(node.kind for node in mid.nodes.values())
    assert kinds == ["merge_vh", "split_vh"]
    assert len(mid.wires) == 4
    back = find_matches(mid, "AX9", "L2R")
    assert len(back) == 1
    assert netlists_isomorphic(apply(mid, back[0]), n)


def test_loop_expands_then_splits_into_two_loops():
    # a traced identity is a bare loop; routing it through an
    # interferometer and contracting the other way leaves one loop of
    # each inner colour
    n = to_netlist(Trace(Colour.T, ident(Colour.T)))
    assert n.loops == (Colour.T,)
    (m,) = find_matches(n, "AX9", "R2L")
    mid = apply(n, m)
    assert mid.loops == ()
    assert len(mid.nodes) == 2 and len(mid.wires) == 3
    cut = find_matches(mid, "AX10", "L2R")
    assert len(cut) == 1
    out = apply(mid, cut[0])
    assert out.nodes == {} and out.wires == {}
    assert sorted(out.loops) == sorted((Colour.V, Colour.H))


def test_direction_that_invents_words_has_no_matches():
    n = to_netlist(seq(split_vh(), merge_vh()))
    assert find_matches(n, "AX6", "R2L") == []


def test_stale_instance_is_rejected():
    n1 = to_netlist(seq(gate_v("U"), gate_v("V")))
    n2 = to_netlist(seq(gate_v("U"), gate_v("W")))
    (m,) = find_matches(n1, "AX2", "L2R")
    with pytest.raises(StaleInstance):
        apply(n2, m)


def test_structural_rules_match_trivially():
    n = to_netlist(split_vh())
    for rid, site in [
        ("STRUCT_YANKING", "ac5ba4b27fc0"),
        ("STRUCT_DINATURALITY", "34b9668e641c"),
        ("STRUCT_SWAP_NATURALITY", "9078b9ba2e23"),
    ]:
        (m,) = find_matches(n, rid)
        assert m.node_map == {} and m.in_legs == [] and m.out_legs == []
        assert m.site_hash == site
        out = apply(n, m)
        assert out is not n
        assert out.wires == n.wires and out.nodes == n.nodes


def test_matching_is_deterministic():
    t = seq(split_vh(), par(gate_v("UV"), gate_h("UV")), merge_vh())
    n = to_netlist(t)
    first = [m.site_hash for m in find_matches(n, "AX2", "R2L")]
    second = [m.site_hash for m in find_matches(n, "AX2", "R2L")]
    assert first == second and len(first) == len(set(first))


@pytest.mark.parametrize(
    "rule_id,direction",
    [
        ("AX2", "L2R"),
        ("AX2", "R2L"),
        ("AX7", "L2R"),
        ("AX8", "L2R"),
        ("AX9", "R2L"),
        ("AX9", "L2R"),
        ("DER19", "L2R"),
        ("APPE34", "L2R"),
    ],
)
def test_apply_preserves_semantics_random_hosts(rule_id, direction):
    hits = 0
    for seed in range(40):
        t = random_diagram(seed, max_generators=6)
        n = to_netlist(t)
        before = semantics_table(n)
        for inst in find_matches(n, rule_id, direction)[:2]:
            out = apply(n, inst)
            assert tables_equal(semantics_table(out), before)
            assert netlists_isomorphic(to_netlist(to_term(out)), out)
            hits += 1
        if hits >= 6:
            return
    assert hits > 0, f"no site for {rule_id} {direction} in 40 random diagrams"


@pytest.mark.parametrize(
    "rule_id,direction,host",
    [
        ("AX10", "L2R", seq(split_vh(), merge_vh(), split_vh(), merge_vh())),
        ("AX10", "R2L", seq(split_vh(), merge_vh(), split_vh(), merge_vh())),
        ("AX5", "L2R", seq(gate_t("UV"), split_vh())),
        ("AX5", "R2L", seq(split_vh(), par(gate_v("UV"), gate_h("UV")), merge_vh())),
        ("DER21", "L2R", seq(split_vh(), par(gate_v("K"), gate_h("K")), merge_vh())),
        ("DER21", "R2L", seq(merge_vh(), gate_t("AB"), split_vh())),
    ],
)
def test_apply_preserves_semantics_shaped_hosts(rule_id, direction, host):
    n = to_netlist(host)
    before = semantics_table(n)
    matches = find_matches(n, rule_id, direction)
    assert matches, f"no site for {rule_id} {direction}"
    for inst in matches:
        out = apply(n, inst)
        assert tables_equal(semantics_table(out), before)
        assert netlists_isomorphic(to_netlist(to_term(out)), out)


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------

def test_every_derived_rule_has_a_chain():
    derived = {r for r in ALL_RULE_IDS if r.startswith(("DER", "APPE"))}
    assert set(_CHAINS) == derived
    for steps in _CHAINS.values():
        for rid, _ in steps:
            assert rid.startswith("AX") or rid in _CHAINS


@pytest.mark.parametrize("target", sorted(_CHAINS))
def test_replay_derivation(target):
    steps = replay_derivation(target)
    assert steps, target
    for s in steps:
        assert isinstance(s, ProofStep)
        assert re.fullmatch(r"\w+ (L2R|R2L) @ [0-9a-f]{12}", s.render())


def test_replay_rejects_axioms():
    with pytest.raises(DerivationFailed):
        replay_derivation("AX1")


def test_trace_rendering():
    steps = replay_derivation("DER18")
    text = render_trace(steps)
    assert text.startswith("AX2 R2L @ ")
