"""Rewrite engine: matching, application, soundness, derivations."""

from __future__ import annotations

import hashlib
import itertools
import random
import re
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpbs import gallery
from cpbs.errors import DerivationFailed, StaleInstance
from cpbs.netlist import Netlist, netlists_isomorphic, to_netlist, to_term
from cpbs.randgen import random_diagram
from cpbs.rewrite import (
    _CHAINS,
    ProofStep,
    RuleInstance,
    _compile,
    _legs,
    _sides,
    _match_word,
    apply,
    check_soundness,
    find_matches,
    match_at,
    render_trace,
    replay_derivation,
    splice,
)
from cpbs.rules import ALL_RULE_IDS, RULES, Rule, WVar, _gh, _gt, _gv, substitute, word_vars
from cpbs.semantics import semantics_table, tables_equal
from cpbs.terms import (
    Colour,
    Empty,
    Par,
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
from cpbs.textform import parse

from union_find import UnionFind


# ---------------------------------------------------------------------------
# word matching
# ---------------------------------------------------------------------------

A = WVar("A")
B = WVar("B")


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
    # the last variable takes the rest of the word, whatever its length
    word = tuple(random.Random(0).choice("UVWK") for _ in range(2000))
    assert _match_word((u, w), word, {}) == [{"u": word[:1], "w": word[1:]}]
    assert _match_word((A,), word, {}) == [{"A": word}]
    assert _match_word((A,), (), {}) == [{"A": ()}]
    assert _match_word((u,), ("x",), {}) == [{"u": ("x",)}]
    assert _match_word((u,), ("x", "y"), {}) == []
    assert _match_word((u, w), ("x",), {}) == []


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
    assert check_soundness(rule_id)


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


def _sampled_soundness(rule: Rule) -> bool:
    """The sampling check that the symbolic one replaced, kept as its reference:
    fresh letters, empty words where allowed, one shared letter, and five
    random words over four letters (seed 0)."""
    vs = {**word_vars(rule.lhs), **word_vars(rule.rhs)}
    names = sorted(vs)

    def options(v: WVar, idx: int) -> list[tuple[str, ...]]:
        if v.exact is not None:
            return [(f"q{idx}",)]
        base = [(f"q{idx}",), (f"q{idx}", f"r{idx}")]
        return [()] + base if v.min_len == 0 else base

    candidates = [dict(zip(names, combo)) for combo in itertools.product(
        *(options(vs[nm], i) for i, nm in enumerate(names))
    )]
    if names:
        candidates.append({nm: ("s",) for nm in names})
        rng = random.Random(0)
        for _ in range(5):
            inst = {}
            for nm in names:
                v = vs[nm]
                k = v.exact if v.exact is not None else rng.randint(v.min_len, 3)
                inst[nm] = tuple(rng.choice("UVWK") for _ in range(k))
            candidates.append(inst)
    return all(
        tables_equal(*(semantics_table(to_netlist(substitute(side, b))) for side in (rule.lhs, rule.rhs)))
        for b in candidates
    )


_u, _w = WVar("u", exact=1), WVar("w", min_len=1)
SOUNDNESS_MUTANTS = {
    "A.B vs B.A": (_gv(A, B), _gv(B, A), False),
    "A.B vs A": (_gv(A, B), _gv(A), False),
    "A vs A.A": (_gv(A), _gv(A, A), False),
    "A vs id": (_gv(A), ident(Colour.V), False),
    "traced A vs empty": (Trace(Colour.V, _gv(A)), Empty(), True),
    "V vs H": (_gv(WVar("W")), _gh(WVar("W")), False),
    "neg vs id": (neg_t(), ident(Colour.T), False),
    "u.w vs u;w": (_gt(_u, _w), seq(_gt(_u), _gt(_w)), True),
    "w.u vs u;w": (_gt(_w, _u), seq(_gt(_u), _gt(_w)), False),
}


@pytest.mark.parametrize("rule_id", sorted(ALL_RULE_IDS))
def test_symbolic_soundness_agrees_with_sampling_on_the_catalogue(rule_id):
    assert check_soundness(rule_id) == _sampled_soundness(RULES[rule_id])


@pytest.mark.parametrize("name", SOUNDNESS_MUTANTS)
def test_symbolic_soundness_agrees_with_sampling_on_mutants(name, monkeypatch):
    lhs, rhs, sound = SOUNDNESS_MUTANTS[name]
    rule = Rule("XX_MUTANT", lhs, rhs)
    monkeypatch.setitem(RULES, "XX_MUTANT", rule)
    assert check_soundness("XX_MUTANT") == _sampled_soundness(rule) == sound


def test_conflicting_variable_constraints_raise(monkeypatch):
    rule = Rule("XX_CONFLICT", seq(_gv(WVar("W")), _gv(WVar("W", exact=1))), _gv(WVar("W")))
    monkeypatch.setitem(RULES, "XX_CONFLICT", rule)
    with pytest.raises(ValueError, match="conflicting constraints on variable W"):
        word_vars(rule.lhs)
    with pytest.raises(ValueError, match="conflicting constraints on variable W"):
        find_matches(to_netlist(gate_v("UV")), "XX_CONFLICT")


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
        ("STRUCT_YANKING", "d6956eb13661"),
        ("STRUCT_DINATURALITY", "984c98c97398"),
        ("STRUCT_SWAP_NATURALITY", "d5e9b8389d69"),
    ]:
        (m,) = find_matches(n, rid)
        assert m.node_map == {} and _legs(n, _compile(rid, "L2R"), m) == ([], [])
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


# SHA-1 of each derived and ancillary rule's replayed trace, rule by rule in name order
REPLAY_DIGEST = "00fc4699ad9422d29ffe24c704f718533332d697"


def test_replayed_traces_render_as_pinned():
    digest = hashlib.sha1()
    for target in sorted(_CHAINS):
        digest.update(f"{target}\n{render_trace(replay_derivation(target))}\n".encode())
    assert digest.hexdigest() == REPLAY_DIGEST


CATALOGUE_DIGEST = "c61ee62be00d9c976daba51963517059f11f7a58"


def test_the_compiled_catalogue_is_pinned():
    # every field _compile keeps, for every rule in both directions: a
    # rule side redrawn so that matching or the splice reads it
    # differently changes this digest
    digest = hashlib.sha1()
    for rule_id in ALL_RULE_IDS:
        for direction in ("L2R", "R2L"):
            pat = _compile(rule_id, direction)
            kept = (
                pat.in_type, pat.out_type, list(pat.nodes.items()), pat.internal_at,
                pat.bound_in, pat.bound_out, pat.passthrough, pat.loops, pat.invents_words,
                list(pat.rep.nodes.items()), list(pat.rep.wires.items()), pat.rep.loops,
            )
            digest.update(f"{rule_id} {direction} {kept!r}\n".encode())
    assert digest.hexdigest() == CATALOGUE_DIGEST


# ---------------------------------------------------------------------------
# the matcher against a reference
# ---------------------------------------------------------------------------

def _reference_matches(n, rule_id, direction):
    """The general matcher that find_matches replaced: one backtracking
    search over nodes, then, per complete node match, a scan for the
    wires incident to it and every product of pass-through and loop
    candidates, deduplicated."""
    pat = _compile(rule_id, direction)
    if pat.invents_words:
        return []
    complete = []

    def backtrack(i, node_map, binding):
        if i == len(pat.nodes):
            complete.append((node_map, binding))
            return
        pn = i  # a side's boxes are numbered 0, 1, ... in matching order
        pnode = pat.nodes[pn]
        for hn in sorted(n.nodes):
            if hn in node_map.values() or n.nodes[hn].kind != pnode.kind:
                continue
            for b2 in _match_word(pnode.word, n.nodes[hn].word, binding):
                m2 = {**node_map, pn: hn}
                if all(
                    n.wires.get(("nin", m2[snk[1]], snk[2])) == ("nout", m2[src[1]], src[2])
                    for wires in pat.internal_at
                    for snk, src in wires
                    if snk[1] in m2 and src[1] in m2
                ):
                    backtrack(i + 1, m2, b2)

    backtrack(0, {}, {})
    out, seen = [], set()
    for node_map, binding in complete:
        mapped = set(node_map.values())
        node_incident = {
            snk
            for snk, src in n.wires.items()
            if (snk[0] == "nin" and snk[1] in mapped) or (src[0] == "nout" and src[1] in mapped)
        }
        pt_candidates = [
            [
                ("wire", snk, src)
                for snk, src in sorted(n.wires.items())
                if snk not in node_incident and n.sink_colour(snk) == col
            ]
            + [("loop", i) for i, c in enumerate(n.loops) if c == col]
            for _, _, col in pat.passthrough
        ]
        loop_candidates = [[i for i, c in enumerate(n.loops) if c == col] for col in pat.loops]
        for pt_choice in itertools.product(*pt_candidates):
            if len(set(pt_choice)) != len(pt_choice):
                continue
            taken_loops = {c[1] for c in pt_choice if c[0] == "loop"}
            for loop_choice in itertools.product(*loop_candidates):
                pool = list(taken_loops) + list(loop_choice)
                if len(set(pool)) != len(pool):
                    continue
                key = (tuple(sorted(node_map.items())), tuple(sorted(binding.items())), pt_choice, loop_choice)
                if key not in seen:
                    seen.add(key)
                    out.append(RuleInstance(
                        rule_id, direction, dict(node_map), dict(binding), list(pt_choice), list(loop_choice)
                    ))
    out.sort(key=lambda m: m.site_key())
    return out


GALLERY = (
    "quantum_switch", "three_query_circuit", "half_switch_traced", "half_switch_lean",
    "worked_example", "worked_example_query_optimal", "worked_example_pgt",
    "two_query_pbs_free", "one_query_two_pbs", "repeated_switch", "fused_double_gate",
)


def _cross_check_hosts():
    hosts = [to_netlist(random_diagram(seed)) for seed in range(60)]
    hosts += [to_netlist(getattr(gallery, name)()) for name in GALLERY]
    for rule in RULES.values():
        vs = {**word_vars(rule.lhs), **word_vars(rule.rhs)}
        fresh = {nm: tuple(f"k{i}{j}" for j in range(v.exact or max(v.min_len, 1)))
                 for i, (nm, v) in enumerate(sorted(vs.items()))}
        shared = {nm: ("s",) * (v.exact or max(v.min_len, 1)) for nm, v in vs.items()}
        for side in (rule.lhs, rule.rhs):
            hosts += [to_netlist(substitute(side, b)) for b in (fresh, shared)]
    return hosts


def test_find_matches_agrees_with_the_reference_matcher():
    hosts = _cross_check_hosts()
    found = 0
    for rule_id in ALL_RULE_IDS:
        for direction in ("L2R", "R2L"):
            for n in hosts:
                want = [m.site_key() for m in _reference_matches(n, rule_id, direction)]
                assert [m.site_key() for m in find_matches(n, rule_id, direction)] == want
                found += len(want)
    assert found > 1000


def test_match_at_is_find_matches_on_the_given_nodes():
    # seeds: every node, a random half, and the nodes of a few of the sites
    rng = random.Random(0)
    hosts = _cross_check_hosts()
    seeded = 0
    for rule_id in ALL_RULE_IDS:
        for direction in ("L2R", "R2L"):
            for n in hosts:
                every = find_matches(n, rule_id, direction)
                seeds = [set(n.nodes), {hn for hn in n.nodes if rng.random() < 0.5}]
                seeds += [set(m.node_map.values()) for m in every[:3]]
                for nodes in seeds:
                    want = [m.site_key() for m in every if set(m.node_map.values()) <= nodes]
                    got = match_at(n, rule_id, direction, nodes)
                    assert [m.site_key() for m in got] == want, (rule_id, direction, nodes)
                    seeded += bool(want) and nodes != set(n.nodes)
    assert seeded > 1000, seeded


def test_splice_in_place_is_apply():
    hosts = _cross_check_hosts()[::3]
    spliced = 0
    for rule_id in ALL_RULE_IDS:
        for direction in ("L2R", "R2L"):
            for n in hosts:
                for inst in find_matches(n, rule_id, direction)[:4]:
                    want = apply(n, inst)
                    m = Netlist(n.in_type, n.out_type, dict(n.nodes), dict(n.wires), n.loops)
                    new_ids = splice(m, inst, max(n.nodes, default=-1) + 1)
                    assert (m.nodes, m.wires, m.loops) == (want.nodes, want.wires, want.loops)
                    assert list(m.nodes.items()) == list(want.nodes.items())  # same order
                    assert list(new_ids) == [k for k in m.nodes if k not in n.nodes]
                    spliced += 1
    assert spliced > 1000, spliced


def test_a_stale_splice_leaves_the_netlist_alone():
    n = to_netlist(par(gate_v(("U", "V")), gate_v(("W", "X"))))
    first, second = find_matches(n, "DER18", "L2R")
    splice(n, first, 2)
    before = (dict(n.nodes), dict(n.wires), n.loops)
    with pytest.raises(StaleInstance):
        apply(n, first)
    with pytest.raises(ValueError, match="taken"):
        splice(n, second, 3)
    assert (n.nodes, n.wires, n.loops) == before


# the last column only names the case, and keeps the tests' ids
@pytest.mark.parametrize("host, rule_id, direction, pick, changed, what", [
    # AX2's internal wire from gate 0 to gate 1 is cut
    ("gate[U,V] ; gate[W,V]", "AX2", "L2R", 0, "gate[U,V] | gate[W,V]", "wire .* changed"),
    # AX1's matched wire into the output now leaves another gate
    ("gate[U,V]", "AX1", "R2L", ("bout", 0), "gate[W,V] ; gate[U,V]", "matched wire is gone"),
    # AX1's pass-through took the loop, which has gone
    ("tr[V](id[V])", "AX1", "R2L", 0, "tr[H](id[H])", "matched loop is gone"),
    # APPE26's own loop has gone
    ("tr[V](id[V])", "APPE26", "L2R", 0, "tr[H](id[H])", "matched loop is gone"),
    # AX7's matched wire out of the gate is still there, but now carries H
    ("gate[U,V]", "AX7", "R2L", 0, "gate[U,H]", "matched wire is recoloured"),
])
def test_a_splice_on_a_changed_site_is_stale(host, rule_id, direction, pick, changed, what):
    # pick is the site's index, or the sink of its one matched wire
    sites = find_matches(to_netlist(parse(host)), rule_id, direction)
    inst = sites[pick] if isinstance(pick, int) else next(m for m in sites if m.wire_choices[0][1] == pick)
    n = to_netlist(parse(changed))
    before = (dict(n.nodes), dict(n.wires), n.loops)
    with pytest.raises(StaleInstance, match=f"{rule_id} {direction} no longer matches"):
        apply(n, inst)
    assert (n.nodes, n.wires, n.loops) == before


@pytest.mark.parametrize("changed", [
    "tr[V](gate[U,V] ; gate[W,V])",  # the input leg now comes round from gate 1
    "gate[U,V] | id[V] ; gate[W,V] | id[V] ; swap[V,V]",  # the output leg ends at the other output
])
def test_a_site_whose_legs_moved_still_applies(changed):
    # the legs are no part of the site: its nodes, words and internal wire
    # are intact, so it applies onto the legs the changed host has now
    (inst,) = find_matches(to_netlist(parse("gate[U,V] ; gate[W,V]")), "AX2", "L2R")
    n = to_netlist(parse(changed))
    out = apply(n, inst)
    assert all(out.sink_colour(snk) == out.source_colour(src) for snk, src in out.wires.items())
    assert tables_equal(semantics_table(out), semantics_table(n))


def test_a_site_applied_to_another_host_is_refused_or_sound():
    # a site carried to another host either still matches there, and the
    # rewrite keeps every wire one colour and the host's table, or is stale
    hosts = _cross_check_hosts()[::3]
    applied = refused = 0
    for rule_id in ALL_RULE_IDS:
        for direction in ("L2R", "R2L"):
            for k, host in enumerate(hosts):
                sites = find_matches(host, rule_id, direction)
                for n in hosts[k : k + 4] if sites else ():
                    try:
                        out = apply(n, sites[0])
                    except StaleInstance:
                        refused += 1
                        continue
                    assert all(out.sink_colour(snk) == out.source_colour(src) for snk, src in out.wires.items())
                    assert tables_equal(semantics_table(out), semantics_table(n)), (rule_id, direction)
                    applied += 1
    assert applied > 1000 and refused > 1000, (applied, refused)


@pytest.fixture
def register(monkeypatch):
    """Adds a rule to RULES for one test; _compile forgets it afterwards."""
    def add(rule_id, lhs, rhs):
        monkeypatch.setitem(RULES, rule_id, Rule(rule_id, lhs, rhs))
        _compile.cache_clear()

    yield add
    _compile.cache_clear()


def test_two_fed_back_slots_in_one_chain_close_one_loop(register):
    register("XX_GATES", Par(gate_v(()), gate_v(())), Par(ident(Colour.V), ident(Colour.V)))
    # each gate's output is traced back into the other gate
    n = to_netlist(parse("tr[V](tr[V](gate[,V] | gate[,V] ; swap[V,V]))"))
    matches = find_matches(n, "XX_GATES", "L2R")
    assert len(matches) == 2  # either gate for either pattern box
    for inst in matches:
        out = apply(n, inst)
        assert (out.nodes, out.wires, out.loops) == ({}, {}, (Colour.V,))
        want, closed = _reference_apply(n, inst)
        assert closed == 1 and (out.wires, out.loops) == (want.wires, want.loops)


def test_bare_wire_patterns_take_distinct_wires_and_loops(register):
    v = Colour.V
    register("XX_TWO_WIRES", Par(ident(v), ident(v)), Par(ident(v), ident(v)))
    n = to_netlist(parse("gate[U,V]"))  # two V wires, one each side of the gate
    matches = find_matches(n, "XX_TWO_WIRES", "L2R")
    assert sorted([c[1] for c in m.wire_choices] for m in matches) == [
        [("bout", 0), ("nin", 0, 0)], [("nin", 0, 0), ("bout", 0)]]
    register("XX_WIRE_AND_LOOP", Par(ident(v), Trace(v, ident(v))), Par(ident(v), Trace(v, ident(v))))
    # the one V loop cannot be both the pass-through and the pattern's loop
    n = to_netlist(parse("id[V] | tr[V](id[V])"))
    (m,) = find_matches(n, "XX_WIRE_AND_LOOP", "L2R")
    assert (m.wire_choices, m.loop_choices) == ([("wire", ("bout", 0), ("bin", 0))], [0])


def test_a_rule_side_mixing_nodes_and_bare_wires_is_rejected():
    w = WVar("W")
    RULES["XX_MIXED"] = Rule("XX_MIXED", Par(_gv(w), ident(Colour.V)), Par(_gv(w), ident(Colour.V)))
    try:
        for direction in ("L2R", "R2L"):
            with pytest.raises(ValueError, match="mixes nodes"):
                _compile("XX_MIXED", direction)
    finally:
        del RULES["XX_MIXED"]


def test_fusion_matching_is_quadratic_in_the_gates():
    # every (gate_v, gate_h) pair is a DER21 site; the matcher must not
    # rescan the host for each of the k * k sites
    k = 200
    n = to_netlist(par(*[gate_v("U")] * k, *[gate_h("U")] * k))
    start = time.perf_counter()
    matches = find_matches(n, "DER21", "L2R")
    elapsed = time.perf_counter() - start
    assert len(matches) == k * k
    assert elapsed < 2.0, f"{elapsed:.2f} s for {k * k} sites"


# ---------------------------------------------------------------------------
# the splice against a reference
# ---------------------------------------------------------------------------

def _reference_apply(n, inst):
    """The splice that apply replaced: a union-find over every host wire
    incident to the site, the legs and the replacement's wires, each
    class becoming one wire or one loop.  Returns the netlist and the
    number of loops it closed from the replacement's wires and the legs."""
    _, rep_term = _sides(RULES[inst.rule], inst.direction)
    pat = _compile(inst.rule, inst.direction)
    in_legs, out_legs = _legs(n, pat, inst)
    rep = to_netlist(substitute(rep_term, inst.bindings))
    removed = set(inst.node_map.values())
    base = max(n.nodes, default=-1) + 1
    rename = {old: base + i for i, old in enumerate(sorted(rep.nodes))}

    def ren_src(src):
        return ("IN", src[1]) if src[0] == "bin" else ("nout", rename[src[1]], src[2])

    def ren_snk(snk):
        return ("OUT", snk[1]) if snk[0] == "bout" else ("nin", rename[snk[1]], snk[2])

    internal_host = {
        ("nin", inst.node_map[snk[1]], snk[2]) for wires in pat.internal_at for snk, _ in wires
    }
    pt_wires = {c[1] for c in inst.wire_choices if c[0] == "wire"}
    consumed_loops = sorted(
        {c[1] for c in inst.wire_choices if c[0] == "loop"} | set(inst.loop_choices), reverse=True
    )
    uf = UnionFind()
    colour_hint = {}
    new_wires = dict(n.wires)
    for snk, src in n.wires.items():
        incident = (snk[0] == "nin" and snk[1] in removed) or (src[0] == "nout" and src[1] in removed)
        if snk in pt_wires:
            del new_wires[snk]
        elif incident:
            del new_wires[snk]
            if snk not in internal_host:
                uf.union(snk, src)
                colour_hint[snk] = n.sink_colour(snk)
    for i, leg in enumerate(in_legs):
        uf.union(("IN", i), leg)
        colour_hint[("IN", i)] = pat.in_type[i]
    for j, leg in enumerate(out_legs):
        uf.union(("OUT", j), leg)
        colour_hint[("OUT", j)] = pat.out_type[j]
    for snk, src in rep.wires.items():
        uf.union(ren_snk(snk), ren_src(src))

    new_nodes = {hn: node for hn, node in n.nodes.items() if hn not in removed}
    for old, node in rep.nodes.items():
        new_nodes[rename[old]] = node
    new_loops = list(n.loops)
    for i in consumed_loops:
        del new_loops[i]
    new_loops.extend(rep.loops)
    closed = 0
    for members in uf.classes().values():
        srcs = [m for m in members if m[0] == "bin" or (m[0] == "nout" and m[1] in new_nodes)]
        snks = [m for m in members if m[0] == "bout" or (m[0] == "nin" and m[1] in new_nodes)]
        assert len(srcs) <= 1 and len(snks) <= 1 and len(srcs) == len(snks), members
        if srcs:
            new_wires[snks[0]] = srcs[0]
        else:
            new_loops.append(next(colour_hint[m] for m in members if m in colour_hint))
            closed += 1
    loops = tuple(sorted(new_loops, key=lambda c: c.value))
    return Netlist(n.in_type, n.out_type, new_nodes, new_wires, loops), closed


def _fed_back(n, inst):
    """Whether some input leg is one of the site's own ports or a matched loop."""
    site = set(inst.node_map.values())
    in_legs, _ = _legs(n, _compile(inst.rule, inst.direction), inst)
    return any(leg[0] == "loopend" or (leg[0] == "nout" and leg[1] in site) for leg in in_legs)


def test_apply_agrees_with_the_reference_splice():
    hosts = _cross_check_hosts() + [
        to_netlist(t)
        for t in (
            Trace(Colour.V, seq(gate_v("U"), gate_v("W"))),  # AX2 with its output fed back
            Trace(Colour.V, gate_v()),  # AX1 L2R closes the fed-back wire into a loop
            Trace(Colour.V, ident(Colour.V)),  # a bare loop under AX1 / APPE38 R2L
            par(Trace(Colour.V, ident(Colour.V)), Trace(Colour.H, ident(Colour.H))),
            Trace(Colour.T, seq(split_vh(), merge_vh())),
        )
    ]
    applied = fed = closed = 0
    for rule_id in ALL_RULE_IDS:
        for direction in ("L2R", "R2L"):
            for n in hosts:
                for inst in find_matches(n, rule_id, direction):
                    want, k = _reference_apply(n, inst)
                    got = apply(n, inst)
                    assert (got.nodes, got.wires, got.loops) == (want.nodes, want.wires, want.loops)
                    applied += 1
                    fed += _fed_back(n, inst)
                    closed += k > 0
    assert applied > 5000 and fed > 0 and closed > 0, (applied, fed, closed)


def test_a_step_costs_its_site_not_the_host():
    # the site comes from a one-chain host, whose legs are the boundary
    # ports ("bin", 0) and ("bout", 0) of the wide host as well
    k = 10_000
    (inst,) = find_matches(to_netlist(seq(gate_v("U"), gate_v("W"))), "AX2", "L2R")
    n = to_netlist(par(*[seq(gate_v("U"), gate_v("W"))] * k))
    assert _legs(n, _compile("AX2", "L2R"), inst) == ([("bin", 0)], [("bout", 0)])
    start = time.perf_counter()
    for _ in range(200):
        out = apply(n, inst)
    elapsed = time.perf_counter() - start
    assert len(out.nodes) == 2 * k - 1 and out.wires[("bout", 0)] == ("nout", 2 * k, 0)
    assert elapsed < 1.0, f"{elapsed:.2f} s for 200 steps on {k} chains"


def test_a_wire_site_is_rematched_on_its_own_wires():
    # 400 V wires by 400 H wires make 160,000 sites of either rule; apply
    # re-matches only the site's own two.  The sites come from a host whose
    # wires the wide host has too.
    n = to_netlist(par(*[gate_v("U"), gate_h("W")] * 200))
    for rule_id in ("AX10", "APPE38"):
        sites = find_matches(to_netlist(par(gate_v("U"), gate_h("W"))), rule_id, "R2L")
        assert len(sites) == 4
        for inst in sites:
            start = time.perf_counter()
            out = apply(n, inst)
            elapsed = time.perf_counter() - start
            assert len(out.nodes) == len(n.nodes) + 2
            assert elapsed < 0.1, f"{rule_id}: {elapsed:.2f} s for one apply"


def test_matching_and_applying_read_no_wire_backwards(monkeypatch):
    # no reverse wire map: a site holds no leg, and the splice finds each
    # of its own by one search of the wires
    def refuse(self):
        raise AssertionError("the reverse wire map was built")

    hosts = [to_netlist(par(*[gate_v("U")] * 200, *[gate_h("U")] * 200))] + _cross_check_hosts()[::5]
    monkeypatch.setattr(Netlist, "sink_of", refuse)
    applied = 0
    for rule_id in ALL_RULE_IDS:
        for direction in ("L2R", "R2L"):
            for n in hosts:
                sites = find_matches(n, rule_id, direction)
                if sites:
                    apply(n, sites[0])
                    applied += 1
    assert applied > 100, applied
