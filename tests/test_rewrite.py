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

from union_find import UnionFind


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


# SHA-1 of each derived and ancillary rule's replayed trace, rule by rule in name order
REPLAY_DIGEST = "7cee352464ce6d462dc3b333f579e40e2ac53e87"


def test_replayed_traces_render_as_pinned():
    digest = hashlib.sha1()
    for target in sorted(_CHAINS):
        digest.update(f"{target}\n{render_trace(replay_derivation(target))}\n".encode())
    assert digest.hexdigest() == REPLAY_DIGEST


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
    rev = n.sink_of()
    complete = []

    def backtrack(i, node_map, binding):
        if i == len(pat.node_order):
            complete.append((node_map, binding))
            return
        pn = pat.node_order[i]
        pnode = pat.nodes[pn]
        for hn in sorted(n.nodes):
            if hn in node_map.values() or n.nodes[hn].kind != pnode.kind:
                continue
            for b2 in _match_word(pnode.word, n.nodes[hn].word, binding):
                m2 = {**node_map, pn: hn}
                if all(
                    n.wires.get(("nin", m2[snk[1]], snk[2])) == ("nout", m2[src[1]], src[2])
                    for snk, src in pat.internal
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
                in_legs = {i: n.wires[("nin", node_map[snk[1]], snk[2])] for i, snk in pat.bound_in}
                out_legs = {j: rev[("nout", node_map[src[1]], src[2])] for j, src in pat.bound_out}
                for (i, j, _), choice in zip(pat.passthrough, pt_choice):
                    if choice[0] == "wire":
                        in_legs[i], out_legs[j] = choice[2], choice[1]
                    else:
                        in_legs[i] = out_legs[j] = ("loopend", choice[1])
                inst = RuleInstance(
                    rule_id,
                    direction,
                    dict(node_map),
                    {hn: n.nodes[hn].word for hn in mapped},
                    dict(binding),
                    [in_legs[i] for i in range(len(pat.in_type))],
                    [out_legs[j] for j in range(len(pat.out_type))],
                    list(pt_choice),
                    list(loop_choice),
                )
                key = (frozenset(mapped), tuple(inst.in_legs), tuple(inst.out_legs),
                       tuple(sorted(binding.items())), pt_choice, loop_choice)
                if key not in seen:
                    seen.add(key)
                    out.append(inst)
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
        splice(n, first, 4)
    with pytest.raises(ValueError, match="taken"):
        splice(n, second, 3)
    assert (n.nodes, n.wires, n.loops) == before


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
    rep = to_netlist(substitute(rep_term, inst.bindings))
    removed = set(inst.node_map.values())
    base = max(n.nodes, default=-1) + 1
    rename = {old: base + i for i, old in enumerate(sorted(rep.nodes))}

    def ren_src(src):
        return ("IN", src[1]) if src[0] == "bin" else ("nout", rename[src[1]], src[2])

    def ren_snk(snk):
        return ("OUT", snk[1]) if snk[0] == "bout" else ("nin", rename[snk[1]], snk[2])

    internal_host = {("nin", inst.node_map[snk[1]], snk[2]) for snk, _ in pat.internal}
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
    for i, leg in enumerate(inst.in_legs):
        uf.union(("IN", i), leg)
        colour_hint[("IN", i)] = pat.in_type[i]
    for j, leg in enumerate(inst.out_legs):
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


def _fed_back(inst):
    """Whether some input leg is one of the site's own ports or a matched loop."""
    site = set(inst.node_map.values())
    return any(leg[0] == "loopend" or (leg[0] == "nout" and leg[1] in site) for leg in inst.in_legs)


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
                    fed += _fed_back(inst)
                    closed += k > 0
    assert applied > 5000 and fed > 0 and closed > 0, (applied, fed, closed)


def test_a_step_costs_its_site_not_the_host():
    # the site comes from a one-chain host, whose legs are the boundary
    # ports ("bin", 0) and ("bout", 0) of the wide host as well
    k = 10_000
    (inst,) = find_matches(to_netlist(seq(gate_v("U"), gate_v("W"))), "AX2", "L2R")
    n = to_netlist(par(*[seq(gate_v("U"), gate_v("W"))] * k))
    assert inst.in_legs == [("bin", 0)] and inst.out_legs == [("bout", 0)]
    start = time.perf_counter()
    for _ in range(200):
        out = apply(n, inst)
    elapsed = time.perf_counter() - start
    assert len(out.nodes) == 2 * k - 1 and out.wires[("bout", 0)] == ("nout", 2 * k, 0)
    assert elapsed < 1.0, f"{elapsed:.2f} s for 200 steps on {k} chains"
