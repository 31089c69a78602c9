from __future__ import annotations

import heapq
import inspect
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import cpbs
from cpbs import gallery
from cpbs.netlist import Netlist, UnionFind, _back_wires, netlists_isomorphic, to_netlist, to_term
from cpbs.normal_form import normalize
from cpbs.query_opt import _optimize_queries
from cpbs.randgen import random_diagram
from cpbs.rewrite import apply, find_matches
from cpbs.rules import RULES
from cpbs.terms import (
    STRUCT_KINDS,
    Colour,
    Empty,
    Gen,
    Par,
    Seq,
    Term,
    Trace,
    fold,
    generators,
    gate_t,
    gate_v,
    gate_h,
    ident,
    identity_of,
    layer,
    merge_vh,
    neg_t,
    neg_vh,
    par,
    pbs4,
    perm,
    seq,
    split_vh,
    swap,
    type_of,
)
from cpbs.textform import parse, print_term

T, V, H = Colour.T, Colour.V, Colour.H


def _quantum_switch():
    return Trace(
        T,
        seq(pbs4(), Par(gate_t("U"), gate_t("V")), swap(T, T), pbs4()),
    )


def test_identity_dissolves():
    n = to_netlist(ident(T))
    assert not n.nodes
    assert n.wires == {("bout", 0): ("bin", 0)}
    assert n.loops == ()


def test_swap_dissolves_into_crossing():
    n = to_netlist(swap(V, H))
    assert not n.nodes
    assert n.wires == {("bout", 0): ("bin", 1), ("bout", 1): ("bin", 0)}


def test_perm_dissolves_like_its_swap_layers():
    n = to_netlist(perm((T, V, H), (2, 0, 1)))
    assert not n.nodes
    drawn = seq(par(swap(T, V), ident(H)), par(ident(V), swap(T, H)))
    assert netlists_isomorphic(n, to_netlist(drawn))


def test_split_merge_wiring():
    n = to_netlist(Seq(split_vh(), merge_vh()))
    assert sorted(x.kind for x in n.nodes.values()) == ["merge_vh", "split_vh"]
    split = next(i for i, x in n.nodes.items() if x.kind == "split_vh")
    merge = next(i for i, x in n.nodes.items() if x.kind == "merge_vh")
    assert n.wires[("nin", split, 0)] == ("bin", 0)
    assert n.wires[("nin", merge, 0)] == ("nout", split, 0)
    assert n.wires[("nin", merge, 1)] == ("nout", split, 1)
    assert n.wires[("bout", 0)] == ("nout", merge, 0)


def test_bare_loop_from_traced_wire():
    n = to_netlist(Trace(V, ident(V)))
    assert n.loops == (V,)
    assert not n.nodes and not n.wires
    n2 = to_netlist(Par(Trace(V, ident(V)), Trace(H, Seq(ident(H), ident(H)))))
    assert n2.loops == (H, V)


def test_quantum_switch_netlist_shape():
    n = to_netlist(_quantum_switch())
    assert n.in_type == (T,) and n.out_type == (T,)
    assert sorted(x.kind for x in n.nodes.values()) == [
        "gate_t",
        "gate_t",
        "pbs4",
        "pbs4",
    ]
    assert len(n.wires) == 7
    assert n.loops == ()


def test_nodes_numbered_in_left_to_right_leaf_order():
    d = Seq(
        Par(gate_t("A"), Seq(swap(T, T), Par(gate_t("B"), ident(T)))),
        Trace(T, par(Seq(gate_t("C"), neg_t()), ident(T), Seq(pbs4(), Par(gate_t("D"), ident(T))))),
    )
    n = to_netlist(d)
    assert [n.nodes[i] for i in range(len(n.nodes))] == [
        Gen("gate_t", ("A",)),
        Gen("gate_t", ("B",)),
        Gen("gate_t", ("C",)),
        Gen("neg_t"),
        Gen("pbs4"),
        Gen("gate_t", ("D",)),
    ]


def test_boxes_are_the_terms_own_generators():
    named = [f() for _, f in inspect.getmembers(gallery, inspect.isfunction)
             if f.__module__ == gallery.__name__ and not inspect.signature(f).parameters]
    drawn = [random_diagram(s, max_generators=24, max_wires=5) for s in range(50)]
    # parsed text shares one Gen among equal spellings, so a box object can recur
    for k, d in enumerate(named + [parse(print_term(x)) for x in named] + drawn):
        leaves = [g for g in generators(d) if g.kind not in STRUCT_KINDS]
        n = to_netlist(d)
        assert len(n.nodes) == len(leaves), f"term {k}"
        assert all(n.nodes[i] is g for i, g in enumerate(leaves)), f"term {k}"
        back = [g for g in generators(to_term(n)) if g.kind not in STRUCT_KINDS]
        assert Counter(map(id, back)) == Counter(map(id, leaves)), f"term {k}"


def test_bracketing_irrelevant():
    a, b, c = gate_v("U"), neg_vh(), gate_h("V")
    left = Seq(Seq(a, b), c)
    right = Seq(a, Seq(b, c))
    assert netlists_isomorphic(to_netlist(left), to_netlist(right))


def test_inserted_identities_irrelevant():
    d1 = Seq(neg_t(), gate_t("U"))
    d2 = seq(ident(T), neg_t(), ident(T), gate_t("U"), ident(T))
    assert netlists_isomorphic(to_netlist(d1), to_netlist(d2))


def test_double_swap_is_identity_wiring():
    straight = Par(gate_v("U"), gate_v("U"))
    crossed = seq(swap(V, V), Par(gate_v("U"), gate_v("U")), swap(V, V))
    assert netlists_isomorphic(to_netlist(straight), to_netlist(crossed))


def test_word_distinguishes():
    assert not netlists_isomorphic(to_netlist(gate_t("U")), to_netlist(gate_t("V")))


def test_boundary_is_fixed_pointwise():
    d1 = Par(gate_v("U"), gate_v("V"))
    d2 = seq(swap(V, V), Par(gate_v("U"), gate_v("V")), swap(V, V))
    # d2 routes input 0 through the V-labelled gate instead
    assert not netlists_isomorphic(to_netlist(d1), to_netlist(d2))


def _renamed(n: Netlist, f: dict[int, int]) -> Netlist:
    port = lambda p: p if p[0] in ("bin", "bout") else (p[0], f[p[1]], p[2])
    return Netlist(
        n.in_type,
        n.out_type,
        {f[u]: node for u, node in n.nodes.items()},
        {port(a): port(b) for a, b in n.wires.items()},
        n.loops,
    )


def _isomorphic_by_brute_force(n1: Netlist, n2: Netlist) -> bool:
    """Try every node bijection that keeps labels; boundary ports map to themselves."""
    if (n1.in_type, n1.out_type, n1.loops) != (n2.in_type, n2.out_type, n2.loops):
        return False
    ids1, ids2 = sorted(n1.nodes), sorted(n2.nodes)
    if len(ids1) != len(ids2):
        return False
    for image in itertools.permutations(ids2):
        f = dict(zip(ids1, image))
        if all(n1.nodes[u] == n2.nodes[v] for u, v in f.items()) and _renamed(n1, f).wires == n2.wires:
            return True
    return False


def _relabelled(n: Netlist, rng: random.Random) -> Netlist:
    return _renamed(n, dict(zip(n.nodes, rng.sample(range(100), len(n.nodes)))))


def _sources_swapped(n: Netlist, rng: random.Random) -> Netlist | None:
    sinks = sorted(n.wires)
    rng.shuffle(sinks)
    for a, b in itertools.combinations(sinks, 2):
        if n.sink_colour(a) == n.sink_colour(b):
            wires = dict(n.wires)
            wires[a], wires[b] = wires[b], wires[a]
            return Netlist(n.in_type, n.out_type, dict(n.nodes), wires, n.loops)
    return None


def _reworded(n: Netlist, rng: random.Random) -> Netlist | None:
    gates = sorted(u for u, node in n.nodes.items() if node.word)
    if not gates:
        return None
    u = rng.choice(gates)
    nodes = dict(n.nodes)
    nodes[u] = Gen(nodes[u].kind, tuple(rng.choice("UVW") for _ in range(rng.randint(0, 2))))
    return Netlist(n.in_type, n.out_type, nodes, dict(n.wires), n.loops)


def test_isomorphism_agrees_with_brute_force():
    verdicts = []
    for seed in range(150):
        rng = random.Random(seed)
        d = random_diagram(rng, max_generators=6, max_wires=rng.randint(1, 4))
        n = to_netlist(d)
        assert len(n.nodes) <= 6
        others = [
            _relabelled(n, rng),
            _sources_swapped(n, rng),
            _reworded(n, rng),
            to_netlist(random_diagram(rng, max_generators=6, max_wires=rng.randint(1, 4))),
        ]
        for m in others:
            if m is None or len(m.nodes) > 6:
                continue
            for a, b in [(n, m), (_relabelled(m, rng), n)]:
                expected = _isomorphic_by_brute_force(a, b)
                assert netlists_isomorphic(a, b) == expected, f"seed {seed}"
                verdicts.append(expected)
    assert 0.2 < sum(verdicts) / len(verdicts) < 0.8


def test_closed_parts_match_in_any_order():
    a, b = Trace(V, gate_v("U")), Trace(T, seq(gate_t("U"), neg_t(), gate_t("W")))
    host = Seq(split_vh(), merge_vh())
    n = to_netlist(par(a, host, b, a))
    assert netlists_isomorphic(n, to_netlist(par(b, a, a, host)))
    assert not netlists_isomorphic(n, to_netlist(par(b, a, Trace(V, gate_v("W")), host)))
    assert not netlists_isomorphic(n, to_netlist(par(a, host, b, b)))


def test_roundtrip_simple():
    for d in [
        ident(T),
        swap(T, H),
        Seq(split_vh(), merge_vh()),
        _quantum_switch(),
        Par(Trace(V, ident(V)), gate_t("U")),
        Empty(),
    ]:
        n = to_netlist(d)
        back = to_term(n)
        assert type_of(back) == type_of(d)
        assert netlists_isomorphic(to_netlist(back), n)


def test_roundtrip_random():
    for seed in range(40):
        d = random_diagram(random.Random(seed), max_generators=8)
        n = to_netlist(d)
        back = to_term(n)
        assert type_of(back) == type_of(d)
        assert netlists_isomorphic(to_netlist(back), n), f"seed {seed}"


def test_handbuilt_netlist_roundtrip():
    # a feedback cycle built directly, no term in sight
    n = Netlist(in_type=(T,), out_type=(T,))
    n.nodes[0] = Gen("pbs4")
    n.nodes[1] = Gen("gate_t", ("U",))
    n.wires[("nin", 0, 0)] = ("bin", 0)
    n.wires[("nin", 1, 0)] = ("nout", 0, 1)
    n.wires[("nin", 0, 1)] = ("nout", 1, 0)
    n.wires[("bout", 0)] = ("nout", 0, 0)
    back = to_term(n)
    assert type_of(back) == ((T,), (T,))
    assert netlists_isomorphic(to_netlist(back), n)


# ---------------------------------------------------------------------------
# cross-checks against plainer elaboration and extraction
# ---------------------------------------------------------------------------

def _reference_netlist(d: Term) -> Netlist:
    """A two-pass elaboration: type_of, then a fold joining port tuples in a dict union-find."""
    a, b = type_of(d)
    uf = UnionFind()
    nodes: dict[int, Gen] = {}
    virtual_colour: dict = {}

    def fresh_virtual(c):
        v = ("v", len(virtual_colour))
        virtual_colour[v] = c
        uf.add(v)
        return v

    def gen(t: Gen):
        if t.kind in STRUCT_KINDS:
            vs = [fresh_virtual(c) for c in t.colours]
            outs = list(vs)
            for v, s in zip(vs, t.wire_slots):
                outs[s] = v
            return vs, outs
        n = len(nodes)
        nodes[n] = Gen(t.kind, t.word)
        ta, tb = t.signature()
        ins = [("nin", n, k) for k in range(len(ta))]
        outs = [("nout", n, k) for k in range(len(tb))]
        for x in ins + outs:
            uf.add(x)
        return ins, outs

    def then(f, s):
        for x, y in zip(f[1], s[0]):
            uf.union(x, y)
        return f[0], s[1]

    def feedback(c, body):
        ins, outs = body
        uf.union(outs[-1], ins[-1])
        return ins[:-1], outs[:-1]

    ins, outs = fold(d, gen, then, lambda t, b: (t[0] + b[0], t[1] + b[1]), feedback, ([], []))
    for i, x in enumerate(ins):
        uf.union(("bin", i), x)
    for j, x in enumerate(outs):
        uf.union(("bout", j), x)
    out = Netlist(a, b, nodes)
    loop_colours = []
    for members in uf.classes().values():
        srcs = [m for m in members if m[0] in ("bin", "nout")]
        snks = [m for m in members if m[0] in ("bout", "nin")]
        assert len(srcs) <= 1 and len(snks) <= 1 and len(srcs) == len(snks)
        if srcs:
            out.wires[snks[0]] = srcs[0]
        else:
            loop_colours.append(virtual_colour[members[0]])
    out.loops = tuple(sorted(loop_colours, key=lambda c: c.value))
    return out


def _reference_term(n: Netlist) -> Term:
    """A scan-based extraction: each step scans every remaining node for the least ready one."""
    cuts = _back_wires(n)
    wires = dict(n.wires)
    in_ext = list(n.in_type)
    sink_of = n.sink_of()
    for m, (snk, src) in enumerate(cuts):
        in_ext.append(n.sink_colour(snk))
        wires[snk] = ("bin", len(n.in_type) + m)
        sink_of[src] = ("bout", len(n.out_type) + m)

    def colours_of(front):
        return [in_ext[s[1]] if s[0] == "bin" else n.source_colour(s) for s in front]

    def swap_layers(colours, slots):
        arr = list(range(len(slots)))
        out = []
        changed = True
        while changed:
            changed = False
            for s in range(len(arr) - 1):
                if slots[arr[s]] > slots[arr[s + 1]]:
                    out.append(layer([colours[a] for a in arr], s, swap(colours[arr[s]], colours[arr[s + 1]])))
                    arr[s], arr[s + 1] = arr[s + 1], arr[s]
                    changed = True
        return out

    frontier = [("bin", i) for i in range(len(in_ext))]
    layers = []
    remaining = set(n.nodes)
    while remaining:
        nid = min(u for u in remaining if all(wires[snk] in frontier for snk in n.node_sinks(u)))
        srcs = [wires[snk] for snk in n.node_sinks(nid)]
        dest = min(frontier.index(s) for s in srcs)
        others = [s for s in frontier if s not in srcs]
        new_front = others[:dest] + srcs + others[dest:]
        layers += swap_layers(colours_of(frontier), [new_front.index(s) for s in frontier])
        frontier = new_front
        node = n.nodes[nid]
        layers.append(layer(colours_of(frontier), dest, Gen(node.kind, node.word)))
        frontier = frontier[:dest] + n.node_sources(nid) + frontier[dest + len(srcs):]
        remaining.discard(nid)
    layers += swap_layers(colours_of(frontier), [sink_of[s][1] for s in frontier])
    core = seq(*layers) if layers else identity_of(tuple(in_ext))
    for m in range(len(cuts) - 1, -1, -1):
        core = Trace(in_ext[len(n.in_type) + m], core)
    parts = [p for p in [core] + [Trace(c, ident(c)) for c in n.loops] if not isinstance(p, Empty)]
    return par(*parts) if parts else Empty()


def _cross_check_terms() -> list[Term]:
    """Random draws, the gallery, normal forms, extracted terms and every rule side."""
    drawn = [random_diagram(s) for s in range(120)]
    drawn += [random_diagram(s, max_generators=24, max_wires=5) for s in range(40)]
    named = [f() for _, f in inspect.getmembers(gallery, inspect.isfunction)
             if f.__module__ == gallery.__name__ and not inspect.signature(f).parameters]
    shown = drawn[:40] + named
    return (drawn + named
            + [normalize(d).as_term() for d in shown]
            + [to_term(to_netlist(d)) for d in shown]
            + [side for r in RULES.values() for side in (r.lhs, r.rhs)])


def _shape(n: Netlist) -> tuple:
    return n.in_type, n.out_type, n.nodes, list(n.wires.items()), n.loops


def test_to_netlist_matches_reference():
    terms = _cross_check_terms()
    assert len(terms) > 300
    for k, d in enumerate(terms):
        assert _shape(to_netlist(d)) == _shape(_reference_netlist(d)), f"term {k}"


def test_to_term_matches_reference():
    nets = [to_netlist(d) for d in _cross_check_terms()]
    for k, n in enumerate(nets):
        assert to_term(n) == _reference_term(n), f"netlist {k}"


def _recoloured_term(n: Netlist) -> Term:
    """to_term's extraction, reading every frontier wire's colour afresh twice
    per box and building each layer's ids and swaps anew: the reference for
    its kept colour list and its shared wiring leaves."""
    cuts = _back_wires(n)
    wires = dict(n.wires)
    in_ext = list(n.in_type)
    sink_of = n.sink_of()
    for m, (snk, src) in enumerate(cuts):
        in_ext.append(n.sink_colour(snk))
        wires[snk] = ("bin", len(n.in_type) + m)
        sink_of[("bin", len(n.in_type) + m)] = snk
        sink_of[src] = ("bout", len(n.out_type) + m)

    def colours_of(front):
        return [in_ext[s[1]] if s[0] == "bin" else n.source_colour(s) for s in front]

    def fresh_layer(types, pos, g):
        k = len(g.signature()[0])
        ids = [Gen("id", colours=(c,)) for c in types]
        return par(*ids[:pos], g, *ids[pos + k:])

    def swap_layers(colours, slots):
        arr = list(range(len(slots)))
        out = []
        changed = True
        while changed:
            changed = False
            for s in range(len(arr) - 1):
                if slots[arr[s]] > slots[arr[s + 1]]:
                    g = Gen("swap", colours=(colours[arr[s]], colours[arr[s + 1]]))
                    out.append(fresh_layer([colours[a] for a in arr], s, g))
                    arr[s], arr[s + 1] = arr[s + 1], arr[s]
                    changed = True
        return out

    frontier = [("bin", i) for i in range(len(in_ext))]
    layers = []
    pending = dict.fromkeys(n.nodes, 0)
    for snk, src in wires.items():
        if src[0] == "nout" and snk[0] == "nin":
            pending[snk[1]] += 1
    ready = [nid for nid, k in pending.items() if not k]
    heapq.heapify(ready)
    while ready:
        nid = heapq.heappop(ready)
        srcs = [wires[snk] for snk in n.node_sinks(nid)]
        dest = min(frontier.index(s) for s in srcs)
        others = [s for s in frontier if s not in set(srcs)]
        new_front = others[:dest] + srcs + others[dest:]
        at = {s: i for i, s in enumerate(new_front)}
        layers += swap_layers(colours_of(frontier), [at[s] for s in frontier])
        frontier = new_front
        layers.append(fresh_layer(colours_of(frontier), dest, n.nodes[nid]))
        outs = n.node_sources(nid)
        frontier = frontier[:dest] + outs + frontier[dest + len(srcs):]
        del pending[nid]
        for src in outs:
            snk = sink_of[src]
            if snk[0] == "nin":
                pending[snk[1]] -= 1
                if not pending[snk[1]]:
                    heapq.heappush(ready, snk[1])
    if frontier:
        layers += swap_layers(colours_of(frontier), [sink_of[s][1] for s in frontier])
    core = seq(*layers) if layers else identity_of(tuple(in_ext))
    for m in range(len(cuts) - 1, -1, -1):
        core = Trace(in_ext[len(n.in_type) + m], core)
    parts = [p for p in [core] + [Trace(c, ident(c)) for c in n.loops] if not isinstance(p, Empty)]
    return par(*parts) if parts else Empty()


def test_to_term_matches_the_recolouring_reference():
    # the gallery, the optimiser's netlists, normal forms and every rule side
    named = [f() for _, f in inspect.getmembers(gallery, inspect.isfunction)
             if f.__module__ == gallery.__name__ and not inspect.signature(f).parameters]
    nets = [to_netlist(d) for d in named]
    nets += [_optimize_queries(random_diagram(s))[0] for s in range(400)]
    nets += [to_netlist(normalize(d).as_term()) for d in named + [random_diagram(s) for s in range(40)]]
    nets += [to_netlist(side) for r in RULES.values() for side in (r.lhs, r.rhs)]
    for k, n in enumerate(nets):
        assert to_term(n) == _recoloured_term(n), f"netlist {k}"


def test_one_generator_at_two_leaves_is_two_nodes():
    p = pbs4()
    shared, fresh = to_netlist(seq(p, p)), to_netlist(seq(pbs4(), pbs4()))
    assert list(shared.nodes) == [0, 1] and shared.nodes[0] is shared.nodes[1] is p
    assert netlists_isomorphic(shared, fresh)
    site = find_matches(shared, "AX13")[0]
    out = apply(shared, site)
    other = ({0, 1} - set(site.node_map.values())).pop()
    assert out.nodes[other] is p and shared.nodes[0] is shared.nodes[1] is p
    assert netlists_isomorphic(shared, fresh)
    assert netlists_isomorphic(out, apply(fresh, find_matches(fresh, "AX13")[0]))
    assert not netlists_isomorphic(out, fresh)


# each names its kind of type error; every one must reach to_netlist's check
ILL_TYPED = {
    "seq-colours": Seq(split_vh(), pbs4()),
    "seq-widths": Seq(pbs4(), neg_t()),
    "seq-inside": par(gate_t("U"), Seq(ident(T), Seq(gate_v("U"), neg_t()))),
    "trace-colour": Trace(V, pbs4()),
    "trace-one-side": Trace(H, Seq(split_vh(), par(ident(V), gate_h("U")))),
    "trace-empty": Trace(T, Empty()),
    "trace-inside": Seq(gate_t("U"), Trace(T, Trace(T, pbs4()))),
    # a trace over nothing must not close over a neighbour's wire
    "trace-empty-after-wire": par(ident(T), Trace(T, Empty())),
    "trace-empty-before-wire": Par(Trace(T, Empty()), ident(T)),
    "trace-empty-after-seq": Seq(par(ident(T), ident(T)), par(ident(T), Trace(T, Empty()))),
}


@pytest.mark.parametrize("name", sorted(ILL_TYPED))
def test_ill_typed_terms_raise_the_type_of_message(name):
    d = ILL_TYPED[name]
    with pytest.raises(TypeError) as want:
        type_of(d)
    with pytest.raises(TypeError) as got:
        to_netlist(d)
    assert str(got.value) == str(want.value)


def test_ill_typed_terms_raise_under_optimisation():
    tests = Path(__file__).resolve().parent
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(tests)!r})\n"
        "from test_netlist import ILL_TYPED\n"
        "from cpbs.netlist import to_netlist\n"
        "for name in sorted(ILL_TYPED):\n"
        "    try:\n"
        "        to_netlist(ILL_TYPED[name])\n"
        "        print('no error')\n"
        "    except TypeError as e:\n"
        "        print(e)\n"
    )
    src = str(Path(cpbs.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    lines = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout.splitlines()
    want = []
    for name in sorted(ILL_TYPED):
        with pytest.raises(TypeError) as e:
            type_of(ILL_TYPED[name])
        want.append(str(e.value))
    assert lines == want
