from __future__ import annotations

import random

from cpbs.netlist import Netlist, Node, netlists_isomorphic, to_netlist, to_term
from cpbs.randgen import random_diagram
from cpbs.terms import (
    Colour,
    Empty,
    Par,
    Seq,
    Trace,
    gate_t,
    gate_v,
    gate_h,
    ident,
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
        Node("gate_t", ("A",)),
        Node("gate_t", ("B",)),
        Node("gate_t", ("C",)),
        Node("neg_t"),
        Node("pbs4"),
        Node("gate_t", ("D",)),
    ]


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
    n.nodes[0] = Node("pbs4")
    n.nodes[1] = Node("gate_t", ("U",))
    n.wires[("nin", 0, 0)] = ("bin", 0)
    n.wires[("nin", 1, 0)] = ("nout", 0, 1)
    n.wires[("nin", 0, 1)] = ("nout", 1, 0)
    n.wires[("bout", 0)] = ("nout", 0, 0)
    back = to_term(n)
    assert type_of(back) == ((T,), (T,))
    assert netlists_isomorphic(to_netlist(back), n)
