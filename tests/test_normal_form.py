"""Normal form synthesis, the induction route, and decided equivalence."""

from __future__ import annotations

import pytest

from cpbs.errors import NotBijective, TypeMismatch
from cpbs.normal_form import NfLine, NormalForm, equivalent, nf_by_rewriting, normalize, synthesize_nf
from cpbs.randgen import random_diagram
from cpbs.semantics import SemanticsTable, semantics_table, tables_equal
from cpbs.terms import (
    Colour,
    Empty,
    Gen,
    Par,
    Trace,
    gate_h,
    gate_t,
    gate_v,
    ident,
    merge_vh,
    neg_hv,
    neg_t,
    neg_vh,
    par,
    pbs4,
    pbs_tv_vt,
    perm,
    seq,
    split_vh,
    swap,
)

T, V, H = Colour.T, Colour.V, Colour.H


def _quantum_switch():
    return Trace(T, seq(pbs4(), Par(gate_t("U"), gate_t("V")), swap(T, T), pbs4()))


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

def test_black_wire_form():
    nf = normalize(ident(T))
    assert nf.lines == (
        NfLine((V, 0), (V, 0), ()),
        NfLine((H, 0), (H, 0), ()),
    )
    assert nf.S == split_vh()
    assert nf.M == merge_vh()
    assert nf.G == par(ident(V), ident(H))
    assert nf.F == par(ident(V), ident(H))
    assert nf.permutation == (0, 1)


def test_gated_negated_black_wire_form():
    nf = normalize(seq(gate_t("U"), neg_t()))
    assert nf.lines == (
        NfLine((V, 0), (H, 0), ("U",)),
        NfLine((H, 0), (V, 0), ("U",)),
    )
    assert nf.G == par(gate_v("U"), gate_h("U"))
    assert nf.F == par(neg_vh(), neg_hv())
    assert nf.permutation == (1, 0)
    assert nf.P == perm((H, V), (1, 0))


def test_synthesis_round_trips_through_semantics():
    for seed in range(40):
        d = random_diagram(seed)
        t = semantics_table(d)
        nf = synthesize_nf(t)
        assert tables_equal(semantics_table(nf.as_term()), t)


def test_rejects_non_bijective_table():
    squashed = SemanticsTable(
        (T,), (T,), {(V, 0): ((V, 0), ()), (H, 0): ((V, 0), ("U",))}
    )
    with pytest.raises(NotBijective):
        synthesize_nf(squashed)
    with pytest.raises(NotBijective):  # the H configuration has no entry
        synthesize_nf(SemanticsTable((T,), (V,), {(V, 0): ((V, 0), ())}))


def test_empty_diagram_and_loops_share_a_form():
    assert normalize(Empty()) == normalize(Trace(V, gate_v("U")))
    assert normalize(Empty()).as_term() == Empty()


# ---------------------------------------------------------------------------
# the induction route agrees
# ---------------------------------------------------------------------------

def test_pbs_form_crosses_reflected_lines():
    nf = nf_by_rewriting(pbs4())
    assert nf == normalize(pbs4())
    by_src = {l.source: l.target for l in nf.lines}
    assert by_src == {(V, 0): (V, 0), (H, 0): (H, 1), (V, 1): (V, 1), (H, 1): (H, 0)}


def test_negation_form():
    nf = nf_by_rewriting(Gen("neg_t"))
    assert nf == normalize(neg_t())
    assert all(l.source[0] != l.target[0] for l in nf.lines)


def test_both_routes_agree_on_random_diagrams():
    for seed in range(120):
        d = random_diagram(seed, max_generators=8)
        assert nf_by_rewriting(d) == normalize(d), seed
    # a 3-wire perm, under a trace
    d = Trace(T, seq(par(split_vh(), gate_t("U")), perm((V, H, T), (2, 0, 1)),
                     par(ident(H), pbs_tv_vt())))
    assert nf_by_rewriting(d) == normalize(d)


def test_induction_route_agrees_at_scale():
    # no size cap: the route checks the table synthesis on any diagram
    pairs = par(*[seq(gate_t("U"), gate_t("V"))] * 1_600)
    nested = gate_t("U")
    for _ in range(4_000):  # each level feeds a splitter's second output back
        nested = Trace(T, seq(par(nested, ident(T)), pbs4()))
    for d in (seq(*[gate_t(l) for l in "ABCDEFGHI"]), pairs, nested):
        assert nf_by_rewriting(d) == normalize(d)


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------

def test_folded_equals_unfolded_switch():
    folded = Trace(T, seq(pbs4(), Par(gate_t("U"), gate_t("V")), pbs4()))
    unfolded = seq(split_vh(), Par(gate_v("U"), gate_h("V")), merge_vh())
    assert equivalent(folded, unfolded)


def test_word_order_matters():
    assert not equivalent(gate_t("UV"), gate_t("VU"))
    assert equivalent(gate_t("UV"), seq(gate_t("U"), gate_t("V")))


def test_negations_cancel():
    assert equivalent(seq(neg_vh(), neg_hv()), ident(V))
    assert normalize(seq(neg_vh(), neg_hv())) == normalize(ident(V))


def test_type_mismatch_is_reported():
    with pytest.raises(TypeMismatch):
        equivalent(ident(V), ident(H))
    with pytest.raises(TypeMismatch):
        equivalent(_quantum_switch(), split_vh())


def test_equivalence_is_an_equivalence_relation():
    ds = [random_diagram(seed, max_generators=5) for seed in range(8)]
    same_type = {}
    for d in ds:
        from cpbs.terms import type_of

        same_type.setdefault(type_of(d), []).append(d)
    for group in same_type.values():
        for d in group:
            assert equivalent(d, d)
        for d1 in group:
            for d2 in group:
                assert equivalent(d1, d2) == equivalent(d2, d1)


def test_normalize_is_idempotent():
    for seed in range(25):
        d = random_diagram(seed)
        nf = normalize(d)
        assert normalize(nf.as_term()) == nf


def test_rebracketing_preserves_equivalence():
    a = seq(seq(split_vh(), par(gate_v("U"), ident(H))), par(ident(V), gate_h("W")))
    b = seq(split_vh(), seq(par(gate_v("U"), ident(H)), par(ident(V), gate_h("W"))))
    assert equivalent(a, b)
