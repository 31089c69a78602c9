"""Query counting, lower bounds, and the optimisation procedure."""

from __future__ import annotations

import inspect

import pytest

from cpbs import gallery
from cpbs.netlist import to_netlist, to_term
from cpbs.normal_form import normalize
from cpbs.query_opt import (
    QueryProfile,
    is_query_optimal,
    optimize_queries,
    optimize_queries_traced,
    query_lower_bounds,
    query_profile,
)
from cpbs.randgen import random_diagram
from cpbs.rewrite import ProofStep, apply, find_matches
from cpbs.rules import RULES
from cpbs.semantics import SemanticsTable, semantics_table, tables_equal
from cpbs.terms import (
    Colour,
    Empty,
    Par,
    Trace,
    count_queries,
    gate_h,
    gate_t,
    gate_v,
    generators,
    ident,
    merge_vh,
    neg_t,
    par,
    pbs4,
    seq,
    split_vh,
    swap,
    Term,
    term_size,
)
from cpbs.textform import parse, print_term

T, V, H = Colour.T, Colour.V, Colour.H


def _switch():
    return Trace(T, seq(pbs4(), Par(gate_t("U"), gate_t("V")), swap(T, T), pbs4()))


def _three_query_circuit():
    def controlled(w):
        return seq(split_vh(), Par(ident(V), gate_h(w)), merge_vh())

    return seq(controlled("U"), neg_t(), controlled("V"), neg_t(), controlled("U"))


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_switch_needs_one_query_per_oracle():
    bounds = query_lower_bounds(semantics_table(_switch()))
    assert bounds == {"U": 1, "V": 1}


def test_gate_free_table_has_no_bounds():
    assert query_lower_bounds(semantics_table(ident(T))) == {}


def test_three_occurrences_round_up():
    t = SemanticsTable(
        (T, V),
        (T, V),
        {
            (V, 0): ((V, 0), ("U",)),
            (H, 0): ((H, 0), ("U",)),
            (V, 1): ((V, 1), ("U",)),
        },
    )
    assert query_lower_bounds(t) == {"U": 2}


def test_profile_tsv():
    p = query_profile(_three_query_circuit())
    assert p.counts == {"U": 2, "V": 1}
    assert p.lower_bounds == {"U": 1, "V": 1}
    assert p.as_tsv() == "U\t2\t1\nV\t1\t1"


def test_profile_rejects_impossible_counts():
    with pytest.raises(AssertionError):
        QueryProfile({"U": 0}, {"U": 1})


# ---------------------------------------------------------------------------
# optimality certificate
# ---------------------------------------------------------------------------

def test_switch_is_optimal_circuit_is_not():
    assert is_query_optimal(_switch())
    assert not is_query_optimal(_three_query_circuit())


def test_empty_is_optimal():
    assert is_query_optimal(Empty())


# ---------------------------------------------------------------------------
# the procedure
# ---------------------------------------------------------------------------

def test_circuit_optimises_to_switch_counts():
    out = optimize_queries(_three_query_circuit())
    assert count_queries(out, "U") == 1
    assert count_queries(out, "V") == 1
    assert tables_equal(semantics_table(out), semantics_table(_three_query_circuit()))


def test_parallel_equal_gates_fuse_into_one_black_gate():
    d = par(gate_v("U"), gate_v("U"))
    out = optimize_queries(d)
    assert count_queries(out, "U") == 1
    kinds = [g.kind for g in generators(out)]
    assert "gate_t" in kinds
    assert tables_equal(semantics_table(out), semantics_table(d))


def test_already_optimal_diagram_keeps_its_counts():
    d = gate_t("U")
    out = optimize_queries(d)
    assert count_queries(out, "U") == 1
    assert is_query_optimal(out)


def test_trace_head_is_deformation_then_real_steps():
    _, steps = optimize_queries_traced(_three_query_circuit())
    assert steps[0].rule.startswith("STRUCT")
    assert all(s.rule.startswith("DER") for s in steps[1:])
    assert all(s.direction == "L2R" for s in steps[1:])


def test_random_diagrams_reach_their_bounds():
    for seed in range(80):
        d = random_diagram(seed, max_generators=10)
        out, steps = optimize_queries_traced(d)
        bounds = query_lower_bounds(semantics_table(d))
        for u, k in bounds.items():
            assert count_queries(out, u) == k, (seed, u)
        assert is_query_optimal(out), seed
        assert len(steps) <= 10 * max(1, term_size(d)) ** 2


def test_remaining_coloured_gates_are_single_letter_and_distinct():
    for seed in [3, 11, 19, 42]:
        out = optimize_queries(random_diagram(seed, max_generators=10))
        coloured = [g.word for g in generators(out) if g.kind in ("gate_v", "gate_h")]
        assert all(len(w) == 1 for w in coloured)
        assert len(coloured) == len(set(coloured))


def _fused_by_regrouping(d: Term) -> tuple[str, list[ProofStep]]:
    """The split and fusion loops as they ran before the fusion plan: every
    split rule is retried after each split, and the coloured gates are
    grouped by word again after each fusion."""
    n = to_netlist(normalize(d).as_term())
    steps = [ProofStep("STRUCT_YANKING", "L2R", find_matches(n, "STRUCT_YANKING")[0].site_hash)]

    def take(rule_id, inst):
        nonlocal n
        n = apply(n, inst)
        steps.append(ProofStep(rule_id, inst.direction, inst.site_hash))

    progress = True
    while progress:
        progress = False
        for rule_id in ["DER18", "DER19", "DER20"]:
            matches = find_matches(n, rule_id, "L2R")
            if matches:
                take(rule_id, matches[0])
                progress = True
                break

    merge_rule = {
        ("gate_v", "gate_h"): "DER21",
        ("gate_h", "gate_v"): "DER22",
        ("gate_v", "gate_v"): "DER23",
        ("gate_h", "gate_h"): "DER24",
    }
    while True:
        by_label: dict = {}
        for word, i in sorted((g.word, i) for i, g in n.nodes.items() if g.kind in ("gate_v", "gate_h")):
            by_label.setdefault(word, []).append(i)
        pair = next((ids[:2] for _, ids in sorted(by_label.items()) if len(ids) >= 2), None)
        if pair is None:
            break
        n1, n2 = pair
        rule_id = merge_rule[(n.nodes[n1].kind, n.nodes[n2].kind)]
        matches = [m for m in find_matches(n, rule_id, "L2R") if set(m.node_map.values()) == {n1, n2}]
        take(rule_id, matches[0])
    return print_term(to_term(n)), steps


def test_no_fusion_rule_adds_a_coloured_gate():
    # the fusion plan rests on this: fusing a pair leaves every other pair as it was
    for rule_id in ["DER21", "DER22", "DER23", "DER24"]:
        kinds = {g.kind for g in to_netlist(RULES[rule_id].rhs).nodes.values()}
        assert not kinds & {"gate_v", "gate_h"}, rule_id


def test_fusion_plan_takes_the_steps_of_regrouping_after_each_fusion():
    named = [f() for _, f in inspect.getmembers(gallery, inspect.isfunction)
             if f.__module__ == gallery.__name__ and not inspect.signature(f).parameters]
    wide = [
        parse(f"split ; gate[{'.'.join('U' * k)},V] | gate[{'.'.join('UV' * k)},H] ; merge")
        for k in (3, 8, 20)
    ]
    drawn = [random_diagram(s, max_generators=24, max_wires=5) for s in range(300)]
    optimised = 0
    for k, d in enumerate(drawn + named + wide):
        out, steps = optimize_queries_traced(d)
        if not steps:
            continue  # already at its bounds: neither loop runs
        optimised += 1
        assert (print_term(out), steps) == _fused_by_regrouping(d), f"term {k}"
    assert optimised >= 200, optimised
