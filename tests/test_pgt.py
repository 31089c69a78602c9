"""PGT forms, single-query optimality certificates, brute-force floor."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import cpbs
from cpbs.errors import NotFound, NotQueryOptimal, PreconditionViolated
from cpbs.normal_form import equivalent
from cpbs.pgt import (
    PgtForm,
    _gate_options,
    brute_force_min_pbs,
    is_query_pbs_optimal_single,
    to_pgt_form,
)
from cpbs.query_opt import optimize_queries, query_lower_bounds
from cpbs.randgen import random_diagram
from cpbs.semantics import SemanticsTable, semantics_table, tables_equal
from cpbs.terms import (
    Colour,
    Gen,
    Trace,
    configurations,
    count_pbs,
    count_queries,
    gate_h,
    gate_t,
    gate_v,
    ident,
    letters_of,
    merge_hv,
    neg_t,
    merge_vh,
    par,
    pbs4,
    seq,
    split_hv,
    split_vh,
    swap,
)
from cpbs.textform import parse

T, V, H = Colour.T, Colour.V, Colour.H


def switch():
    return Trace(T, seq(pbs4(), par(gate_t("U"), gate_t("V")), swap(T, T), pbs4()))


def uu_switch():
    return Trace(T, seq(pbs4(), par(gate_t("U"), gate_t("U")), swap(T, T), pbs4()))


# query-optimal diagrams whose PGT form costs a PBS too many unless a cut
# gate takes the colour of the photons reaching it (the first two: black
# gates only H photons reach) and an empty-word gate stays a plain wire
CUT_GATE_CASES = [
    "tr[T](swap[H,H] | id[T] ; id[H] | id[H] | gate[U] ; id[H] | id[H] | neg"
    " ; id[H] | pbs[HT.HT] ; id[H] | id[H] | neg)",
    "tr[H](pbs[TH.TH] ; gate[U] | id[H] ; swap[T,H] ; id[H] | gate[V] ; id[H] | split)",
    "swap[H,T] ; split | id[H] ; merge | id[H] ; split | id[H] ; id[V] | id[H] | gate[W,H]"
    " ; gate[,V] | id[H] | id[H] ; merge | id[H]",
]


def one_query_both_colours():
    # single black gate behind a merge/split sandwich; each polarisation
    # of the (H, V) boundary queries U exactly once
    return seq(merge_hv(), gate_t("U"), split_hv())


def _run_optimised(script: str) -> list[str]:
    """The lines a script prints when run under ``python -O``."""
    src = str(Path(cpbs.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout.splitlines()


class TestToPgtForm:
    def test_switch_keeps_its_gates_and_count(self):
        form = to_pgt_form(switch())
        assert [(g.kind, g.word) for g in form.gates] == [
            ("gate_t", ("U",)), ("gate_t", ("V",))]
        assert form.count_pbs() == 2
        assert equivalent(form.as_term(), switch())

    def test_gate_order_follows_first_use_from_line_zero(self):
        # the V photon meets U first, so U takes the first trace slot
        form = to_pgt_form(switch())
        assert form.gates[0].word == ("U",)

    def test_requires_query_optimal_input(self):
        def controlled(w):
            return seq(split_vh(), par(ident(V), gate_h(w)), merge_vh())

        three = seq(controlled("U"), neg_t(), controlled("V"), neg_t(), controlled("U"))
        with pytest.raises(NotQueryOptimal):
            to_pgt_form(three)

    def test_gate_free_diagram_reduces_to_its_stair_form(self):
        form = to_pgt_form(seq(split_vh(), merge_vh()))
        assert form.gates == ()
        assert form.count_pbs() == 0

    def test_count_never_increases_on_random_pipelines(self):
        for seed in range(80):
            opt = optimize_queries(random_diagram(seed))
            form = to_pgt_form(opt)
            assert form.count_pbs() <= count_pbs(opt)
            assert equivalent(form.as_term(), opt)
            for u in letters_of(opt):
                assert count_queries(form.as_term(), u) == count_queries(opt, u)

    def test_stable_once_in_pgt_form(self):
        form = to_pgt_form(switch())
        again = to_pgt_form(form.as_term())
        assert again.count_pbs() == form.count_pbs()

    def test_postconditions_survive_optimised_python(self):
        # a wrong stair core or a wrong optimiser output must still raise
        # when asserts are compiled away
        script = textwrap.dedent(
            """
            import cpbs.pgt as pgt
            import cpbs.query_opt as query_opt
            from cpbs.gallery import quantum_switch, three_query_circuit
            from cpbs.semantics import SemanticsTable
            from cpbs.terms import configurations, gate_t, seq

            real = pgt.synthesize_stair_form
            pgt.synthesize_stair_form = lambda t: real(SemanticsTable(
                t.in_type, t.out_type, {c: (c, ()) for c in configurations(t.in_type)}))
            query_opt.to_term = lambda n: seq(gate_t("U"), gate_t("V"))
            for run in (lambda: pgt.to_pgt_form(quantum_switch()),
                        lambda: query_opt.optimize_queries(three_query_circuit())):
                try:
                    run()
                except AssertionError as e:
                    print("raised:", e)
            """
        )
        assert _run_optimised(script) == [
            "raised: PGT form changes the action table",
            "raised: optimised diagram is not equivalent to its input",
        ]

    def test_synthesis_postconditions_survive_optimised_python(self):
        # a normal form without its gates, a stair form without its
        # permutations and a reduction diagram without its routers must
        # still raise when asserts are compiled away
        script = textwrap.dedent(
            """
            import cpbs.hardness as hardness
            import cpbs.normal_form as normal_form
            import cpbs.stairs as stairs
            from cpbs.gallery import quantum_switch
            from cpbs.semantics import semantics_table
            from cpbs.terms import Colour, identity_of, swap

            normal_form.NormalForm.G = property(
                lambda nf: identity_of(tuple(l.source[0] for l in nf.lines)))
            stairs.permute = lambda colours, slots: []
            hardness._router = lambda sigma: identity_of((Colour.T,) * len(sigma))
            g = hardness.corpus()["triangle"]
            for run in (lambda: normal_form.normalize(quantum_switch()),
                        lambda: stairs.synthesize_stair_form(
                            semantics_table(swap(Colour.T, Colour.T))),
                        lambda: hardness.diagram_from_decomposition(
                            g, hardness.max_ecd_bruteforce(g))):
                try:
                    run()
                except AssertionError as e:
                    print("raised:", e)
            """
        )
        assert _run_optimised(script) == [
            "raised: normal form changes the action table",
            "raised: stair form changes the action table",
            "raised: reduction diagram misses 2(|edges| - r) PBS",
        ]


class TestSingleQueryCertificate:
    def test_identity_is_optimal(self):
        assert is_query_pbs_optimal_single(ident(T)) is True

    def test_switch_is_optimal(self):
        assert is_query_pbs_optimal_single(switch()) is True

    def test_merge_gate_split_is_optimal_despite_two_pbs(self):
        # no equivalent diagram queries U once with fewer than 2 PBS
        assert is_query_pbs_optimal_single(one_query_both_colours()) is True

    def test_wasteful_split_merge_is_not_optimal(self):
        assert is_query_pbs_optimal_single(seq(split_vh(), merge_vh())) is False

    def test_double_query_is_rejected(self):
        with pytest.raises(PreconditionViolated):
            is_query_pbs_optimal_single(uu_switch())

    def test_non_query_optimal_is_false_without_pgt(self):
        two_gates = seq(gate_t("U"), gate_t("U"))
        # structurally 2 queries of U; letters counted per occurrence
        with pytest.raises(PreconditionViolated):
            is_query_pbs_optimal_single(two_gates)
        dead_query = Trace(V, gate_v("U"))
        # the loop never reaches the boundary, so the query is wasted
        assert is_query_pbs_optimal_single(dead_query) is False


class TestBruteForce:
    def test_identity_costs_nothing(self):
        assert brute_force_min_pbs(semantics_table(ident(T)), 4) == 0

    def test_split_costs_one(self):
        assert brute_force_min_pbs(semantics_table(split_vh()), 4) == 1

    def test_one_query_on_both_polarisations_costs_two(self):
        t = semantics_table(one_query_both_colours())
        assert query_lower_bounds(t) == {"U": 1}
        assert brute_force_min_pbs(t, 4) == 2

    def test_double_word_gate_beats_the_pgt_count(self):
        # the two-query switch shape carries 2 PBS, yet its table is
        # realised with none by a single two-letter black gate
        top = uu_switch()
        assert count_pbs(top) == 2
        t = semantics_table(top)
        assert brute_force_min_pbs(t, 4) == 0
        assert tables_equal(t, semantics_table(gate_t(("U", "U"))))

    def test_not_found_when_budget_too_small(self):
        three_wire = semantics_table(par(split_vh(), ident(T)))
        assert brute_force_min_pbs(three_wire, 4) == 1
        with pytest.raises(NotFound):
            brute_force_min_pbs(three_wire, 0)

    def test_preconditions(self):
        wide = semantics_table(par(ident(T), ident(T), ident(T), ident(T)))
        with pytest.raises(PreconditionViolated):
            brute_force_min_pbs(wide, 2)
        with pytest.raises(PreconditionViolated):
            brute_force_min_pbs(semantics_table(ident(T)), 5)
        wordy = semantics_table(seq(gate_t("UV"), gate_t("W")))
        with pytest.raises(PreconditionViolated):
            brute_force_min_pbs(wordy, 2)

    def test_gate_options_cover_fused_and_separate_words(self):
        opts = _gate_options({"U": 2})
        assert (Gen("gate_t", ("U", "U")),) in opts
        assert (Gen("gate_t", ("U",)), Gen("gate_t", ("U",))) in opts
        opts = _gate_options({"U": 1, "V": 1})
        words = {tuple(g.word for g in o) for o in opts}
        assert (("U", "V"),) in words or (("U",), ("V",)) in words

    def test_matches_stair_bound_on_random_gate_free_tables(self):
        from cpbs.stairs import pbs_lower_bound, synthesize_stair_form

        checked = 0
        seed = 0
        while checked < 40:
            d = random_diagram(seed, gate_free=True)
            seed += 1
            t = semantics_table(d)
            if not (0 < len(list(configurations(t.in_type))) <= 6):
                continue
            checked += 1
            sf = synthesize_stair_form(t)
            budget = max(2, sum(sf.pre_negs) + sum(sf.post_negs))
            assert brute_force_min_pbs(t, 4, neg_budget=budget) == pbs_lower_bound(t)

    def test_matches_pipeline_on_single_query_diagrams(self):
        for d in map(parse, CUT_GATE_CASES):
            t = semantics_table(d)
            assert to_pgt_form(d).count_pbs() == brute_force_min_pbs(t, 4) < count_pbs(d)
            assert is_query_pbs_optimal_single(d) is False
        checked = 0
        seed = 0
        while checked < 12:
            opt = optimize_queries(random_diagram(seed))
            seed += 1
            if not letters_of(opt):
                continue
            if any(count_queries(opt, u) > 1 for u in letters_of(opt)):
                continue
            t = semantics_table(opt)
            if len(list(configurations(t.in_type))) > 6:
                continue
            if sum(query_lower_bounds(t).values()) > 2:
                continue
            form = to_pgt_form(opt)
            if form.count_pbs() > 4:
                continue
            checked += 1
            negs = sum(form.core.pre_negs) + sum(form.core.post_negs)
            assert brute_force_min_pbs(t, 4, neg_budget=max(2, negs)) == form.count_pbs()
