"""PGT forms, single-query optimality certificates, brute-force floor."""

import hashlib
import itertools
import os
import random
import subprocess
import sys
import textwrap
import time
from collections import Counter
from pathlib import Path

import pytest

import cpbs
import cpbs.gallery
import cpbs.pgt as pgt
from cpbs.cli import main
from cpbs.errors import NotFound, NotQueryOptimal, PreconditionViolated
from cpbs.hardness import build_C_w_sigma, corpus, orient_eulerian, parse_graph
from cpbs.netlist import to_netlist
from cpbs.normal_form import equivalent
from cpbs.pgt import (
    PgtForm,
    _gate_options,
    brute_force_min_pbs,
    is_query_pbs_optimal_single,
    to_pgt_form,
)
from cpbs.query_opt import optimize_queries, query_lower_bounds, query_profile
from cpbs.randgen import random_diagram
from cpbs.semantics import _ACTION, SemanticsTable, chase, semantics_table, tables_equal
from cpbs.stairs import pbs_lower_bound, synthesize_stair_form
from cpbs.terms import (
    GATE_KINDS,
    NEG_KINDS,
    PBS_KINDS,
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
from cpbs.textform import parse, print_term

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


# gate-free random_diagram(s, max_generators=10, max_wires=3) seeds whose PGT
# witness has at most 2 PBS and at least 3 negations (the first 48 such
# seeds; the certify benchmark's probe tables)
THREE_NEGATION_SEEDS = (
    10, 20, 33, 53, 56, 74, 237, 286, 300, 389, 408, 445, 471, 523, 562, 587,
    599, 611, 647, 758, 782, 793, 824, 847, 852, 857, 876, 881, 884, 891, 907, 910,
    912, 924, 930, 937, 974, 1086, 1096, 1129, 1135, 1154, 1157, 1194, 1219, 1243,
    1248, 1270,
)


# SHA-1 of the ordered verdicts of brute_force_min_pbs over _searches(), None
# for NotFound: 742 searches
VERDICTS_SHA1 = "5c981ea30e068f2c2b59c531c885caed4b374269"


def _counter_filtered_min_pbs(t: SemanticsTable, max_pbs: int, neg_budget: int) -> int:
    """Reference: every (PBS x negation x gate) multiset in turn, dropped
    unless its port colours balance, then handed to ``_realises``."""
    gate_sets = _gate_options(query_lower_bounds(t))
    neg_sets = [
        negs
        for nn in range(neg_budget + 1)
        for negs in itertools.combinations_with_replacement(map(Gen, sorted(NEG_KINDS)), nn)
    ]
    for n_pbs in range(max_pbs + 1):
        for pbs in itertools.combinations_with_replacement(map(Gen, sorted(PBS_KINDS)), n_pbs):
            for negs in neg_sets:
                for gates in gate_sets:
                    nodes = [*pbs, *negs, *gates]
                    src_count = Counter(t.in_type)
                    snk_count = Counter(t.out_type)
                    for node in nodes:
                        ins, outs = node.signature()
                        src_count.update(outs)
                        snk_count.update(ins)
                    if src_count != snk_count:
                        continue
                    if pgt._realises(t, nodes):
                        return n_pbs
    raise NotFound(f"no realisation within {max_pbs} PBS")


def _restarting_realises(t: SemanticsTable, nodes: list[Gen]) -> bool:
    """Reference wiring search: after each wire it lays, photon i is chased
    again from its boundary input, and a branch dies only when the photon
    exits on the wrong row or with the wrong word."""
    colour = {("bin", p): c for p, c in enumerate(t.in_type)}
    sinks = [("bout", q) for q in range(len(t.out_type))]
    colour.update(zip(sinks, t.out_type))
    ports = []
    for i, node in enumerate(nodes):
        ins, outs = node.signature()
        sinks += (own := [("nin", i, k) for k in range(len(ins))])
        ports.append(own + [("nout", i, k) for k in range(len(outs))])
        colour.update(zip(ports[i], ins + outs))
    wiring, wired = {}, set()
    first = [nodes.index(node) for node in nodes]
    starts = [(cfg, t.entries[cfg]) for cfg in configurations(t.in_type)]

    def advance(i):
        if i == len(starts):
            return True
        (pol, pos), (target, target_word) = starts[i]
        end, pol, word = chase(wiring, nodes, ("bin", pos), pol)
        if end[0] == "bout":
            return (pol, end[1]) == target and word == target_word and advance(i + 1)
        want, offered = colour[end], set()
        for snk in sinks:
            if snk in wired or colour[snk] != want:
                continue
            if snk[0] == "nin" and wired.isdisjoint(ports[snk[1]]):
                if first[snk[1]] in offered:
                    continue
                offered.add(first[snk[1]])
            wiring[end] = snk
            wired.update((end, snk))
            if advance(i):
                return True
            del wiring[end]
            wired.difference_update((end, snk))
        return False

    return advance(0)


def _searches() -> list[tuple[SemanticsTable, int, int]]:
    """(table, max_pbs, neg_budget) for the certify-style draws, the
    three-negation tables and the tables of acceptance criteria 6 and 7."""
    out = []
    rng = random.Random(0)
    for i in range(300):
        d = random_diagram(rng, max_generators=10, max_wires=3, letters=("U", "V"),
                           single_query=True, gate_free=i % 2 == 0)
        out.append((semantics_table(d), to_pgt_form(optimize_queries(d)).count_pbs(), 2))
    for s in THREE_NEGATION_SEEDS:
        d = random_diagram(s, max_generators=10, max_wires=3, gate_free=True)
        out.extend((semantics_table(d), to_pgt_form(d).count_pbs(), nb) for nb in range(4))
    rng = random.Random(6)
    for _ in range(200):
        t = semantics_table(random_diagram(rng, max_generators=8, gate_free=True))
        if len(list(configurations(t.in_type))) <= 6:
            sf = synthesize_stair_form(t)
            out.append((t, 4, max(2, sum(sf.pre_negs) + sum(sf.post_negs))))
    rng = random.Random(7)
    checked = 0
    while checked < 50:
        d = random_diagram(rng, max_generators=8, letters=("U", "V"), single_query=True)
        if not letters_of(d):
            continue
        opt = optimize_queries(d)
        profile = query_profile(opt)
        t = semantics_table(opt)
        if (any(k > 1 for k in profile.counts.values())
                or len(list(configurations(t.in_type))) > 6
                or sum(profile.lower_bounds.values()) > 2):
            continue
        form = to_pgt_form(opt)
        if form.count_pbs() > 4:
            continue
        out.append((t, 4, max(2, sum(form.core.pre_negs) + sum(form.core.post_negs))))
        checked += 1
    return out


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

    def test_count_and_table_certificates_survive_optimised_python(self):
        # a PGT form with a wasted split and merge or an unreachable query,
        # a stair form with a wasted split and merge, and a reduction diagram
        # without its negations must still raise when asserts are compiled away
        script = textwrap.dedent(
            """
            import cpbs.hardness as hardness
            import cpbs.pgt as pgt
            import cpbs.stairs as stairs
            from cpbs.gallery import quantum_switch
            from cpbs.semantics import semantics_table
            from cpbs.terms import Colour, Trace, gate_t, ident, merge_vh, par, seq, split_vh, swap

            T = Colour.T
            real_pgt, real_stair = pgt.PgtForm.as_term, stairs.StairForm.as_term
            g = hardness.corpus()["triangle"]

            def extra_pbs(form):  # the same table for two more PBS
                return seq(real_pgt(form), split_vh(), merge_vh())

            def extra_query(form):  # the same table for one more query, on a closed loop
                return par(real_pgt(form), Trace(T, gate_t("W")))

            def stair_extra_pbs(sf):
                return seq(real_stair(sf), par(seq(split_vh(), merge_vh()), ident(T)))

            def run(owner, name, value, call):
                real = getattr(owner, name)
                setattr(owner, name, value)
                try:
                    call()
                except AssertionError as e:
                    print("raised:", e)
                setattr(owner, name, real)

            run(pgt.PgtForm, "as_term", extra_pbs, lambda: pgt.to_pgt_form(quantum_switch()))
            run(pgt.PgtForm, "as_term", extra_query, lambda: pgt.to_pgt_form(quantum_switch()))
            run(stairs.StairForm, "as_term", stair_extra_pbs,
                lambda: stairs.synthesize_stair_form(semantics_table(swap(T, T))))
            run(hardness, "neg_t", lambda: ident(T),
                lambda: hardness.diagram_from_decomposition(g, hardness.max_ecd_bruteforce(g)))
            """
        )
        assert _run_optimised(script) == [
            "raised: PGT form uses more PBS than its input",
            "raised: PGT form changes the query counts",
            "raised: stair form misses the PBS lower bound",
            "raised: reduction diagram changes the reference table",
        ]

    def test_opt_pbs_handoff_is_certified_under_optimised_python(self, tmp_path):
        # opt-pbs hands the optimiser's netlist to the PGT step undrawn: a
        # netlist of another table must fail the PGT form's certificate, and
        # one with an extra query the optimiser's own check, not NotQueryOptimal
        paths = {}
        for name in ("quantum_switch", "three_query_circuit"):
            paths[name] = tmp_path / f"{name}.cpbs"
            paths[name].write_text(print_term(getattr(cpbs.gallery, name)()))
        script = textwrap.dedent(
            f"""
            import cpbs.cli as cli
            import cpbs.query_opt as query_opt
            from cpbs.netlist import to_netlist
            from cpbs.terms import gate_t, seq

            def run(path):
                try:
                    print("returned", cli.main(["opt-pbs", path]))
                except AssertionError as e:
                    print("raised:", e)

            real_core = query_opt._optimize_queries
            # the switch's queries, one U and one V, but U before V on both photons
            query_opt._optimize_queries = lambda d: (to_netlist(seq(gate_t("U"), gate_t("V"))),
                                                     *real_core(d)[1:])
            run({str(paths["quantum_switch"])!r})
            query_opt._optimize_queries = real_core

            real_nf = query_opt._synthesize_nf

            def with_traced_gate(t):
                # a gate_t[W] fed back onto itself: no photon reaches it
                nf, n = real_nf(t)
                k = max(n.nodes) + 1
                n.nodes[k] = gate_t("W")
                n.wires[("nin", k, 0)] = ("nout", k, 0)
                return nf, n

            query_opt._synthesize_nf = with_traced_gate
            run({str(paths["three_query_circuit"])!r})
            """
        )
        assert _run_optimised(script) == [
            "raised: PGT form changes the action table",
            "raised: optimised diagram misses a query lower bound",
        ]

    def test_unbounded_query_fails_the_certificate_under_optimised_python(self):
        # the output keeps its table but queries W, which has no bound
        script = textwrap.dedent(
            """
            import cpbs.query_opt as query_opt
            from cpbs.gallery import three_query_circuit
            from cpbs.terms import Colour, Trace, gate_t, par

            real = query_opt.to_term
            query_opt.to_term = lambda n: par(real(n), Trace(Colour.T, gate_t("W")))
            try:
                query_opt.optimize_queries(three_query_circuit())
            except AssertionError as e:
                print("raised:", e)
            """
        )
        assert _run_optimised(script) == ["raised: optimised diagram misses a query lower bound"]

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


GALLERY = (
    "quantum_switch", "three_query_circuit", "half_switch_traced", "half_switch_lean",
    "worked_example", "worked_example_query_optimal", "worked_example_pgt",
    "two_query_pbs_free", "one_query_two_pbs", "repeated_switch", "fused_double_gate",
)


def _reduction(graph_text: str):
    o = orient_eulerian(parse_graph(graph_text))
    return build_C_w_sigma(o.w, o.sigma)


def _gates_crossed(n, src, pol):
    """The gates a photon crosses from a source, each with the polarisation it enters with."""
    sink_at, gates = n.sink_of(), []
    while (snk := sink_at[src])[0] != "bout":
        _, nid, k = snk
        kind = n.nodes[nid].kind
        if kind in GATE_KINDS:
            gates.append((nid, pol))
            src = ("nout", nid, 0)
        else:
            pol, k = _ACTION[kind][(pol, k)]
            src = ("nout", nid, k)
    return gates


def _reference_cut_gates(n):
    """Reference: the gates to cut, read off one whole walk per input photon."""
    reach = {}
    for pol, pos in configurations(n.in_type):
        for nid, p in _gates_crossed(n, ("bin", pos), pol):
            if n.nodes[nid].word:
                reach.setdefault(nid, set()).add(p)
    return {nid: T if len(pols) == 2 else pols.pop() for nid, pols in reach.items()}


def _reference_residual_table(n, cut):
    """Reference: the residual table, chasing every photon again with the cut gates in stop."""
    slot = {nid: i for i, nid in enumerate(cut)}
    cs = tuple(cut.values())
    sink_at = n.sink_of()

    def exit_of(src, pol):
        end, pol, _ = chase(sink_at, n.nodes, src, pol, slot)
        return (pol, end[1] if end[0] == "bout" else len(n.out_type) + slot[end[1]]), ()

    entries = {(pol, pos): exit_of(("bin", pos), pol) for pol, pos in configurations(n.in_type)}
    for i, (nid, c) in enumerate(cut.items()):
        for pol in (V, H) if c == T else (c,):
            entries[(pol, len(n.in_type) + i)] = exit_of(("nout", nid, 0), pol)
    return SemanticsTable(n.in_type + cs, n.out_type + cs, entries)


def test_one_chase_per_photon_segment_cuts_as_two_passes_did():
    diagrams = [getattr(cpbs.gallery, name)() for name in GALLERY]
    diagrams += [optimize_queries(random_diagram(seed)) for seed in range(400)]
    rng = random.Random(3)
    diagrams += [random_diagram(rng, max_generators=10, max_wires=3, single_query=True)
                 for _ in range(100)]
    rng = random.Random(4)
    walks = [[rng.randrange(k // 3) for _ in range(k)] for k in (24, 64, 128)]
    texts = ["".join(f"v{i} v{(i + 1) % k}\n" for i in range(k)) for k in (8, 16, 32, 64, 128)]
    texts += ["".join(f"u{w[i - 1]} u{w[i]}\n" for i in range(len(w))) for w in walks]
    diagrams += [_reduction(text) for text in texts]
    diagrams += [build_C_w_sigma(o.w, o.sigma) for o in map(orient_eulerian, corpus().values())]
    gates_cut = 0
    for d in diagrams:
        n = to_netlist(d)
        cut, residual = pgt._cut(n)
        expected = _reference_cut_gates(n)
        assert list(cut.items()) == list(expected.items()), d
        reference = _reference_residual_table(n, expected)
        assert tables_equal(residual, reference) and list(residual.entries) == list(reference.entries)
        gates_cut += len(cut)
    assert gates_cut > 500


def test_pgt_step_chases_each_photon_segment_once(monkeypatch):
    # the switch's two photons each cross both gates: three segments apiece
    chased = []
    monkeypatch.setattr(pgt, "chase", lambda *a: chased.append(a[2:4]) or chase(*a))
    n = to_netlist(cpbs.gallery.quantum_switch())
    pgt._to_pgt_form(n, semantics_table(n))
    assert len(chased) == len(set(chased)) == 6


def test_opt_pbs_prints_the_public_composition(tmp_path, capsys):
    # the command runs on the optimiser's netlist; the public functions draw
    # the optimised term and elaborate it again, and must print the same
    cycle = "".join(f"v{i} v{(i + 1) % 16}\n" for i in range(16))
    walk = "a b\nb c\nc a\na d\nd c\nc b\nb d\nd a\n"
    diagrams = [getattr(cpbs.gallery, name)() for name in GALLERY]
    diagrams += [random_diagram(seed) for seed in range(100)]
    diagrams += [_reduction(text) for text in (cycle, walk, "A B\nB C\nC A")]
    path = tmp_path / "d.cpbs"
    for d in diagrams:
        path.write_text(print_term(d))
        assert main(["opt-pbs", str(path)]) == 0
        expected = print_term(to_pgt_form(optimize_queries(d)).as_term())
        assert capsys.readouterr().out == expected + "\n"


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

    def test_negative_negation_budget_is_rejected(self):
        # the identity needs no PBS; an empty negation range must not
        # read as "no realisation"
        with pytest.raises(PreconditionViolated):
            brute_force_min_pbs(semantics_table(ident(T)), 2, neg_budget=-1)

    def test_negative_pbs_budget_is_rejected(self):
        with pytest.raises(PreconditionViolated):
            brute_force_min_pbs(semantics_table(ident(T)), -1)

    def test_balance_buckets_hand_over_every_balanced_candidate(self, monkeypatch):
        # the same verdicts and the same _realises calls as the loop that
        # checked each candidate's colour balance with two Counters
        calls = 0
        real = pgt._realises

        def counting(t, nodes):
            nonlocal calls
            calls += 1
            return real(t, nodes)

        def counted(search, t, max_pbs, neg_budget):
            nonlocal calls
            calls = 0
            try:
                verdict = search(t, max_pbs, neg_budget)
            except NotFound:
                verdict = None
            return verdict, calls

        monkeypatch.setattr(pgt, "_realises", counting)
        verdicts = []
        for k, search in enumerate(_searches()):
            got = counted(brute_force_min_pbs, *search)
            assert got == counted(_counter_filtered_min_pbs, *search), (k, search)
            verdicts.append(got[0])
        # found and failed searches are both compared
        assert None in verdicts and len(set(verdicts)) > 2
        # the reference calls the same _realises, so a change in the wiring
        # search shows only against these pinned verdicts, in order
        assert hashlib.sha1(repr(verdicts).encode()).hexdigest() == VERDICTS_SHA1

    def test_resumed_search_keeps_every_wiring_verdict(self, monkeypatch):
        # VERDICTS_SHA1 pins only each search's first True; here every
        # balanced candidate of a search gets the restarting search's verdict
        real = pgt._realises
        answers = Counter()

        def both(t, nodes):
            got = real(t, nodes)
            assert got == _restarting_realises(t, nodes), (t, nodes)
            answers[got] += 1
            return False  # so the reference loop hands over every candidate

        monkeypatch.setattr(pgt, "_realises", both)
        for search in _searches()[:100]:
            with pytest.raises(NotFound):
                _counter_filtered_min_pbs(*search)
        assert answers[True] and answers[False]

    def test_table_rows_must_be_its_input_configurations(self):
        no_rows = SemanticsTable((T,), (T,), {})
        one_row = SemanticsTable((T,), (T,), {(V, 0): ((V, 0), ())})
        # (H, 0) is no configuration of a V wire
        extra_row = SemanticsTable((V,), (V,), {(V, 0): ((V, 0), ()), (H, 0): ((H, 0), ())})
        for t in (no_rows, one_row, extra_row):
            with pytest.raises(PreconditionViolated, match="table rows"):
                brute_force_min_pbs(t, 2)
        # complete but not a bijection: no diagram has it
        merged = SemanticsTable((T,), (T,), {(V, 0): ((V, 0), ()), (H, 0): ((V, 0), ())})
        with pytest.raises(NotFound):
            brute_force_min_pbs(merged, 2)

    def test_not_found_inside_the_caps_within_seconds(self):
        # 6 configurations and 2 queries: every candidate up to 3 PBS fails
        t = semantics_table(random_diagram(19, max_generators=10, max_wires=3, single_query=True))
        assert len(list(configurations(t.in_type))) == 6
        assert sum(query_lower_bounds(t).values()) == 2
        start = time.perf_counter()
        with pytest.raises(NotFound):
            brute_force_min_pbs(t, 3)
        assert time.perf_counter() - start < 3.0

    def test_gate_options_cover_fused_and_separate_words(self):
        opts = _gate_options({"U": 2})
        assert (Gen("gate_t", ("U", "U")),) in opts
        assert (Gen("gate_t", ("U",)), Gen("gate_t", ("U",))) in opts
        opts = _gate_options({"U": 1, "V": 1})
        words = {tuple(g.word for g in o) for o in opts}
        assert (("U", "V"),) in words or (("U",), ("V",)) in words

    def test_matches_stair_bound_on_random_gate_free_tables(self):
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
