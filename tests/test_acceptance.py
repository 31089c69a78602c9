"""End-to-end acceptance suite.

One test per headline guarantee of the package.  Each test prints a
single ``criterion N: PASS/FAIL`` line; run with ``-s`` to see the lines
for passing tests too (pytest shows captured output only on failure).

Criterion 9 is expected to fail: the cycle-decomposition construction
preserves the routing table exactly, which costs twice the
edges-minus-cycles PBS count that would suffice if outputs were allowed
to land on permuted positions.  The test states the target faithfully
and reports the measured counts.
"""

import io
import itertools
import random
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from cpbs.cli import main
from cpbs.errors import NotFound, TypeMismatch
from cpbs.gallery import (
    fused_double_gate,
    quantum_switch,
    repeated_switch,
    three_query_circuit,
    worked_example,
)
from cpbs.hardness import (
    build_C_w_sigma,
    corpus,
    diagram_from_decomposition,
    max_ecd_bruteforce,
    orient_eulerian,
)
from cpbs.netlist import netlists_isomorphic, to_netlist
from cpbs.normal_form import equivalent, nf_by_rewriting, normalize, synthesize_nf
from cpbs.pgt import brute_force_min_pbs, to_pgt_form
from cpbs.quantum import GateAssignment, isometry_defect, quantum_matrix
from cpbs.query_opt import is_query_optimal, optimize_queries, query_lower_bounds, query_profile
from cpbs.randgen import random_diagram
from cpbs.rewrite import check_soundness, replay_derivation
from cpbs.rules import ALL_RULE_IDS
from cpbs.semantics import semantics_table, tables_equal
from cpbs.stairs import pbs_lower_bound, synthesize_stair_form
from cpbs.terms import configurations, count_pbs, count_queries, letters_of, type_of
from cpbs.textform import parse, print_term


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


def _run_cli(*argv: str) -> tuple[int, bytes]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue().encode()


def test_criterion_1_rule_soundness():
    t0 = time.perf_counter()
    unsound = [rid for rid in ALL_RULE_IDS if not check_soundness(rid)]
    dt = time.perf_counter() - t0
    ok = not unsound and dt < 5.0
    _report(1, ok, f"{len(ALL_RULE_IDS)} rules, one table comparison each, in {dt:.2f}s")
    assert not unsound, unsound
    assert dt < 5.0


def test_criterion_2_derivation_replay():
    targets = [rid for rid in ALL_RULE_IDS if rid.startswith(("DER", "APPE"))]
    assert len(targets) == 21
    failures = []
    for rid in targets:
        try:
            steps = replay_derivation(rid)
            if not steps:
                failures.append((rid, "empty chain"))
        except Exception as e:  # noqa: BLE001 - report every failure mode
            failures.append((rid, repr(e)))
    ok = not failures
    _report(2, ok, f"{len(targets)} derived rules replayed")
    assert not failures, failures


def test_criterion_3_normal_form():
    t0 = time.perf_counter()
    rng = random.Random(31)
    for _ in range(300):
        d = random_diagram(rng, max_generators=8, letters=("U", "V", "W"))
        nf = normalize(d)
        assert nf_by_rewriting(d) == nf
        assert nf == synthesize_nf(semantics_table(to_netlist(d)))
        assert normalize(nf.as_term()) == nf

    pool = [random_diagram(random.Random(1000 + i), max_generators=6) for i in range(50)]
    tables = [semantics_table(to_netlist(d)) for d in pool]
    for i, j in itertools.combinations(range(50), 2):
        if type_of(pool[i]) == type_of(pool[j]):
            assert equivalent(pool[i], pool[j]) == tables_equal(tables[i], tables[j])
        else:
            assert not tables_equal(tables[i], tables[j])
            with pytest.raises(TypeMismatch):
                equivalent(pool[i], pool[j])
    dt = time.perf_counter() - t0
    ok = dt < 60.0
    _report(3, ok, f"300 dual-route diagrams + 50-diagram pool in {dt:.1f}s")
    assert dt < 60.0


def _random_unitary(rng: random.Random, dim: int) -> np.ndarray:
    z = np.array(
        [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim)] for _ in range(dim)]
    )
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_criterion_4_isometry():
    rng = random.Random(4)
    worst = 0.0
    for _ in range(200):
        d = random_diagram(rng, max_generators=8)
        dim = rng.choice([1, 2, 3])
        g = GateAssignment(dim, {u: _random_unitary(rng, dim) for u in ("U", "V", "W")})
        worst = max(worst, isometry_defect(quantum_matrix(semantics_table(to_netlist(d)), g)))
    ok = worst <= 1e-8
    _report(4, ok, f"200 diagrams, worst defect {worst:.2e}")
    assert worst <= 1e-8


def test_criterion_5_query_optimisation():
    rng = random.Random(5)
    for _ in range(300):
        d = random_diagram(rng, max_generators=8)
        out = optimize_queries(d)
        bounds = query_lower_bounds(semantics_table(to_netlist(d)))
        for u in letters_of(d) | set(bounds):
            assert count_queries(out, u) == bounds.get(u, 0), u

    switch = query_profile(quantum_switch())
    circuit = query_profile(three_query_circuit())
    separation = (
        switch.lower_bounds == {"U": 1, "V": 1}
        and tables_equal(
            semantics_table(to_netlist(quantum_switch())),
            semantics_table(to_netlist(three_query_circuit())),
        )
        and sum(switch.counts.values()) == 2
        and sum(circuit.counts.values()) == 3
        and is_query_optimal(quantum_switch())
        and not is_query_optimal(three_query_circuit())
    )
    ok = separation
    _report(5, ok, "300 diagrams hit their bounds; switch 2 vs circuit 3 queries")
    assert separation


def test_criterion_6_stair_pbs_optimality():
    t0 = time.perf_counter()
    rng = random.Random(6)
    checked = 0
    for _ in range(200):
        d = random_diagram(rng, max_generators=8, gate_free=True)
        t = semantics_table(to_netlist(d))
        if len(list(configurations(t.in_type))) > 6:
            continue
        sf = synthesize_stair_form(t)
        bound = pbs_lower_bound(t)
        assert sf.count_pbs() == bound
        budget = max(2, sum(sf.pre_negs) + sum(sf.post_negs))
        if bound <= 4:
            assert brute_force_min_pbs(t, 4, neg_budget=budget) == bound
        else:
            with pytest.raises(NotFound):
                brute_force_min_pbs(t, 4, neg_budget=budget)
        checked += 1
    dt = time.perf_counter() - t0
    ok = checked > 0 and dt < 600.0
    _report(6, ok, f"{checked} gate-free tables, stair = bound = brute, in {dt:.1f}s")
    assert checked > 0
    assert dt < 600.0


def test_criterion_7_single_query_pipeline():
    rng = random.Random(7)
    checked = 0
    while checked < 50:
        d = random_diagram(rng, max_generators=8, letters=("U", "V"), single_query=True)
        if not letters_of(d):
            continue
        opt = optimize_queries(d)
        profile = query_profile(opt)
        if any(k > 1 for k in profile.counts.values()):
            continue
        t = semantics_table(to_netlist(opt))
        if len(list(configurations(t.in_type))) > 6:
            continue
        if sum(profile.lower_bounds.values()) > 2:
            continue
        form = to_pgt_form(opt)
        if form.count_pbs() > 4:
            continue
        budget = max(2, sum(form.core.pre_negs) + sum(form.core.post_negs))
        assert brute_force_min_pbs(t, 4, neg_budget=budget) == form.count_pbs()
        checked += 1
    ok = checked == 50
    _report(7, ok, "50 single-query pipelines match the brute-force minimum")
    assert checked == 50


def test_criterion_8_repeated_oracle_witness():
    top = repeated_switch()
    pipeline = optimize_queries(top)
    bottom = fused_double_gate()
    t = semantics_table(to_netlist(top))
    found = brute_force_min_pbs(t, 4, neg_budget=2)
    witness = (
        count_pbs(pipeline) == 2
        and is_query_optimal(pipeline)
        and equivalent(top, bottom)
        and count_pbs(bottom) == 0
        and is_query_optimal(bottom)
        and found == 0
    )
    _report(8, witness, "pipeline keeps 2 PBS, brute force finds the 0-PBS equivalent")
    assert witness


def test_criterion_9_hardness_correspondence():
    t0 = time.perf_counter()
    count_misses = []
    for name, g in corpus().items():
        dec = max_ecd_bruteforce(g)
        d = diagram_from_decomposition(g, dec)
        ref = orient_eulerian(g, seed=0)
        t = semantics_table(to_netlist(d))
        assert tables_equal(t, semantics_table(to_netlist(build_C_w_sigma(ref.w, ref.sigma)))), name
        eligible = (
            len(list(configurations(t.in_type))) <= 6
            and sum(query_lower_bounds(t).values()) <= 2
        )
        if eligible:
            assert brute_force_min_pbs(t, 4, neg_budget=2) == count_pbs(d), name
        if count_pbs(d) != g.n - dec.r:
            count_misses.append((name, count_pbs(d), g.n - dec.r))
    dt = time.perf_counter() - t0
    assert dt < 600.0
    ok = not count_misses
    _report(
        9,
        ok,
        f"12 graphs: tables match, no smaller brute-force witness, in {dt:.1f}s"
        + (f"; PBS count exceeds edges-minus-cycles on {len(count_misses)} graphs" if count_misses else ""),
    )
    assert not count_misses, (
        "the table-preserving construction uses 2*(edges - cycles) PBS, so the "
        f"edges-minus-cycles target is missed on: {count_misses}"
    )


def test_criterion_10_cli_round_trip(tmp_path):
    diagrams = [
        quantum_switch(),
        three_query_circuit(),
        worked_example(),
        repeated_switch(),
        fused_double_gate(),
    ]
    rng = random.Random(10)
    diagrams += [random_diagram(rng, max_generators=8) for _ in range(200)]
    for name, g in corpus().items():
        o = orient_eulerian(g, seed=0)
        diagrams.append(build_C_w_sigma(o.w, o.sigma))
    for d in diagrams:
        assert netlists_isomorphic(to_netlist(parse(print_term(d))), to_netlist(d))

    src = tmp_path / "switch.cpbs"
    src.write_text(print_term(quantum_switch()) + "\n")
    graph = tmp_path / "bowtie.graph"
    graph.write_text("A B\nB C\nC A\nC D\nD E\nE C\n")
    commands = [
        ("table", str(src)),
        ("normalize", str(src)),
        ("opt-pbs", str(src)),
        ("bounds", str(src)),
        ("reduce-ecd", str(graph)),
    ]
    deterministic = True
    for argv in commands:
        runs = [_run_cli(*argv) for _ in range(3)]
        codes = {code for code, _ in runs}
        outs = {out for _, out in runs}
        deterministic &= codes == {0} and len(outs) == 1
    ok = deterministic
    _report(10, ok, f"{len(diagrams)} diagrams round-trip; {len(commands)} commands byte-stable")
    assert deterministic
