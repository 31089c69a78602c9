"""Workload inputs, the operations run on them, and their output checks.

Every input comes from the seed.  An operation is one `cpbs` command
run in-process through ``cpbs.cli.main`` or one call into the library
where the command line has no subcommand for it.  Checks compare each
output against something the stage under test did not compute: an
independent normal-form route, the table of the input, a lower bound
counted here from that table, or the expected table of a reduction.

Each workload fixes the mix of its inputs (sizes, table widths,
letter counts) and lets the seed choose the inputs inside that mix, so
that aggregate figures agree from one seed to the next.
"""

from __future__ import annotations

import io
import math
import random
from bisect import bisect
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import cpbs
import cpbs.cli
from cpbs import (
    count_neg,
    nf_by_rewriting,
    optimize_queries,
    orient_eulerian,
    parse,
    print_term,
    random_diagram,
    semantics_table,
    tables_equal,
    to_netlist,
    to_pgt_form,
)
from cpbs.gallery import (
    fused_double_gate,
    half_switch_lean,
    half_switch_traced,
    one_query_two_pbs,
    quantum_switch,
    repeated_switch,
    three_query_circuit,
    two_query_pbs_free,
    worked_example,
    worked_example_pgt,
    worked_example_query_optimal,
)
from cpbs.hardness import corpus
from cpbs.rules import ALL_RULE_IDS, ANCILLARY_IDS, DERIVED_IDS
from cpbs.semantics import SemanticsTable
from cpbs.terms import Term, configurations, type_str

from tracing import term_counts

Check = Callable[[str], "str | None"]


class Unmet(str):
    """A check's reason that counts the operation as failed without
    showing its output wrong, e.g. when it contradicts another stage."""


@dataclass
class Op:
    item: str  # the input this operation belongs to; also its trace tag
    name: str  # command or library function
    call: Callable[[], tuple[int, str]]  # -> (exit code, printed text)
    check: Check | None = None  # -> why the output is wrong, or None
    needs: int | None = None  # index of the operation whose output this one reads
    feed: Callable[[str], None] | None = None  # hands the output to later operations


@dataclass
class Workload:
    ops: list[Op]
    items: int  # inputs behind the operations, for items_per_s
    probes: list[Op]  # known failure edges: counted in fail_share only
    quality: Counter = field(default_factory=Counter)  # pbs_out, queries_out


# ---------------------------------------------------------------------------
# running commands and library calls
# ---------------------------------------------------------------------------

def cli(*argv: str) -> Callable[[], tuple[int, str]]:
    """One `cpbs` command, run in-process with stdout and stderr captured."""
    args = [str(a) for a in argv]

    def call() -> tuple[int, str]:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                rc = cpbs.cli.main(args)
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 2
        return rc, out.getvalue()

    return call


def _table_text(t: SemanticsTable) -> str:
    lines = []
    for (pol, pos), (pol2, pos2), word in t.rows():
        lines.append(f"{pol.value}\t{pos}\t{pol2.value}\t{pos2}\t{'.'.join(word) or '-'}")
    return "\n".join(lines)


def _query_bounds(t: SemanticsTable) -> dict[str, int]:
    """Half the occurrences of each letter across the rows, rounded up."""
    occurrences: Counter = Counter()
    for _, _, word in t.rows():
        occurrences.update(word)
    return {u: math.ceil(k / 2) for u, k in occurrences.items()}


def _queries(counts: dict[str, int]) -> dict[str, int]:
    return {k[2:]: v for k, v in counts.items() if k.startswith("q.")}


def _same_table(text: str, t: SemanticsTable) -> str | None:
    if not tables_equal(semantics_table(to_netlist(parse(text))), t):
        return "table differs from the input's"
    return None


# ---------------------------------------------------------------------------
# random-opt
# ---------------------------------------------------------------------------

def _unitary(rng: random.Random) -> np.ndarray:
    z = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)] for _ in range(2)])
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _expected_matrix(t: SemanticsTable, mats: dict[str, np.ndarray]) -> np.ndarray:
    """Block (output configuration, input configuration) holds the word's product."""
    ins, outs = configurations(t.in_type), configurations(t.out_type)
    m = np.zeros((2 * len(outs), 2 * len(ins)), dtype=complex)
    for c, (c2, word) in t.entries.items():
        block = np.eye(2, dtype=complex)
        for u in word:
            block = mats[u] @ block
        r, col = outs.index(c2), ins.index(c)
        m[2 * r : 2 * r + 2, 2 * col : 2 * col + 2] = block
    return m


def _read_matrix(text: str) -> np.ndarray:
    rows = []
    for line in text.strip().splitlines():
        row = []
        for cell in line.split("\t"):
            re_s, _, im_s = cell.partition(",")
            row.append(complex(float(re_s), float(im_s)))
        rows.append(row)
    return np.array(rows, dtype=complex)


# (letter occurrences in the table, configurations band, size band) of
# each random-opt diagram, the configurations band being 0 for 2
# configurations, 1 for 3-5 and 2 for 6-8.  The optimisers' cost grows
# steeply with both, so the mix is fixed: four diagrams for each even
# occurrence count from 2 to 10, and sixteen at 12 occurrences and 3-5
# configurations.  The latency tail falls among that last group's
# opt-pbs commands.  Their times range over 20x, and follow the printed
# size of the query-optimal diagram that opt-pbs starts from
# (correlation 0.89 over 60 diagrams), so the sixteen are drawn two from
# each eighth of that size's distribution (TAIL_SIZE_BOUNDS, the octiles
# of 300 draws): the tail is read off the same spread for every seed.
TAIL_GROUP = (12, 1)
TAIL_SIZE_BOUNDS = (1264, 1552, 1809, 2036, 2339, 2775, 3157)
DIAGRAM_MIX = (
    tuple((occ, band, 0) for occ in range(2, 11, 2) for band in (0, 1, 1, 2))
    + tuple(TAIL_GROUP + (size,) for size in range(len(TAIL_SIZE_BOUNDS) + 1) for _ in range(2))
)
DIAGRAM_MIX_SMOKE = ((2, 0, 0), (4, 1, 0), (6, 1, 0))


def _pick_diagrams(rng: random.Random, mix: tuple[tuple[int, int, int], ...]) -> list[Term]:
    """Seeded random diagrams, 8-64 generators on 2-6 wires, one per mix entry."""
    wanted = Counter(mix)
    picked: list[tuple[tuple[int, int, int], Term]] = []
    while wanted:
        d = random_diagram(rng, max_generators=rng.randint(8, 64), max_wires=rng.randint(2, 6))
        t = semantics_table(d)
        if not 2 <= len(t.entries) <= 8:
            continue
        key = (sum(len(w) for _, _, w in t.rows()), len(t.entries) // 3)
        if not any(k[:2] == key for k in wanted):
            continue
        size = len(print_term(optimize_queries(d))) if key == TAIL_GROUP else 0
        key += (bisect(TAIL_SIZE_BOUNDS, size) if key == TAIL_GROUP else 0,)
        if wanted[key]:
            wanted[key] -= 1
            wanted += Counter()  # drop entries that reached zero
            picked.append((key, d))
    return [d for _, d in sorted(picked, key=lambda p: p[0])]


def _random_opt_ops(d: Term, tag: str, work: Path, assign: Path,
                    mats: dict[str, np.ndarray], quality: Counter) -> list[Op]:
    """The nine commands on one diagram, with their checks."""
    src = work / f"{tag}.txt"
    nf_file = work / f"{tag}.nf.txt"
    src.write_text(print_term(d))
    t = semantics_table(to_netlist(d))
    counts = term_counts(d)
    bounds = _query_bounds(t)
    stage_input: dict[str, int] = {}
    ref = t
    if counts["gens"] <= 8:
        nf = nf_by_rewriting(d)
        ref = SemanticsTable(
            t.in_type, t.out_type, {l.source: (l.target, l.word) for l in nf.lines}
        )

    def check_type(out: str) -> str | None:
        want = f"{type_str(t.in_type)} -> {type_str(t.out_type)}"
        return None if out.strip() == want else f"type {out.strip()!r}, expected {want!r}"

    def check_table(out: str) -> str | None:
        return None if out.strip() == _table_text(ref) else "table rows differ from the reference"

    def optimised(out: str) -> str | None:
        why = _same_table(out, t)
        if why:
            return why
        got = term_counts(parse(out))
        return None if _queries(got) == bounds else f"queries {_queries(got)} miss the bounds {bounds}"

    def check_opt_queries(out: str) -> str | None:
        why = optimised(out)
        if why is None:
            stage_input["pbs"] = term_counts(parse(out))["pbs"]
            quality["queries_out"] += sum(bounds.values())
        return why

    def check_opt_pbs(out: str) -> str | None:
        # the PBS stage starts from the query-optimal diagram, and must not add PBS to it
        why = optimised(out)
        if why:
            return why
        pbs = term_counts(parse(out))["pbs"]
        if "pbs" not in stage_input:
            return "no opt-queries output to compare with"
        if pbs > stage_input["pbs"]:
            return f"{pbs} PBS, more than the query-optimal diagram's {stage_input['pbs']}"
        quality["pbs_out"] += pbs
        quality["pbs_above_input"] += pbs > counts["pbs"]
        return None

    def check_bounds(out: str) -> str | None:
        letters = sorted(set(bounds) | set(_queries(counts)))
        want = [f"{u}\t{counts.get('q.' + u, 0)}\t{bounds.get(u, 0)}" for u in letters]
        lines = out.strip().splitlines()
        if lines[:-1] != want:
            return f"query lines {lines[:-1]} != {want}"
        name, got, bound = lines[-1].split("\t")
        if name != "pbs" or int(got) != counts["pbs"]:
            return f"PBS line {lines[-1]!r}, input has {counts['pbs']} PBS"
        gated = any(w for _, _, w in t.rows())
        if gated != (bound == "-") or (not gated and int(bound) > counts["pbs"]):
            return f"PBS bound {bound!r} for a diagram with {counts['pbs']} PBS"
        return None

    def check_matrix(out: str) -> str | None:
        want = _expected_matrix(t, mats)
        got = _read_matrix(out) if out.strip() else np.zeros((0, 0))
        if got.shape != want.shape or not np.allclose(got, want, atol=1e-9):
            return "matrix differs from the table's"
        return None

    def check_dot(out: str) -> str | None:
        lines = out.strip().splitlines()
        boxes = sum("[shape=box" in line for line in lines)
        if lines[0] != "digraph cpbs {" or lines[-1] != "}" or boxes != counts["gens"]:
            return f"DOT has {boxes} nodes for {counts['gens']} generators"
        return None

    return [
        Op(tag, "check", cli("check", src), check_type),
        Op(tag, "table", cli("table", src), check_table),
        Op(tag, "normalize", cli("normalize", src), lambda out: _same_table(out, t),
           feed=nf_file.write_text),
        Op(tag, "equal", cli("equal", src, nf_file),
           lambda out: None if out.strip() == "equivalent" else out.strip(), needs=-1),
        Op(tag, "opt-queries", cli("opt-queries", src), check_opt_queries),
        Op(tag, "opt-pbs", cli("opt-pbs", src), check_opt_pbs),
        Op(tag, "bounds", cli("bounds", src), check_bounds),
        Op(tag, "simulate", cli("simulate", src, "--assign", assign), check_matrix),
        Op(tag, "export-dot", cli("export-dot", src), check_dot),
    ]


def random_opt(seed: int, work: Path, smoke: bool) -> Workload:
    rng = random.Random(seed)
    mats = {u: _unitary(rng) for u in ("U", "V", "W")}
    assign = work / "assign.tsv"
    assign.write_text("".join(
        u + "".join(f"\t{float(z.real)!r},{float(z.imag)!r}" for z in m.flat) + "\n" for u, m in mats.items()
    ))
    diagrams = _pick_diagrams(rng, DIAGRAM_MIX_SMOKE if smoke else DIAGRAM_MIX)
    wl = Workload([], len(diagrams), [])
    for i, d in enumerate(diagrams):
        wl.ops += _random_opt_ops(d, f"d{i:02d}", work, assign, mats, wl.quality)
    wl.probes = _random_opt_probes(work, smoke)
    return wl


def _random_opt_probes(work: Path, smoke: bool) -> list[Op]:
    """A 1,000-gate chain, and 128-generator diagrams from fixed seeds."""
    chain = work / "probe_chain.txt"
    chain.write_text(" ; ".join(["gate[U]"] * 1000))
    word = ("U",) * 1000
    want = SemanticsTable((cpbs.Colour.T,), (cpbs.Colour.T,),
                          {(c, 0): ((c, 0), word) for c in (cpbs.Colour.V, cpbs.Colour.H)})
    probes = [Op("chain1000", "normalize", cli("normalize", chain), lambda out: _same_table(out, want))]
    for s in () if smoke else (0, 1, 2):
        d = random_diagram(s, max_generators=128, max_wires=6)
        tag = f"big{s}"
        ops = _random_opt_ops(d, tag, work, work / "assign.tsv", {}, Counter())
        probes += [op for op in ops if op.name not in ("equal", "simulate", "export-dot")]
    return probes


# ---------------------------------------------------------------------------
# reduce-ladder
# ---------------------------------------------------------------------------

# Edges per graph.  The cost of an operation on a graph of 16 or more
# edges depends on the graph's shape as much as on its size, and varies
# by up to 1.8x from one seed to the next; on 8 and 12 edges it varies by
# under 10%.  Eight graphs at 12 edges put the median among their check,
# table and normalize commands, and the latency tail among their bounds
# commands, with the same number of operations below and above each of
# those groups for every seed.
LADDER = (8, 8) + (12,) * 8 + (16, 20, 24)
LADDER_SMOKE = (8, 12)


def closed_walk_graph(rng: random.Random, n: int) -> str:
    """A connected Eulerian multigraph on n // 2 vertices: a closed walk of
    n steps that visits every vertex, with no self-loops."""
    k = max(3, n // 2)
    walk = rng.sample(range(k), k)
    for i in range(k, n):
        banned = {walk[-1], walk[0]} if i == n - 1 else {walk[-1]}
        walk.append(rng.choice([v for v in range(k) if v not in banned]))
    return "".join(f"v{walk[i]} v{walk[(i + 1) % n]}\n" for i in range(n))


def _reduction_ops(graph_text: str, tag: str, work: Path, quality: Counter) -> list[Op]:
    """reduce-ecd, then check, normalize, table and bounds on its diagram."""
    gfile, dfile = work / f"{tag}.graph", work / f"{tag}.txt"
    gfile.write_text(graph_text)
    edges = [tuple(line.split()) for line in graph_text.splitlines()]
    n = len(edges)
    seen: dict[str, SemanticsTable] = {}

    def check_reduction(out: str) -> str | None:
        d = parse(out)
        t = semantics_table(to_netlist(d))
        counts = term_counts(d)
        if t.in_type != t.out_type or len(t.in_type) != n:
            return f"type {t.in_type} for {n} edges"
        balance: Counter = Counter()
        for p, (u, v) in enumerate(edges):
            (vv, pv), wv = t.entries[(cpbs.Colour.V, p)]
            (hh, ph), wh = t.entries[(cpbs.Colour.H, p)]
            if (vv, pv, hh, ph) != (cpbs.Colour.V, p, cpbs.Colour.H, p):
                return f"wire {p} does not return to itself"
            if len(wv) != 1 or len(wh) != 1 or sorted(wv + wh) != sorted((u, v)):
                return f"wire {p} reads {wv}/{wh} for edge {u}-{v}"
            balance[wv[0]] += 1
            balance[wh[0]] -= 1
        if any(balance.values()):
            return "tails and heads do not balance at every vertex"
        if counts["pbs"] != 2 * (n - 1) or counts["queries"] != n:
            return f"{counts['pbs']} PBS and {counts['queries']} queries for {n} edges"
        quality["pbs_out"] += counts["pbs"]
        quality["queries_out"] += counts["queries"]
        seen["table"] = t
        return None

    def check_bounds(out: str) -> str | None:
        degree: Counter = Counter(x for e in edges for x in e)
        want = [f"{u}\t{k // 2}\t{k // 2}" for u, k in sorted(degree.items())]
        want.append(f"pbs\t{2 * (n - 1)}\t-")
        return None if out.strip().splitlines() == want else "bounds differ from the degrees"

    ring = "(" + ",".join(["T"] * n) + ")"
    return [
        Op(tag, "reduce-ecd", cli("reduce-ecd", gfile), check_reduction, feed=dfile.write_text),
        Op(tag, "check", cli("check", dfile),
           lambda out: None if out.strip() == f"{ring} -> {ring}" else out.strip(), needs=-1),
        Op(tag, "normalize", cli("normalize", dfile),
           lambda out: _same_table(out, seen["table"]), needs=-2),
        Op(tag, "table", cli("table", dfile),
           lambda out: None if out.strip() == _table_text(seen["table"]) else "rows differ",
           needs=-3),
        Op(tag, "bounds", cli("bounds", dfile), check_bounds, needs=-4),
    ]


def _decomposition_problem(g: cpbs.EulerianGraph, dec: cpbs.CycleDecomposition) -> str | None:
    used: list[int] = []
    for cycle in dec.cycles:
        for j, (i, tail, head) in enumerate(cycle):
            if {tail, head} != set(g.edges[i]) or head != cycle[(j + 1) % len(cycle)][1]:
                return f"cycle {cycle} is not a closed trail of the graph"
            used.append(i)
    return None if sorted(used) == list(range(g.n)) else "cycles do not cover each edge once"


def _corpus_ops(quality: Counter) -> list[Op]:
    """MAX-ECD by brute force over the 12-graph corpus, then each decomposition's diagram.

    Each is one operation over the whole corpus: the single calls take
    from 0.1 to 20 ms, and as 24 operations of their own they would
    decide where the workload's median falls.
    """
    graphs = corpus()
    found: dict[str, cpbs.CycleDecomposition] = {}
    wants = {}
    for name, g in graphs.items():
        ref = orient_eulerian(g, seed=0)
        wants[name] = SemanticsTable(
            tuple([cpbs.Colour.T] * g.n), tuple([cpbs.Colour.T] * g.n),
            {cfg: (cfg, (ref.arcs[cfg[1]][0 if cfg[0] == cpbs.Colour.V else 1],))
             for cfg in configurations((cpbs.Colour.T,) * g.n)},
        )

    def ecd() -> tuple[int, str]:
        lines = []
        for name, g in graphs.items():
            found[name] = cpbs.max_ecd_bruteforce(g)
            lines.append(f"{name}\t{found[name].cycles!r}")
        return 0, "\n".join(lines)

    def check_ecd(out: str) -> str | None:
        for name, g in graphs.items():
            why = _decomposition_problem(g, found[name])
            if why:
                return f"{name}: {why}"
        return None

    def diagrams() -> tuple[int, str]:
        return 0, "\n".join(
            cpbs.print_term(cpbs.diagram_from_decomposition(g, found[name]))
            for name, g in graphs.items()
        )

    def check_diagrams(out: str) -> str | None:
        for (name, g), text in zip(graphs.items(), out.split("\n")):
            d = parse(text)
            counts = term_counts(d)
            r = found[name].r
            if counts["pbs"] != 2 * (g.n - r):
                return f"{name}: {counts['pbs']} PBS, expected 2*({g.n}-{r})"
            if not tables_equal(semantics_table(to_netlist(d)), wants[name]):
                return f"{name}: table differs from the reference construction's"
            quality["pbs_out"] += counts["pbs"]
            quality["queries_out"] += counts["queries"]
        return None

    return [
        Op("corpus", "max_ecd_bruteforce", ecd, check_ecd),
        Op("corpus", "diagram_from_decomposition", diagrams, check_diagrams, needs=-1),
    ]


def reduce_ladder(seed: int, work: Path, smoke: bool) -> Workload:
    rng = random.Random(seed)
    wl = Workload([], 0, [])
    sizes = LADDER_SMOKE if smoke else LADDER
    for k, n in enumerate(sizes):
        tag = f"e{n}" if sizes.count(n) == 1 else f"e{n}.{sizes[:k].count(n)}"
        wl.ops += _reduction_ops(closed_walk_graph(rng, n), tag, work, wl.quality)
        wl.items += 1
    wl.ops += _corpus_ops(wl.quality)
    wl.items += len(corpus())
    probe_rng = random.Random(0)
    for n in () if smoke else (32, 48):
        wl.probes += _reduction_ops(closed_walk_graph(probe_rng, n), f"probe_e{n}", work, Counter())
    cycle = "".join(f"c{i} c{(i + 1) % 41}\n" for i in range(41))
    wl.probes += _reduction_ops(cycle, "probe_cycle41", work, Counter())[:1]
    return wl


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

CERTIFY_MIX_SMOKE = {(0, 1, 1, 2): 2, (1, 1, 1, 2): 2}

GALLERY_PAIRS = (
    (quantum_switch, three_query_circuit),
    (half_switch_traced, half_switch_lean),
    (worked_example, worked_example_query_optimal),
    (worked_example, worked_example_pgt),
    (two_query_pbs_free, one_query_two_pbs),
    (repeated_switch, fused_double_gate),
)

# How often each (oracle letters, witness PBS, witness negations capped
# at 3, table configurations) cell came up in 4,000 draws of the
# generator in _pick_certify, keeping cells seen at least ten times.
# Each seed draws CERTIFY_ITEMS diagrams in these proportions.  Left out:
# - tables with no letters and no PBS, whose search ends at once; a
#   third of all draws, they would put the median between two clusters;
# - tables with two letters when the witness has two PBS, or one PBS and
#   four or more configurations: their searches take from 20 ms to over
#   a second, so a few of them would set each seed's total;
# - witnesses with three PBS, and one-letter tables with two-PBS
#   witnesses: a handful per seed, their searches are the slowest and
#   would set the latency tail;
# - witnesses with three or more negations, which the probe pass covers
#   (THREE_NEGATION_SEEDS): most of their searches fail, and a failure
#   ranks as slowest, so a varying number of them would move the tail.
CELL_COUNTS = {
    (0, 1, 0, 2): 185, (0, 1, 0, 3): 81, (0, 1, 0, 4): 62, (0, 1, 0, 5): 31, (0, 1, 1, 2): 282,
    (0, 1, 1, 3): 154, (0, 1, 1, 4): 85, (0, 1, 1, 5): 26, (0, 1, 2, 3): 89, (0, 1, 2, 4): 63,
    (0, 1, 2, 5): 13, (0, 2, 0, 4): 30, (0, 2, 0, 5): 22, (0, 2, 1, 4): 52, (0, 2, 1, 5): 57,
    (0, 2, 2, 4): 63, (0, 2, 2, 5): 58, (1, 0, 0, 1): 14, (1, 0, 0, 2): 15,
    (1, 0, 1, 1): 40, (1, 0, 1, 2): 18, (1, 0, 1, 3): 14, (1, 1, 0, 2): 26, (1, 1, 0, 3): 21,
    (1, 1, 0, 4): 11, (1, 1, 1, 2): 40, (1, 1, 1, 3): 26, (1, 1, 1, 4): 19, (1, 1, 2, 3): 16,
    (1, 1, 2, 4): 12, (2, 0, 0, 1): 25, (2, 0, 0, 2): 11, (2, 0, 1, 1): 107,
    (2, 0, 1, 2): 23, (2, 0, 1, 3): 14, (2, 0, 2, 1): 30, (2, 0, 2, 2): 23, (2, 0, 2, 3): 11,
    (2, 1, 0, 2): 44, (2, 1, 0, 3): 20, (2, 1, 1, 2): 89, (2, 1, 1, 3): 54, (2, 1, 2, 2): 46,
    (2, 1, 2, 3): 44,
}
CERTIFY_ITEMS = 600

# Gate-free diagrams random_diagram(s, max_generators=10, max_wires=3,
# gate_free=True) whose PGT witness has at most 2 PBS and at least 3
# negations, one more than brute_force_min_pbs's default budget: the
# first 48 such seeds.  They are fixed so that every seed's probe pass
# meets the same known failure edge.
THREE_NEGATION_SEEDS = (
    10, 20, 33, 53, 56, 74, 237, 286, 300, 389, 408, 445, 471, 523, 562, 587,
    599, 611, 647, 758, 782, 793, 824, 847, 852, 857, 876, 881, 884, 891, 907, 910,
    912, 924, 930, 937, 974, 1086, 1096, 1129, 1135, 1154, 1157, 1194, 1219, 1243,
    1248, 1270,
)


def certify_mix(items: int) -> Counter:
    total = sum(CELL_COUNTS.values())
    return Counter({k: round(v * items / total) for k, v in CELL_COUNTS.items() if round(v * items / total)})


def _witness(d: Term) -> tuple[SemanticsTable, Term, tuple[int, int, int, int]]:
    t = semantics_table(to_netlist(d))
    w = to_pgt_form(optimize_queries(d)).as_term()
    key = (len(_query_bounds(t)), term_counts(w)["pbs"], min(count_neg(w), 3), len(t.entries))
    return t, w, key


def _pick_certify(rng: random.Random, wanted: Counter) -> list[tuple[SemanticsTable, Term]]:
    """Seeded single-query diagrams over U and V, drawn until every cell is full."""
    picked = []
    while wanted:
        d = random_diagram(rng, max_generators=10, max_wires=3, letters=("U", "V"),
                           single_query=True, gate_free=rng.random() < 0.5)
        t = semantics_table(to_netlist(d))
        cheap = (len(_query_bounds(t)), len(t.entries))
        if not any((k[0], k[3]) == cheap for k in wanted):
            continue
        t, w, key = _witness(d)
        if wanted[key]:
            wanted[key] -= 1
            wanted += Counter()  # drop cells that are full
            picked.append((key, t, w))
    return [(t, w) for _, t, w in sorted(picked, key=lambda p: p[0])]


def _search_op(tag: str, t: SemanticsTable, w: Term, quality: Counter) -> Op:
    """brute_force_min_pbs up to the witness's PBS count, which must be the verdict."""
    counts = term_counts(w)
    pbs = counts["pbs"]
    quality["pbs_out"] += pbs
    quality["queries_out"] += counts["queries"]

    def search() -> tuple[int, str]:
        return 0, str(cpbs.brute_force_min_pbs(t, max_pbs=pbs))

    def check(out: str) -> str | None:
        # the search stops at the witness's count, so a verdict can only be
        # lower, which contradicts the claim that the PGT form is minimal
        return None if out == str(pbs) else Unmet(f"{out} PBS, below the certified witness's {pbs}")

    return Op(tag, "brute_force_min_pbs", search, check)


def certify(seed: int, work: Path, smoke: bool) -> Workload:
    rng = random.Random(seed)
    wanted = CERTIFY_MIX_SMOKE if smoke else certify_mix(CERTIFY_ITEMS)
    wl = Workload([], 0, [])
    for i, (t, w) in enumerate(_pick_certify(rng, Counter(wanted))):
        wl.ops.append(_search_op(f"t{i:03d}", t, w, wl.quality))
    for rid in ALL_RULE_IDS[: 4 if smoke else None]:
        wl.ops.append(Op(rid, "check_soundness", lambda rid=rid: (0, str(cpbs.check_soundness(rid))),
                         lambda out: None if out == "True" else "rule reported unsound"))
    for rid in (DERIVED_IDS + ANCILLARY_IDS)[: 2 if smoke else None]:
        wl.ops.append(Op(rid, "replay_derivation",
                         lambda rid=rid: (0, "\n".join(s.render() for s in cpbs.replay_derivation(rid))),
                         lambda out: None if out else "empty derivation"))
    for a, b in GALLERY_PAIRS:
        da, db = a(), b()
        wl.ops.append(Op(f"{a.__name__}~{b.__name__}", "equivalent",
                         lambda da=da, db=db: (0, str(cpbs.equivalent(da, db))),
                         lambda out: None if out == "True" else "gallery pair not equivalent"))
    wl.items = len(wl.ops)
    for s in THREE_NEGATION_SEEDS[: 2 if smoke else None]:
        t, w, _ = _witness(random_diagram(s, max_generators=10, max_wires=3, gate_free=True))
        wl.probes.append(_search_op(f"gate_free{s}", t, w, Counter()))
    return wl


BUILDERS = {"random-opt": random_opt, "reduce-ladder": reduce_ladder, "certify": certify}
