"""Benchmark of the cpbs pipeline: end-to-end metrics, or per-layer ones.

    python3 perfbench/run.py --workload random-opt --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from the `src` directory
next to this one, and each workload runs in the process that invokes
this script, with no threads.  Inputs come from --seed and are
written to a temporary directory inside the checkout, removed at exit.

The first pass over a workload's operations checks every output; each
later pass must print the same bytes.  Whole passes repeat until
--seconds have gone by.  A probe pass at known failure edges follows;
it counts towards fail_share only.  With --trace 1, passes alternate
between untraced and traced, and the last line carries the per-layer
metrics instead of the end-to-end ones.  The last line of stdout is
one JSON object; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import cpbs  # noqa: E402  (after the path insert: the package next to the benchmark)
import tracing  # noqa: E402
import workloads  # noqa: E402
from reference import reference_job  # noqa: E402
from workloads import Unmet  # noqa: E402

WORKLOADS = ("random-opt", "reduce-ladder", "certify")
IMPORT_RUNS = 11
PROBE_BUDGET_S = 20.0
# An operation taking more than this share of the first pass is timed in
# that pass only: later untraced passes leave it out, so the others get
# more passes, and a long operation already averages out short bursts of
# machine noise.
HEAVY_SHARE = 0.1
# The reference job is timed at the start of each untraced pass and
# again after each further this many wall seconds of operations.
GAUGE_EVERY_S = 0.3
# Times are reported at the machine speed at which the reference job
# takes this long: the median, over twelve 30-second runs, of its mean
# time in a run on the 2-vCPU Xeon VM the benchmark was tuned on.
REFERENCE_S = 0.022

# Times `import cpbs`, then the reference job three times in the same
# fresh interpreter, so that the import is scaled by the machine's speed
# at that moment.
IMPORT_TIMER = (
    "import gc, sys, time\n"
    "sys.path[:0] = sys.argv[1:]\n"
    "t = time.thread_time()\n"
    "import cpbs\n"
    "t = time.thread_time() - t\n"
    "from reference import reference_job\n"
    "gc.disable()\n"
    "r = time.thread_time()\n"
    "for _ in range(3):\n"
    "    reference_job()\n"
    "print(t, (time.thread_time() - r) / 3, cpbs.__file__)\n"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "fail_share": "ratio",
    "peak_rss_mb": "MB",
    "out_bytes": "bytes",
    "pbs_out": "count",
    "queries_out": "count",
}


def import_seconds() -> tuple[float, float]:
    """Processor time of the main thread for `import cpbs` in a fresh
    interpreter, and the reference job's mean time just after it."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER, str(SRC), str(Path(__file__).resolve().parent)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    seconds, job, where = done.stdout.split()
    if not Path(where).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"cpbs imported from {where}, not from {SRC}")
    return float(seconds), float(job)


class Overrun(Exception):
    pass


def _overrun(signum, frame):
    raise Overrun(f"over the {PROBE_BUDGET_S:.0f} s probe budget")


@dataclass
class Outcome:
    seconds: dict[int, float] = field(default_factory=dict)  # processor time per untraced pass it ran in
    failure: str | None = None
    wrong: bool = False  # the output failed its check
    out_bytes: int = 0
    digest: str = ""


class Gauge:
    """The machine's speed, from the reference job timed between operations.

    Other tenants of a shared host slow this machine by up to 2x, in
    bursts of a second and in stretches of minutes.  The reference job
    runs through the same passes as the operations and is slowed alike,
    so an operation's time over the job's mean time in the same pass is
    steady; a change to cpbs moves the first and not the second.
    """

    def __init__(self) -> None:
        self.passes: list[list[float]] = []
        self.due = 0.0

    def new_pass(self) -> None:
        self.passes.append([])
        self.due = 0.0

    def tick(self, spent: float) -> None:
        self.due -= spent
        if self.due <= 0:
            gc.disable()  # the collector's pauses depend on the heap the benchmark holds
            start = time.thread_time()
            reference_job()
            self.passes[-1].append(time.thread_time() - start)
            gc.enable()
            self.due = GAUGE_EVERY_S

    def seconds(self, pass_no: int | None = None) -> float:
        """The reference job's mean time in one untraced pass, or in all of them."""
        if pass_no is not None:
            return statistics.mean(self.passes[pass_no])
        return statistics.mean(t for p in self.passes for t in p)

    def scale(self, pass_no: int) -> float:
        """Factor that turns processor times of one pass into times at the reference speed."""
        return REFERENCE_S / self.seconds(pass_no)


def run_op(op, outcome: Outcome, first: bool, budget: float | None, pass_no: int | None) -> float:
    """Run one operation, record what happened, and return its wall seconds."""
    if budget:
        signal.signal(signal.SIGALRM, _overrun)
        signal.setitimer(signal.ITIMER_REAL, budget)
    start, cpu_start = time.perf_counter(), time.thread_time()
    try:
        rc, out = op.call()
        failure = None if rc == 0 else f"exit code {rc}"
    except Exception as e:  # a crash, or Overrun, is a measured outcome, not a harness error
        out, failure = "", f"{type(e).__name__}: {str(e)[:120]}"
    finally:
        seconds, cpu = time.perf_counter() - start, time.thread_time() - cpu_start
        if budget:
            signal.setitimer(signal.ITIMER_REAL, 0)
    if pass_no is not None:
        outcome.seconds[pass_no] = cpu
    digest = hashlib.sha256(out.encode()).hexdigest()
    if failure is None and first:
        outcome.out_bytes = len(out.encode())
        outcome.digest = digest
        try:
            why = op.check(out) if op.check else None
        except Exception as e:  # the checker runs the library too, which can crash
            why = Unmet(f"output could not be checked: {type(e).__name__}: {str(e)[:120]}")
        if isinstance(why, Unmet):
            failure = f"check unmet: {why}"
        elif why:
            failure, outcome.wrong = f"wrong output: {why}", True
        if op.feed and not outcome.wrong:
            op.feed(out)
    elif failure is None and digest != outcome.digest:
        failure, outcome.wrong = "output differs from the first pass", True
    if failure and outcome.failure is None:
        outcome.failure = failure
    return seconds


def run_pass(ops, outcomes: list[Outcome], first: bool, tracer=None, budget=None,
             skip: frozenset[int] = frozenset(), gauge: Gauge | None = None) -> float:
    """All operations once, but those in `skip`; returns the wall seconds spent inside them.

    Operations are timed only in a pass that runs the gauge.
    """
    busy = 0.0
    pass_no = None
    if gauge is not None:
        gauge.new_pass()
        gauge.tick(0.0)
        pass_no = len(gauge.passes) - 1
    for i, op in enumerate(ops):
        if i in skip:
            continue
        needed = outcomes[i + op.needs] if op.needs is not None else None
        if needed is not None and (needed.wrong or not needed.digest):
            if outcomes[i].failure is None:
                outcomes[i].failure = "its input was not produced"
            continue
        if tracer is not None:
            tracer.tag = op.item
        spent = run_op(op, outcomes[i], first, budget, pass_no)
        busy += spent
        if gauge is not None:
            gauge.tick(spent)
    return busy


def latency(o: Outcome, gauge: Gauge) -> float:
    """An operation's time at the reference speed.

    Its processor time in each untraced pass after the first, the warm-up
    pass, times that pass's scale; then the mean over those passes.  An
    operation timed in the first pass only (a heavy one) keeps that time.
    The operations are single-threaded and CPU-bound, so at the reference
    speed this is their wall time.
    """
    warm = [p for p in o.seconds if p > 0] or list(o.seconds)
    return statistics.mean(o.seconds[p] * gauge.scale(p) for p in warm) if warm else 0.0


def latencies(outcomes: list[Outcome], gauge: Gauge) -> list[float]:
    """Per operation, its time at the reference speed; a failed one ranks as slowest."""
    slowest = max((latency(o, gauge) for o in outcomes if not o.failure), default=0.0)
    out = []
    for o in outcomes:
        own = latency(o, gauge)
        out.append(max(own, slowest) if o.failure else own)
    return sorted(out)


def tail(sorted_values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and which it is."""
    n = len(sorted_values)
    if n <= 10:
        return sorted_values[-1], 100.0
    return sorted_values[n - 11], 100.0 * (n - 10) / n


def end_to_end(wl, outcomes, probe_outcomes, busy, setup_times, rss_mb, gauge) -> dict[str, float]:
    lat = latencies(outcomes, gauge)
    tail_s, pct = tail(lat)
    failed = sum(o.failure is not None for o in outcomes + probe_outcomes)
    attempted = len(outcomes) + len(probe_outcomes)
    print(f"# {len(lat)} operations per pass, {len(busy)} timed passes; "
          f"latency_tail_ms is p{pct:.1f}; quality counts {dict(sorted(wl.quality.items()))}")
    print(f"# reference job: mean {1000 * gauge.seconds():.2f} ms over {sum(map(len, gauge.passes))} "
          f"runs between operations; unscaled setup {statistics.median(t for t, _ in setup_times):.4f} s")
    return {
        "setup_s": REFERENCE_S * statistics.median(t / job for t, job in setup_times),
        "items_per_s": wl.items / sum(latency(o, gauge) for o in outcomes),
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_tail_ms": 1000 * tail_s,
        "fail_share": failed / attempted,
        "peak_rss_mb": rss_mb,
        "out_bytes": float(sum(o.out_bytes for o in outcomes)),
        "pbs_out": float(wl.quality["pbs_out"]),
        "queries_out": float(wl.quality["queries_out"]),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-tests")
    args = ap.parse_args(argv)

    if not Path(cpbs.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: cpbs imported from {cpbs.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # set-up is timed once before the passes, once after each pass and
    # then until there are IMPORT_RUNS samples, so that its median spans
    # the run rather than one moment of it
    setup_times = [import_seconds()]

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        wl = workloads.BUILDERS[args.workload](args.seed, Path(work), args.smoke)
        outcomes = [Outcome() for _ in wl.ops]
        tracer = tracing.Tracer() if args.trace else None
        busy: list[float] = []  # untraced passes
        traced_walls: list[float] = []
        heavy: frozenset[int] = frozenset()
        gauge = Gauge()
        start = time.perf_counter()
        while True:
            if tracer is not None and len(busy) > len(traced_walls):
                tracer.install()
                try:
                    root = tracer.begin()
                    run_pass(wl.ops, outcomes, False, tracer)
                    traced_walls.append(tracer.end(root))
                finally:
                    tracer.uninstall()
            else:
                busy.append(run_pass(wl.ops, outcomes, not busy, skip=heavy, gauge=gauge))
                if len(busy) == 1:
                    heavy = frozenset(i for i, o in enumerate(outcomes)
                                      if o.seconds and o.seconds[0] > HEAVY_SHARE * busy[0])
            if len(setup_times) < IMPORT_RUNS:
                setup_times.append(import_seconds())
            enough = time.perf_counter() - start >= args.seconds
            if enough and (tracer is None or traced_walls):
                break
        while len(setup_times) < IMPORT_RUNS:
            setup_times.append(import_seconds())
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probe_outcomes = [Outcome() for _ in wl.probes]
        run_pass(wl.probes, probe_outcomes, True, budget=PROBE_BUDGET_S)

    for op, o in zip(wl.ops + wl.probes, outcomes + probe_outcomes):
        if o.failure:
            print(f"# failed: {op.item} {op.name}: {o.failure}")
    if args.trace:
        metrics = per_layer(tracer, traced_walls, busy)
        units = {name: unit for name, unit in PER_LAYER}
        for row in ladder_rows(wl, outcomes, tracer, gauge):
            print("# " + "  ".join(f"{k}={v}" for k, v in row.items()))
    else:
        metrics = end_to_end(wl, outcomes, probe_outcomes, busy, setup_times, rss_mb, gauge)
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    result = {
        "correct": not any(o.wrong for o in outcomes + probe_outcomes),
        "attempted": len(outcomes) + len(probe_outcomes),
        "failed": sum(o.failure is not None for o in outcomes + probe_outcomes),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

SELF_TIMED = (
    "terms.count", "terms.type_of", "textform.parse", "textform.print_term",
    "netlist.to_netlist", "netlist.to_term", "normal_form.synthesize",
    "semantics.table", "rewrite.find_matches", "rewrite.apply",
    "rewrite.check_soundness", "rewrite.replay", "query_opt.optimize",
    "query_opt.profile", "stairs.synthesize", "stairs.lower_bound",
    "pgt.to_pgt_form", "pgt.brute_force", "hardness.orient", "hardness.build",
    "hardness.max_ecd", "hardness.from_decomposition", "quantum.matrix", "cli",
    "harness", "harness.trace",
)
CALLS = ("terms.count", "semantics.table", "rewrite.find_matches", "rewrite.apply", "pgt.brute_force")
SIZES = (
    ("textform.parse.bytes", "bytes"), ("textform.print_term.bytes", "bytes"),
    ("netlist.to_netlist.nodes", "count"), ("netlist.to_term.gens", "count"),
    ("normal_form.nf_gens", "count"), ("semantics.table.configs", "count"),
    ("rewrite.find_matches.found", "count"), ("query_opt.steps", "count"),
    ("pgt.brute_force.found", "count"),
)
PER_LAYER = (
    [(f"{name}.self_s", "s") for name in SELF_TIMED]
    + [(f"{name}.calls", "count") for name in CALLS]
    + list(SIZES)
    + [("rewrite.match_use", "ratio"), ("trace.wall_s", "s"),
       ("trace.accounted_share", "ratio"), ("trace_overhead", "ratio")]
)


def per_layer(tracer, traced_walls: list[float], busy: list[float]) -> dict[str, float]:
    """Per traced pass: self time per layer, calls, sizes, and the trace's own cost."""
    k = len(traced_walls)
    self_s, calls, sizes = tracer.totals()
    out: dict[str, float] = {}
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = self_s.get(name, 0.0) / k
    for name in CALLS:
        out[f"{name}.calls"] = calls.get(name, 0) / k
    for name, _ in SIZES:
        out[name] = sizes.get(name, 0.0) / k
    found = sizes.get("rewrite.find_matches.found", 0.0)
    out["rewrite.match_use"] = calls.get("rewrite.apply", 0) / found if found else 0.0
    wall = statistics.median(traced_walls)
    out["trace.wall_s"] = wall
    out["trace.accounted_share"] = sum(self_s.values()) / sum(traced_walls)
    # the first pass is the one untraced pass that runs every operation
    out["trace_overhead"] = wall / busy[0] - 1
    return out


def ladder_rows(wl, outcomes, tracer, gauge) -> list[dict[str, str]]:
    """reduce-ladder only: printed bytes and stage times at each graph size."""
    rows = []
    by_key = {(op.item, op.name): o for op, o in zip(wl.ops, outcomes)}
    for item in sorted({op.item for op in wl.ops if op.name == "reduce-ecd"}, key=lambda s: float(s[1:])):
        row = {"size": item, "bytes": str(by_key[(item, "reduce-ecd")].out_bytes)}
        for layer in ("textform.parse", "netlist.to_netlist"):
            n = tracer.calls.get((item, layer), 0)
            row[f"{layer.split('.')[1]}_s"] = f"{tracer.self_s.get((item, layer), 0.0) / n:.4f}" if n else "-"
        for cmd in ("table", "normalize", "bounds"):
            o = by_key[(item, cmd)]
            row[f"{cmd}_s"] = f"{latency(o, gauge):.4f}" if o.seconds else "-"
        rows.append(row)
    return rows


if __name__ == "__main__":
    sys.exit(main())
