"""Span tracing around the public functions of every cpbs module.

Each layer is a named group of library functions.  Installing a
Tracer replaces those functions with timing wrappers at every place a
``cpbs.*`` module holds them: the defining module, each module that
imported them by name, and the ``cpbs`` package itself.  A function
that reaches itself through its own module's globals (a recursive
term walker) keeps the defining module's reference, so its recursion
adds no wrapper frames and stays within the interpreter's default
recursion limit; its callers in other modules still see the wrapper.

A span has a name, a start, an end and a parent.  Self time is the
span's duration minus the time its child spans cover; it is computed
as each span closes, so nothing is kept per span.  A call into a layer
whose span is already open folds into that outermost span.  Every
span, folded or not, may record sizes taken from its arguments and
result; the time spent taking them is charged to ``harness.trace``.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Iterator

from cpbs.terms import GATE_KINDS, PBS_KINDS, STRUCT_KINDS, Gen, Par, Seq, Term, Trace


def leaves(d: Term) -> Iterator[Gen]:
    """Generator leaves of a term, walked with a stack instead of recursion."""
    stack = [d]
    while stack:
        x = stack.pop()
        if isinstance(x, Gen):
            yield x
        elif isinstance(x, Seq):
            stack += (x.second, x.first)
        elif isinstance(x, Par):
            stack += (x.bottom, x.top)
        elif isinstance(x, Trace):
            stack.append(x.body)


def term_counts(d: Term) -> dict[str, int]:
    """Leaves, non-structural generators, PBS and queries per letter."""
    out: dict[str, int] = {"leaves": 0, "gens": 0, "pbs": 0}
    queries: dict[str, int] = {}
    for g in leaves(d):
        out["leaves"] += 1
        if g.kind not in STRUCT_KINDS:
            out["gens"] += 1
        if g.kind in PBS_KINDS:
            out["pbs"] += 1
        if g.kind in GATE_KINDS:
            for u in g.word:
                queries[u] = queries.get(u, 0) + 1
    out["queries"] = sum(queries.values())
    return {**out, **{f"q.{u}": k for u, k in sorted(queries.items())}}


Sizes = Callable[[tuple, object], dict[str, float]]


def _parse_bytes(args: tuple, result: object) -> dict[str, float]:
    return {"textform.parse.bytes": len(args[0])}


def _print_bytes(args: tuple, result: object) -> dict[str, float]:
    return {"textform.print_term.bytes": len(result)}


def _nodes(args: tuple, result: object) -> dict[str, float]:
    return {"netlist.to_netlist.nodes": len(result.nodes)}


def _gens(args: tuple, result: object) -> dict[str, float]:
    return {"netlist.to_term.gens": sum(1 for _ in leaves(result))}


def _nf_gens(args: tuple, result: object) -> dict[str, float]:
    return {"normal_form.nf_gens": sum(1 for _ in leaves(result))}


def _configs(args: tuple, result: object) -> dict[str, float]:
    return {"semantics.table.configs": len(result.entries)}


def _matches(args: tuple, result: object) -> dict[str, float]:
    return {"rewrite.find_matches.found": len(result)}


def _steps(args: tuple, result: object) -> dict[str, float]:
    return {"query_opt.steps": len(result[1])}


def _verdict(args: tuple, result: object) -> dict[str, float]:
    return {"pgt.brute_force.found": 1}


# layer name -> (module, attribute, sizes or None); "Class.method" patches the class
LAYERS: dict[str, list[tuple[str, str, Sizes | None]]] = {
    "cli": [("cpbs.cli", "main", None)],
    "textform.parse": [("cpbs.textform", "parse", _parse_bytes)],
    "textform.print_term": [("cpbs.textform", "print_term", _print_bytes)],
    "terms.type_of": [("cpbs.terms", "type_of", None)],
    "terms.count": [
        ("cpbs.terms", name, None)
        for name in (
            "count_queries",
            "count_pbs",
            "count_neg",
            "count_generators",
            "letters_of",
            "term_size",
        )
    ],
    "netlist.to_netlist": [("cpbs.netlist", "to_netlist", _nodes)],
    "netlist.to_term": [("cpbs.netlist", "to_term", _gens)],
    "semantics.table": [("cpbs.semantics", "semantics_table", _configs)],
    "normal_form.synthesize": [
        ("cpbs.normal_form", "normalize", None),
        ("cpbs.normal_form", "synthesize_nf", None),
        ("cpbs.normal_form", "NormalForm.as_term", _nf_gens),
    ],
    "rewrite.find_matches": [("cpbs.rewrite", "find_matches", _matches)],
    "rewrite.apply": [("cpbs.rewrite", "apply", None)],
    "rewrite.check_soundness": [("cpbs.rewrite", "check_soundness", None)],
    "rewrite.replay": [("cpbs.rewrite", "replay_derivation", None)],
    "query_opt.optimize": [
        ("cpbs.query_opt", "optimize_queries", None),
        ("cpbs.query_opt", "optimize_queries_traced", _steps),
    ],
    "query_opt.profile": [
        ("cpbs.query_opt", "query_profile", None),
        ("cpbs.query_opt", "query_lower_bounds", None),
        ("cpbs.query_opt", "is_query_optimal", None),
    ],
    "stairs.synthesize": [
        ("cpbs.stairs", "synthesize_stair_form", None),
        ("cpbs.stairs", "StairForm.as_term", None),
    ],
    "stairs.lower_bound": [
        ("cpbs.stairs", "pbs_lower_bound", None),
        ("cpbs.stairs", "partition_analysis", None),
    ],
    "pgt.to_pgt_form": [
        ("cpbs.pgt", "to_pgt_form", None),
        ("cpbs.pgt", "is_query_pbs_optimal_single", None),
        ("cpbs.pgt", "PgtForm.as_term", None),
    ],
    "pgt.brute_force": [("cpbs.pgt", "brute_force_min_pbs", _verdict)],
    "hardness.orient": [("cpbs.hardness", "orient_eulerian", None)],
    "hardness.build": [("cpbs.hardness", "build_C_w_sigma", None)],
    "hardness.max_ecd": [("cpbs.hardness", "max_ecd_bruteforce", None)],
    "hardness.from_decomposition": [("cpbs.hardness", "diagram_from_decomposition", None)],
    "quantum.matrix": [("cpbs.quantum", "quantum_matrix", None)],
}

HARNESS = "harness"
TRACE_COST = "harness.trace"


def _reaches_itself(module: object, name: str) -> bool:
    """Whether the function `name` reaches itself through module globals."""

    def names_of(code) -> set[str]:
        out = set(code.co_names)
        for const in code.co_consts:
            if hasattr(const, "co_names"):
                out |= names_of(const)
        return out

    calls: dict[str, set[str]] = {}
    for attr, value in vars(module).items():
        code = getattr(value, "__code__", None)
        if code is not None and getattr(value, "__module__", None) == module.__name__:
            calls[attr] = names_of(code)
    seen, frontier = set(), list(calls.get(name, ()))
    while frontier:
        x = frontier.pop()
        if x == name:
            return True
        if x in seen or x not in calls:
            continue
        seen.add(x)
        frontier.extend(calls[x])
    return False


class Tracer:
    """Per-layer self time, call counts and sizes, optionally per item tag."""

    def __init__(self) -> None:
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.sizes: dict[tuple[str, str], float] = defaultdict(float)
        self.tag = ""
        self._open: dict[str, int] = defaultdict(int)
        self._child: list[float] = []  # child time covered, one entry per open span
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def _close(self, name: str, start: float, end: float) -> None:
        covered = self._child.pop()
        duration = end - start
        self.self_s[(self.tag, name)] += duration - covered
        self.calls[(self.tag, name)] += 1
        if self._child:
            self._child[-1] += duration

    def begin(self) -> float:
        """Open the harness's root span; returns its start."""
        self._child.append(0.0)
        return time.perf_counter()

    def end(self, start: float) -> float:
        """Close the root span; returns its duration."""
        end = time.perf_counter()
        self._close(HARNESS, start, end)
        return end - start

    def _record(self, sizes: Sizes, args: tuple, result: object) -> None:
        t0 = time.perf_counter()
        for key, value in sizes(args, result).items():
            self.sizes[(self.tag, key)] += value
        t1 = time.perf_counter()
        self.self_s[(self.tag, TRACE_COST)] += t1 - t0
        if self._child:
            self._child[-1] += t1 - t0

    def _wrap(self, name: str, fn: Callable, sizes: Sizes | None) -> Callable:
        tracer = self
        open_spans = self._open
        child = self._child
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if open_spans[name]:
                result = fn(*args, **kwargs)
            else:
                open_spans[name] = 1
                child.append(0.0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    open_spans[name] = 0
                    tracer._close(name, start, end)
            if sizes is not None:
                tracer._record(sizes, args, result)
            return result

        return traced

    # -- patching ------------------------------------------------------
    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "cpbs" or n.startswith("cpbs.")]
        for layer, targets in LAYERS.items():
            for mod_name, attr, sizes in targets:
                home = importlib.import_module(mod_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = vars(cls)[meth]
                    self._patch(cls, meth, self._wrap(layer, original, sizes))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(layer, original, sizes)
                keep_home = _reaches_itself(home, attr)
                for m in modules:
                    if m is home and keep_home:
                        continue
                    for name, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, name, wrapper)

    def _patch(self, owner: object, name: str, value: object) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    # -- results -------------------------------------------------------
    def totals(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Self time, calls and sizes summed over item tags."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        sizes: dict[str, float] = defaultdict(float)
        for (_, name), v in self.self_s.items():
            self_s[name] += v
        for (_, name), v in self.calls.items():
            calls[name] += v
        for (_, name), v in self.sizes.items():
            sizes[name] += v
        return self_s, calls, sizes
