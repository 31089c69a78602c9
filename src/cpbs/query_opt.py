"""Minimising oracle queries.

Every letter u appears in at most two rows' words of a diagram's action
table (a photon traverses a gate in at most two configurations), so
ceil(total occurrences / 2) queries are unavoidable.  The optimiser
reaches that bound: normalise, cut every gate into single letters, then
fuse equal-letter pairs across lines into one black gate each.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .netlist import Netlist, to_netlist, to_term
from .normal_form import normalize
from .rewrite import ProofStep, RuleInstance, apply, find_matches
from .semantics import SemanticsTable, _coerce, semantics_table
from .terms import GATE_KINDS, Term, Word, letter_counts, term_size

# ---------------------------------------------------------------------------
# counting and the lower bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QueryProfile:
    counts: dict[str, int]
    lower_bounds: dict[str, int]

    def __post_init__(self) -> None:
        for u, lb in self.lower_bounds.items():
            if self.counts.get(u, 0) < lb:
                raise AssertionError(f"count for {u} below its lower bound")

    def as_tsv(self) -> str:
        names = sorted(set(self.counts) | set(self.lower_bounds))
        return "\n".join(
            f"{u}\t{self.counts.get(u, 0)}\t{self.lower_bounds.get(u, 0)}" for u in names
        )


def query_lower_bounds(t: SemanticsTable) -> dict[str, int]:
    """Per letter: half the total occurrences across all rows, rounded up."""
    occurrences: Counter[str] = Counter()
    for _, _, word in t.rows():
        occurrences.update(word)
    return {u: math.ceil(k / 2) for u, k in sorted(occurrences.items())}


def query_profile(d: Netlist | Term) -> QueryProfile:
    """Queries per letter against the table's bounds, for a term or its netlist.

    The letters are counted on the netlist's gate nodes, which are the
    term's gates one for one.
    """
    n = _coerce(d)
    bounds = query_lower_bounds(semantics_table(n))
    queries: Counter[str] = Counter()
    for node in n.nodes.values():
        if node.kind in GATE_KINDS:
            queries.update(node.word)
    counts = {u: queries[u] for u in sorted(set(queries) | set(bounds))}
    return QueryProfile(counts, bounds)


def is_query_optimal(d: Netlist | Term) -> bool:
    """Whether a term, or its netlist, meets every query lower bound."""
    p = query_profile(d)
    return all(p.counts.get(u, 0) == p.lower_bounds.get(u, 0) for u in p.counts)


# ---------------------------------------------------------------------------
# the optimisation procedure
# ---------------------------------------------------------------------------

_SPLIT_RULES = ["DER18", "DER19", "DER20"]
# fusion rule by the colour pair of the two gates, in node-id order
_MERGE_RULE = {
    ("gate_v", "gate_h"): "DER21",
    ("gate_h", "gate_v"): "DER22",
    ("gate_v", "gate_v"): "DER23",
    ("gate_h", "gate_h"): "DER24",
}


def _nonblack_gates(n: Netlist) -> list[tuple[Word, int]]:
    return sorted(
        (node.word, i)
        for i, node in n.nodes.items()
        if node.kind in ("gate_v", "gate_h")
    )


def optimize_queries_traced(d: Term) -> tuple[Term, list[ProofStep]]:
    """Equivalent diagram meeting every query lower bound, with its trace.

    A diagram already at its bounds is returned unchanged with an empty
    trace.  Otherwise the first step stands for the deformation onto the
    normal form; the rest are genuine single rule applications on the
    netlist.
    """
    n = to_netlist(d)
    if is_query_optimal(n):
        return d, []
    budget = 10 * max(1, term_size(d)) ** 2
    nf = normalize(n)
    n = to_netlist(nf.as_term())
    head = find_matches(n, "STRUCT_YANKING")[0]
    steps = [ProofStep("STRUCT_YANKING", "L2R", head.site_hash)]

    def take(rule_id: str, inst: RuleInstance) -> None:
        nonlocal n
        n = apply(n, inst)
        steps.append(ProofStep(rule_id, inst.direction, inst.site_hash))
        if len(steps) > budget:
            raise AssertionError("rule budget exceeded")

    # cut every multi-letter gate into single letters, by the first rule that matches
    while True:
        for rule_id in _SPLIT_RULES:
            matches = find_matches(n, rule_id, "L2R")
            if matches:
                take(rule_id, matches[0])
                break
        else:
            break

    # fuse equal-letter pairs of coloured gates into single black gates, word
    # by word and two ids at a time: a fusion adds no coloured gate and
    # renumbers no other node, so the plan made here stays exact
    by_label: dict[Word, list[int]] = {}
    for word, i in _nonblack_gates(n):
        by_label.setdefault(word, []).append(i)
    for ids in by_label.values():
        for n1, n2 in zip(ids[::2], ids[1::2]):
            rule_id = _MERGE_RULE[(n.nodes[n1].kind, n.nodes[n2].kind)]
            matches = [
                m
                for m in find_matches(n, rule_id, "L2R")
                if set(m.node_map.values()) == {n1, n2}
            ]
            take(rule_id, matches[0])

    labels = [w for w, _ in _nonblack_gates(n)]
    if len(labels) != len(set(labels)) or any(len(w) != 1 for w in labels):
        raise AssertionError("fused gates must carry distinct single letters")
    out = to_term(n)
    bounds = query_lower_bounds(semantics_table(n))
    queries = letter_counts(out)
    if not all(queries[u] == k for u, k in bounds.items()):
        raise AssertionError("optimised diagram misses a query lower bound")
    if normalize(out) != nf:
        raise AssertionError("optimised diagram is not equivalent to its input")
    return out, steps


def optimize_queries(d: Term) -> Term:
    return optimize_queries_traced(d)[0]
