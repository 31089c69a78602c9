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
from heapq import heapify, heappop, heappush

from .netlist import Netlist, to_netlist, to_term
from .normal_form import _synthesize_nf
from .rewrite import ProofStep, RuleInstance, match_at, splice
from .rules import RULES
from .semantics import SemanticsTable, _certify, semantics_table
from .terms import Term, Word

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
    n = d if isinstance(d, Netlist) else to_netlist(d)
    return _query_profile(n, semantics_table(n))


def _query_profile(n: Netlist, t: SemanticsTable) -> QueryProfile:
    """query_profile of a netlist whose table is already at hand."""
    bounds = query_lower_bounds(t)
    queries = _queries(n)
    counts = {u: queries[u] for u in sorted(set(queries) | set(bounds))}
    return QueryProfile(counts, bounds)


def _queries(n: Netlist) -> Counter[str]:
    """Queries per letter, read off the netlist's gate nodes."""
    return Counter(u for node in n.nodes.values() for u in node.word)


def is_query_optimal(d: Netlist | Term) -> bool:
    """Whether a term, or its netlist, meets every query lower bound."""
    p = query_profile(d)
    return all(p.counts.get(u, 0) == p.lower_bounds.get(u, 0) for u in p.counts)


# ---------------------------------------------------------------------------
# the optimisation procedure
# ---------------------------------------------------------------------------

# a normal form draws only gate_v and gate_h, so DER20 (gate_t) never fires
_SPLIT_RULES = ["DER18", "DER19"]
# fusion rule by the colour pair of the two gates, in node-id order
_MERGE_RULE = {
    ("gate_v", "gate_h"): "DER21",
    ("gate_h", "gate_v"): "DER22",
    ("gate_v", "gate_v"): "DER23",
    ("gate_h", "gate_h"): "DER24",
}


# the deformation onto the normal form: STRUCT_YANKING's sides are both the
# empty diagram, so its one site on any netlist is the empty instance
_DEFORMATION = RuleInstance("STRUCT_YANKING", "L2R")


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
    netlist.  The output is certified to have the input's table and to
    query each letter exactly as often as that table's bound says.
    """
    out, sites = _certified(d)
    # splice never changes an instance, so each site hashes as it did when matched
    return out, [ProofStep(s.rule, s.direction, s.site_hash) for s in sites]


def _certified(d: Term) -> tuple[Term, list[RuleInstance]]:
    """optimize_queries_traced's diagram, drawn and certified, and its sites unhashed."""
    n, t, sites = _optimize_queries(d)
    if not sites:
        return d, []
    out = to_term(n)
    m = _certify(out, t, "optimised diagram is not equivalent to its input")
    if _queries(m) != query_lower_bounds(t):
        raise AssertionError("optimised diagram misses a query lower bound")
    return out, sites


def _optimize_queries(d: Term) -> tuple[Netlist, SemanticsTable, list[RuleInstance]]:
    """optimize_queries_traced's rewritten netlist (the input's own if already
    optimal), the input's table and the site of each step, unhashed; only the
    queries are certified.

    A split costs O(k) in the matcher, and its lone site is never sorted, so
    no site key reprs the O(k) rest word; but each step's splice searches the
    wires for its out-legs and copies the rest word, so a run is still
    quadratic.  Chained / in one gate (Python 3.11, 2 vCPUs): 0.16-0.19 /
    0.23-0.26 s on 2,000 letters, 0.38-0.39 / 0.80-0.84 s on 4,000 and
    1.36 / 3.3-3.6 s on 8,000.  Under cProfile on the 4,000-letter gate the
    out-leg searches take 0.57 of 1.73 s."""
    n = to_netlist(d)
    t = semantics_table(n)
    bounds = query_lower_bounds(t)
    if _queries(n) == bounds:
        return n, t, []
    # each letter of a gate is read on at most two rows, so with S the input's
    # letters (a box without one counting 1) the run makes at most 2S splits
    # and S fusions: 1 + 3S steps, the budget
    budget = 1 + 3 * sum(max(1, len(g.word)) for g in n.nodes.values())
    # every site below is named before its step, so nothing searches the
    # whole netlist: the normal form's netlist is rewritten in place, and
    # each step matches its rule on the one or two gates it rewrites
    n = _synthesize_nf(t)[1]
    next_id = max(n.nodes, default=-1) + 1
    steps: list[RuleInstance] = [_DEFORMATION]

    def take(rule_id: str, nodes: tuple[int, ...]) -> range:
        """Rewrite by the rule's least site on these nodes; returns the new ids."""
        nonlocal next_id
        sites = match_at(n, rule_id, "L2R", nodes)
        if not sites:
            raise AssertionError(f"{rule_id} has no site on nodes {nodes}")
        new_ids = splice(n, sites[0], next_id)
        # every rule taken here adds boxes, so the counter stays max(n.nodes) + 1
        next_id = new_ids.stop
        steps.append(sites[0])
        if len(steps) > budget:
            raise AssertionError("rule budget exceeded")
        return new_ids

    # cut every multi-letter gate into single letters: all gate_v first, then
    # all gate_h, as a split makes gates of its own colour only.  The least
    # site of a split rule lies on the qualifying gate whose id is least as a
    # string (site keys are reprs, so [(0, 12)] sorts before [(0, 7)]), so a
    # heap keyed that way names each step's gate.
    for rule_id in _SPLIT_RULES:
        kind = RULES[rule_id].lhs.kind
        heap = [(str(i), i) for i, g in n.nodes.items() if g.kind == kind and len(g.word) > 1]
        heapify(heap)
        while heap:
            for i in take(rule_id, (heappop(heap)[1],)):
                if n.nodes[i].kind == kind and len(n.nodes[i].word) > 1:
                    heappush(heap, (str(i), i))

    # fuse equal-letter pairs of coloured gates into single black gates, word
    # by word and two ids at a time: a fusion adds no coloured gate and
    # renumbers no other node, so the plan made here stays exact
    by_label: dict[Word, list[int]] = {}
    for word, i in _nonblack_gates(n):
        by_label.setdefault(word, []).append(i)
    for ids in by_label.values():
        for n1, n2 in zip(ids[::2], ids[1::2]):
            take(_MERGE_RULE[(n.nodes[n1].kind, n.nodes[n2].kind)], (n1, n2))

    labels = [w for w, _ in _nonblack_gates(n)]
    if len(labels) != len(set(labels)) or any(len(w) != 1 for w in labels):
        raise AssertionError("fused gates must carry distinct single letters")
    if _queries(n) != bounds:
        raise AssertionError("optimised diagram misses a query lower bound")
    return n, t, steps


def optimize_queries(d: Term) -> Term:
    return _certified(d)[0]
