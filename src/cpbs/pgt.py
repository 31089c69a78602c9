"""PGT forms and exhaustive PBS minimisation at desk scale.

A query-optimal diagram deforms into permutations, a stack of gates on
traced-back wires, and a gate-free core; synthesising the core as a
stair form makes the PBS count equal the core table's lower bound.
With no oracle queried twice this is provably the best any equivalent
query-optimal diagram can do, and a brute-force search over small
netlists provides an independent check.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .errors import NotFound, NotQueryOptimal, PreconditionViolated
from .netlist import Netlist, to_netlist
from .query_opt import is_query_optimal, query_lower_bounds
from .semantics import SemanticsTable, chase, semantics_table, tables_equal
from .stairs import StairForm, synthesize_stair_form
from .terms import (
    _GATE_COLOUR,
    GATE_FOR,
    GATE_KINDS,
    NEG_KINDS,
    PBS_KINDS,
    Colour,
    Configuration,
    Gen,
    Term,
    Trace,
    Word,
    configurations,
    count_pbs,
    ident,
    letter_counts,
    par,
    seq,
)

T, V, H = Colour.T, Colour.V, Colour.H


# ---------------------------------------------------------------------------
# PGT form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PgtForm:
    gates: tuple[Gen, ...]  # in trace-slot order
    core: StairForm

    def count_pbs(self) -> int:
        return self.core.count_pbs()

    def as_term(self) -> Term:
        body = self.core.as_term()
        if not self.gates:
            return body
        cut = len(self.gates)
        kept = self.core.out_type[: len(self.core.out_type) - cut]
        body = seq(body, par(*(ident(c) for c in kept), *self.gates))
        for g in reversed(self.gates):
            body = Trace(_GATE_COLOUR[g.kind], body)
        return body


def _cut_gates(n: Netlist) -> dict[int, Colour]:
    """Gates to cut, in order of first use chasing inputs in position order.

    Only gates that a photon reaches and that query an oracle are cut;
    each takes the colour of the polarisations reaching it (T for both).
    An empty-word gate is a plain wire and stays in the core.
    """
    sink_at = n.sink_of()
    reach: dict[int, set[Colour]] = {}
    for pol, pos in configurations(n.in_type):
        for nid, p in chase(sink_at, n.nodes, ("bin", pos), pol)[2]:
            if n.nodes[nid].word:
                reach.setdefault(nid, set()).add(p)
    return {nid: T if len(pols) == 2 else pols.pop() for nid, pols in reach.items()}


def _residual_table(n: Netlist, cut: dict[int, Colour]) -> SemanticsTable:
    """Table of the diagram with every gate cut onto a boundary pair.

    Gate i's input port becomes extra output |b|+i and its output port
    extra input |a|+i, so the residual is gate-free by construction.
    """
    slot = {nid: i for i, nid in enumerate(cut)}
    cs = tuple(cut.values())
    sink_at = n.sink_of()

    def exit_of(src: tuple, pol: Colour) -> tuple[Configuration, Word]:
        end, pol, _ = chase(sink_at, n.nodes, src, pol, slot)
        return (pol, end[1] if end[0] == "bout" else len(n.out_type) + slot[end[1]]), ()

    entries = {(pol, pos): exit_of(("bin", pos), pol) for pol, pos in configurations(n.in_type)}
    for i, (nid, c) in enumerate(cut.items()):
        for pol in (V, H) if c == T else (c,):
            entries[(pol, len(n.in_type) + i)] = exit_of(("nout", nid, 0), pol)
    return SemanticsTable(n.in_type + cs, n.out_type + cs, entries)


def to_pgt_form(d: Term) -> PgtForm:
    """Cut the gates out, stair-synthesise the rest, trace the gates back."""
    n = to_netlist(d)
    if not is_query_optimal(n):
        raise NotQueryOptimal("diagram does not meet its query lower bounds")
    cut = _cut_gates(n)
    core = synthesize_stair_form(_residual_table(n, cut))
    gates = tuple(Gen(GATE_FOR[c], n.nodes[nid].word) for nid, c in cut.items())
    form = PgtForm(gates, core)
    out = form.as_term()
    if not tables_equal(semantics_table(out), semantics_table(n)):
        raise AssertionError("PGT form changes the action table")
    if count_pbs(out) > count_pbs(d):
        raise AssertionError("PGT form uses more PBS than its input")
    if letter_counts(out) != letter_counts(d):
        raise AssertionError("PGT form changes the query counts")
    return form


def is_query_pbs_optimal_single(d: Term) -> bool:
    """Certified optimality when no oracle letter is queried twice."""
    for u, k in letter_counts(d).items():
        if k > 1:
            raise PreconditionViolated(f"oracle {u!r} is queried more than once")
    if not is_query_optimal(d):
        return False
    return count_pbs(d) == to_pgt_form(d).count_pbs()


# ---------------------------------------------------------------------------
# brute-force minimum
# ---------------------------------------------------------------------------

def _gate_options(bounds: dict[str, int]) -> list[tuple[Gen, ...]]:
    """All gate multisets whose letter counts hit the bounds exactly."""
    letters: list[str] = []
    for u in sorted(bounds):
        letters.extend([u] * bounds[u])
    word_splits: set[tuple[Word, ...]] = set()
    for perm in set(itertools.permutations(letters)):
        for cuts in itertools.product([0, 1], repeat=max(len(perm) - 1, 0)):
            words, start = [], 0
            for i, cut in enumerate(cuts, 1):
                if cut:
                    words.append(perm[start:i])
                    start = i
            words.append(perm[start:])
            word_splits.add(tuple(sorted(w for w in words if w)))
    options: set[tuple[tuple[str, Word], ...]] = set()  # (kind, word) per gate
    for words in word_splits:
        for kinds in itertools.product(sorted(GATE_KINDS), repeat=len(words)):
            options.add(tuple(sorted(zip(kinds, words))))
    return [tuple(itertools.starmap(Gen, o)) for o in sorted(options)]


def _realises(t: SemanticsTable, nodes: list[Gen]) -> bool:
    """Search for a wiring of the given nodes whose table equals t.

    Wires are laid down lazily, driven by chasing one input photon at a
    time over the partial wiring: the unwired source it reaches is the
    branch point, and a photon exiting on the wrong row or circling
    kills the branch at once.  Untouched copies of identical nodes are
    interchangeable, so only the least-numbered one may be wired first.
    """
    src_colour: dict[tuple, Colour] = {}
    snk_colour: dict[tuple, Colour] = {}
    for p, c in enumerate(t.in_type):
        src_colour[("bin", p)] = c
    for q, c in enumerate(t.out_type):
        snk_colour[("bout", q)] = c
    for i, node in enumerate(nodes):
        ins, outs = node.signature()
        for k, c in enumerate(ins):
            snk_colour[("nin", i, k)] = c
        for k, c in enumerate(outs):
            src_colour[("nout", i, k)] = c

    wiring: dict[tuple, tuple] = {}
    used_sinks: set[tuple] = set()
    touched = [0] * len(nodes)
    first = [nodes.index(node) for node in nodes]  # the least index of an equal box
    starts = [(cfg, t.entries[cfg]) for cfg in configurations(t.in_type)]
    all_sinks = sorted(snk_colour)

    def candidates(colour: Colour) -> list[tuple]:
        out, seen_fresh = [], set()
        for snk in all_sinks:
            if snk in used_sinks or snk_colour[snk] != colour:
                continue
            if snk[0] == "nin" and not touched[snk[1]]:
                key = first[snk[1]]
                if key in seen_fresh:
                    continue
                seen_fresh.add(key)
            out.append(snk)
        return out

    def place(src: tuple, snk: tuple) -> None:
        wiring[src] = snk
        used_sinks.add(snk)
        if src[0] == "nout":
            touched[src[1]] += 1
        if snk[0] == "nin":
            touched[snk[1]] += 1

    def unplace(src: tuple, snk: tuple) -> None:
        del wiring[src]
        used_sinks.discard(snk)
        if src[0] == "nout":
            touched[src[1]] -= 1
        if snk[0] == "nin":
            touched[snk[1]] -= 1

    def advance(i: int) -> bool:
        if i == len(starts):
            return True
        (pol, pos), (target, target_word) = starts[i]
        end, pol, gates = chase(wiring, nodes, ("bin", pos), pol)
        if end is None:
            return False
        if end[0] == "bout":
            word = tuple(u for j, _ in gates for u in nodes[j].word)
            return (pol, end[1]) == target and word == target_word and advance(i + 1)
        for cand in candidates(src_colour[end]):
            place(end, cand)
            if advance(i):
                return True
            unplace(end, cand)
        return False

    return advance(0)


def brute_force_min_pbs(t: SemanticsTable, max_pbs: int, neg_budget: int = 2) -> int:
    """Least PBS count over all small diagrams realising the table.

    Query counts are pinned to the table's lower bounds (fewer is
    impossible, more never helps the PBS count), negations default to
    at most two per candidate.
    """
    if len(list(configurations(t.in_type))) > 6:
        raise PreconditionViolated("table is wider than 6 configurations")
    if max_pbs > 4:
        raise PreconditionViolated("PBS budget capped at 4")
    bounds = query_lower_bounds(t)
    if sum(bounds.values()) > 2:
        raise PreconditionViolated("more than 2 oracle letters in the table")

    gate_sets = _gate_options(bounds)
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
                    if _realises(t, nodes):
                        return n_pbs
    raise NotFound(f"no realisation within {max_pbs} PBS")
