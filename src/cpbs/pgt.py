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
from dataclasses import dataclass

from .errors import NotFound, NotQueryOptimal, PreconditionViolated
from .netlist import Netlist, to_netlist
from .query_opt import _queries, query_lower_bounds
from .semantics import SemanticsTable, _certify, chase, semantics_table
from .stairs import StairForm, synthesize_stair_form
from .terms import (
    _GATE_COLOUR,
    _drawn_once,
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

    @_drawn_once
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


def _cut(n: Netlist) -> tuple[dict[int, Colour], SemanticsTable]:
    """The gates to cut, and the table of the diagram with them cut.

    Each input photon, in position order, is chased from gate to gate.
    A gate that queries an oracle takes its trace slot the first time a
    photon reaches it, and the colour of the polarisations reaching it
    (T for both); an empty-word gate is a plain wire and stays in the
    core.  In the residual table gate i's input port is extra output
    |b|+i and its output port extra input |a|+i, so the residual is
    gate-free by construction.  No two photons reach a gate in one
    polarisation (see ``chase``), so each residual input is chased once.
    """
    sink_at = n.sink_of()
    stop = {nid for nid, node in n.nodes.items() if node.kind in GATE_KINDS and node.word}
    slot: dict[int, int] = {}
    reach: dict[int, set[Colour]] = {}
    exits: dict[Configuration, tuple[Configuration, Word]] = {}
    for start in configurations(n.in_type):
        pol, src = start[0], ("bin", start[1])
        while True:
            end, pol, _ = chase(sink_at, n.nodes, src, pol, stop)
            if end[0] == "bout":
                exits[start] = (pol, end[1]), ()
                break
            i = slot.setdefault(end[1], len(slot))
            reach.setdefault(end[1], set()).add(pol)
            exits[start] = (pol, len(n.out_type) + i), ()
            start, src = (pol, len(n.in_type) + i), ("nout", end[1], 0)
    cut = {nid: T if len(pols) == 2 else pols.pop() for nid, pols in reach.items()}
    cs = tuple(cut.values())
    entries = {c: exits[c] for c in configurations(n.in_type + cs)}
    return cut, SemanticsTable(n.in_type + cs, n.out_type + cs, entries)


def to_pgt_form(d: Term) -> PgtForm:
    """Cut the gates out, stair-synthesise the rest, trace the gates back."""
    n = to_netlist(d)
    return _to_pgt_form(n, semantics_table(n))


def _to_pgt_form(n: Netlist, t: SemanticsTable) -> PgtForm:
    """to_pgt_form of a netlist whose table is at hand; the form is certified against it."""
    queries = _queries(n)
    if queries != query_lower_bounds(t):
        raise NotQueryOptimal("diagram does not meet its query lower bounds")
    cut, residual = _cut(n)
    core = synthesize_stair_form(residual)
    gates = tuple(Gen(GATE_FOR[c], n.nodes[nid].word) for nid, c in cut.items())
    form = PgtForm(gates, core)
    out = _certify(form.as_term(), t, "PGT form changes the action table")
    if _pbs(out) > _pbs(n):
        raise AssertionError("PGT form uses more PBS than its input")
    if _queries(out) != queries:
        raise AssertionError("PGT form changes the query counts")
    return form


def _pbs(n: Netlist) -> int:
    return sum(node.kind in PBS_KINDS for node in n.nodes.values())


def is_query_pbs_optimal_single(d: Term) -> bool:
    """Certified optimality when no oracle letter is queried twice."""
    for u, k in letter_counts(d).items():
        if k > 1:
            raise PreconditionViolated(f"oracle {u!r} is queried more than once")
    try:
        return count_pbs(d) == to_pgt_form(d).count_pbs()
    except NotQueryOptimal:  # to_pgt_form's check is the test is_query_optimal makes
        return False


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
    branch point.  Once a wire out of that source is laid, the chase
    resumes there, carrying the polarisation and the word read so far;
    the path already walked stays as it was, since wires are laid only
    at unwired sources.  ``wiring`` maps each wired source to its sink;
    ``wired`` holds both ends of every wire.

    Two prunes cut only branches that cannot succeed.  Gates append
    letters and a walk never loses any, so a branch dies as soon as the
    word read is not a prefix of the target word.  A wire to a boundary
    sink ends the walk there, so ``("bout", q)`` is offered only when
    (polarisation, q) is the photon's target configuration.

    Untouched copies of equal boxes, with no port in ``wired``, are
    interchangeable, so only the first free port of the colour on the
    least untouched copy is offered.  Within a box that loses nothing:
    only pbs4 has two input ports of one colour, and swapping both of
    its port pairs maps it onto itself.
    """
    colour: dict[tuple, Colour] = {("bin", p): c for p, c in enumerate(t.in_type)}
    sinks = [("bout", q) for q in range(len(t.out_type))]  # in the order they are offered
    colour.update(zip(sinks, t.out_type))
    ports: list[list[tuple]] = []  # each node's input ports, then its output ports
    for i, node in enumerate(nodes):
        ins, outs = node.signature()
        sinks += (own := [("nin", i, k) for k in range(len(ins))])
        ports.append(own + [("nout", i, k) for k in range(len(outs))])
        colour.update(zip(ports[i], ins + outs))
    wiring: dict[tuple, tuple] = {}
    wired: set[tuple] = set()
    first = [nodes.index(node) for node in nodes]  # the least index of an equal box
    starts = [(cfg, t.entries[cfg]) for cfg in configurations(t.in_type)]

    def begin(i: int) -> bool:
        if i == len(starts):
            return True
        (pol, pos), _ = starts[i]
        return advance(i, ("bin", pos), pol, ())

    def advance(i: int, src: tuple, pol: Colour, word: Word) -> bool:
        """Photon i leaves ``src`` as ``pol``, having read ``word`` so far."""
        end, pol, more = chase(wiring, nodes, src, pol)
        word += more
        target, target_word = starts[i][1]
        if target_word[: len(word)] != word:
            return False
        if end[0] == "bout":
            return (pol, end[1]) == target and word == target_word and begin(i + 1)
        want, offered = colour[end], set()
        for snk in sinks:
            if snk in wired or colour[snk] != want:
                continue
            if snk[0] == "bout" and (pol, snk[1]) != target:
                continue
            if snk[0] == "nin" and wired.isdisjoint(ports[snk[1]]):
                if first[snk[1]] in offered:
                    continue
                offered.add(first[snk[1]])
            wiring[end] = snk
            wired.add(end)
            wired.add(snk)
            if advance(i, end, pol, word):
                return True
            del wiring[end]
            wired.remove(end)
            wired.remove(snk)
        return False

    return begin(0)


def _balance(nodes: tuple[Gen, ...]) -> tuple[int, int, int]:
    """Sources minus sinks of the nodes' ports, per colour (T, V, H)."""
    bal = dict.fromkeys((T, V, H), 0)
    for node in nodes:
        ins, outs = node.signature()
        for c in outs:
            bal[c] += 1
        for c in ins:
            bal[c] -= 1
    return bal[T], bal[V], bal[H]


def brute_force_min_pbs(t: SemanticsTable, max_pbs: int, neg_budget: int = 2) -> int:
    """Least PBS count over all small diagrams realising the table.

    Query counts are pinned to the table's lower bounds (fewer is
    impossible, more never helps the PBS count), negations default to
    at most two per candidate.  A wiring exists only if, per colour,
    the nodes' output ports and the table's inputs match the nodes'
    input ports and the table's outputs.  A gate maps its one wire's
    colour to itself, so only the PBS and negations move that balance:
    a PBS and negation multiset meets the gate multisets only when its
    balance makes up the table's ``out_type`` minus ``in_type``, so the
    negation multisets are bucketed by balance once and each PBS
    multiset looks up the bucket for the rest.  The balanced candidates
    reach ``_realises`` in the order of the full enumeration.  A table
    whose rows are not exactly the configurations of its input type is
    refused; one that is but is not a bijection ends in ``NotFound``.

    The caps bound the exhaustive search that a ``NotFound`` costs.  On a
    2-vCPU machine, at 6 configurations, 2 queries and 2 negations, one
    such search took 0.05 s with ``max_pbs=2``, 1.3 s with 3 and 36 s
    with 4: about 27x per PBS.
    """
    if max_pbs < 0 or neg_budget < 0:
        raise PreconditionViolated("PBS and negation budgets must be non-negative")
    cfgs = list(configurations(t.in_type))
    if len(cfgs) > 6:
        raise PreconditionViolated("table is wider than 6 configurations")
    if t.entries.keys() != set(cfgs):
        raise PreconditionViolated("table rows are not the configurations of its input type")
    if max_pbs > 4:
        raise PreconditionViolated("PBS budget capped at 4")
    bounds = query_lower_bounds(t)
    if sum(bounds.values()) > 2:
        raise PreconditionViolated("more than 2 oracle letters in the table")

    gate_sets = _gate_options(bounds)
    negs_by_balance: dict[tuple[int, int, int], list[tuple[Gen, ...]]] = {}
    for nn in range(neg_budget + 1):
        for negs in itertools.combinations_with_replacement(map(Gen, sorted(NEG_KINDS)), nn):
            negs_by_balance.setdefault(_balance(negs), []).append(negs)
    need = tuple(t.out_type.count(c) - t.in_type.count(c) for c in (T, V, H))
    for n_pbs in range(max_pbs + 1):
        for pbs in itertools.combinations_with_replacement(map(Gen, sorted(PBS_KINDS)), n_pbs):
            rest = tuple(n - p for n, p in zip(need, _balance(pbs)))
            for negs in negs_by_balance.get(rest, ()):
                for gates in gate_sets:
                    if _realises(t, [*pbs, *negs, *gates]):
                        return n_pbs
    raise NotFound(f"no realisation within {max_pbs} PBS")
