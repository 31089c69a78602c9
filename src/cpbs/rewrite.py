"""Matching and applying rewrite rules on netlists.

A rule side compiles to one of two patterns, never a mix.  A node
pattern has nodes to embed injectively and wires between them that
must be present verbatim.  A wire pattern has no node, only
pass-through wires and bare loops, each matched by a distinct host wire
or loop of its colour; an empty side (the STRUCT rules) matches once.
A site is the matcher's choice of nodes, word bindings, wires and
loops.  Applying it removes the matched nodes, adds the other side's
boxes with their word variables bound, and writes its wires onto the
legs it reads off the host: input slot i reads what fed the site there,
and output slot j feeds what it fed.  Where the host runs output j
straight back into input i, the splice follows the replacement's wire
into j; a chain of such slots that closes up becomes a bare loop.  A
site is valid exactly when the matcher finds it: apply re-matches it on
its own nodes, wires and loops, and splice, in place, takes one just matched.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import operator
from dataclasses import dataclass, field
from typing import Iterable

from .errors import DerivationFailed, StaleInstance
from .netlist import Netlist, netlists_isomorphic, to_netlist
from .rules import RULES, Rule, WVar, substitute, word_vars
from .semantics import semantics_table, tables_equal
from .terms import Colour, Gen, Term, Word

Sink = tuple
Source = tuple


# ---------------------------------------------------------------------------
# pattern compilation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Pattern:
    in_type: tuple[Colour, ...]
    out_type: tuple[Colour, ...]
    nodes: dict[int, Gen]  # numbered 0, 1, ... as the side's netlist numbers them
    internal_at: tuple[tuple[tuple[Sink, Source], ...], ...]  # wires closed by placing node i
    bound_in: tuple[tuple[int, Sink], ...]      # (bin index, pattern node sink)
    bound_out: tuple[tuple[int, Source], ...]   # (bout index, pattern node source)
    passthrough: tuple[tuple[int, int, Colour], ...]  # (bin, bout, colour)
    loops: tuple[Colour, ...]
    invents_words: bool  # the replacement needs words the match cannot supply
    rep: Netlist  # the other side, its gate words still holding word variables


@functools.cache
def _compile(rule_id: str, direction: str) -> _Pattern:
    """The pattern of the rule side matched in this direction, and the other side.

    Rule sides are constants, so each (rule, direction) is compiled once
    per process; the shared pattern is read-only.  Raises ValueError on
    a side that has both nodes and pass-through wires or loops.
    """
    pat_term, rep_term = _sides(RULES[rule_id], direction)
    n = to_netlist(pat_term)
    internal_at: list[list[tuple[Sink, Source]]] = [[] for _ in n.nodes]
    bound_in: list[tuple[int, Sink]] = []
    bound_out: list[tuple[int, Source]] = []
    passthrough: list[tuple[int, int, Colour]] = []
    for snk, src in sorted(n.wires.items()):
        if snk[0] == "nin" and src[0] == "nout":
            internal_at[max(snk[1], src[1])].append((snk, src))
        elif snk[0] == "nin":
            bound_in.append((src[1], snk))
        elif src[0] == "nout":
            bound_out.append((snk[1], src))
        else:
            passthrough.append((src[1], snk[1], n.in_type[src[1]]))
    if n.nodes and (passthrough or n.loops):
        raise ValueError(f"{rule_id} {direction}: a rule side mixes nodes with bare wires or loops")
    return _Pattern(
        n.in_type,
        n.out_type,
        n.nodes,
        tuple(map(tuple, internal_at)),
        tuple(sorted(bound_in)),
        tuple(sorted(bound_out)),
        tuple(sorted(passthrough)),
        n.loops,
        not set(word_vars(rep_term)) <= set(word_vars(pat_term)),
        to_netlist(rep_term),
    )


# ---------------------------------------------------------------------------
# word matching
# ---------------------------------------------------------------------------

def _match_word(pattern: tuple[WVar, ...], host: Word, binding: dict[str, Word]) -> list[dict[str, Word]]:
    """Every binding, each a fresh dict, that makes the pattern word (a run of
    word variables) equal the host word.  A bound variable must come next; a
    free one tries its lengths shortest first, but the last takes the rest."""
    if not pattern:
        return [dict(binding)] if not host else []
    head, rest = pattern[0], pattern[1:]
    if head.name in binding:
        bound = binding[head.name]
        if host[: len(bound)] == bound:
            return _match_word(rest, host[len(bound) :], binding)
        return []
    lengths = [head.exact] if head.exact is not None else range(head.min_len, len(host) + 1)
    if not rest:
        return [{**binding, head.name: host}] if len(host) in lengths else []
    fits = (k for k in lengths if k <= len(host))
    return [b for k in fits for b in _match_word(rest, host[k:], {**binding, head.name: host[:k]})]


# ---------------------------------------------------------------------------
# rule instances
# ---------------------------------------------------------------------------

@dataclass
class RuleInstance:
    """A rule side's site on a host netlist: exactly what the matcher chose,
    its node map and word bindings or its host wires and loops."""

    rule: str
    direction: str
    node_map: dict[int, int] = field(default_factory=dict)
    bindings: dict[str, Word] = field(default_factory=dict)
    wire_choices: list = field(default_factory=list)  # per pass-through: ("wire", snk, src) | ("loop", i)
    loop_choices: list[int] = field(default_factory=list)

    def site_key(self) -> str:
        node_map, bindings = sorted(self.node_map.items()), sorted(self.bindings.items())
        return repr((self.rule, self.direction, node_map, bindings, self.wire_choices, self.loop_choices))

    @property
    def site_hash(self) -> str:
        return hashlib.sha256(self.site_key().encode()).hexdigest()[:12]


@dataclass(frozen=True)
class ProofStep:
    rule: str
    direction: str
    site_hash: str

    def render(self) -> str:
        return f"{self.rule} {self.direction} @ {self.site_hash}"


def render_trace(steps: list[ProofStep]) -> str:
    return "\n".join(s.render() for s in steps)


def _sides(rule: Rule, direction: str) -> tuple[Term, Term]:
    if direction == "L2R":
        return rule.lhs, rule.rhs
    if direction == "R2L":
        return rule.rhs, rule.lhs
    raise ValueError(f"direction must be L2R or R2L, not {direction!r}")


def find_matches(n: Netlist, rule_id: str, direction: str = "L2R") -> list[RuleInstance]:
    """All sites where the rule applies, in the order of their site keys."""
    return match_at(n, rule_id, direction, n.nodes)


def match_at(n: Netlist, rule_id: str, direction: str, nodes: Iterable[int]) -> list[RuleInstance]:
    """The sites whose matched nodes all lie among the given host nodes.

    These are exactly the instances find_matches returns with their
    nodes among ``nodes``, in the order of their site keys; the node
    matcher tries no other host node.  A wire pattern matches no node,
    so every one of its sites qualifies.
    """
    out = _matches(n, rule_id, direction, nodes, n.wires, range(len(n.loops)))
    out.sort(key=RuleInstance.site_key)
    return out


def _matches(
    n: Netlist,
    rule_id: str,
    direction: str,
    nodes: Iterable[int],
    sinks: Iterable[Sink],
    loops: Iterable[int],
) -> list[RuleInstance]:
    """match_at's sites, unsorted, with a wire pattern's wires among those
    into the given sinks and its loops among the given loop indices."""
    pat = _compile(rule_id, direction)
    if pat.invents_words:
        return []
    if pat.nodes:
        return [RuleInstance(rule_id, direction, m, b) for m, b in _node_matches(n, pat, nodes)]
    return [RuleInstance(rule_id, direction, {}, {}, *c) for c in _wire_matches(n, pat, sinks, loops)]


def _node_matches(n: Netlist, pat: _Pattern, nodes: Iterable[int]) -> list[tuple[dict, dict]]:
    """Each injective embedding of the pattern's nodes into the given host
    nodes that keeps its internal wires, with each binding of its words.
    A wire is checked once both of its nodes are placed, by the source its
    sink reads: the matcher reads no wire backwards."""
    by_kind: dict[str, list[int]] = {}
    for hn in sorted(nodes):
        by_kind.setdefault(n.nodes[hn].kind, []).append(hn)
    out: list[tuple[dict, dict]] = []

    def extend(i: int, node_map: dict[int, int], binding: dict[str, Word]) -> None:
        if i == len(pat.nodes):
            out.append((node_map, binding))
            return
        for hn in by_kind.get(pat.nodes[i].kind, ()):
            if hn in node_map.values():
                continue
            placed = {**node_map, i: hn}
            if all(
                n.wires.get(("nin", placed[snk[1]], snk[2])) == ("nout", placed[src[1]], src[2])
                for snk, src in pat.internal_at[i]
            ):
                for b2 in _match_word(pat.nodes[i].word, n.nodes[hn].word, binding):
                    extend(i + 1, placed, b2)

    extend(0, {}, {})
    return out


def _wire_matches(n: Netlist, pat: _Pattern, sinks: Iterable[Sink], loop_ids: Iterable[int]) -> list:
    """Every choice of distinct colour-matched host wires into the given
    sinks, or loops among the given indices, for the pattern's pass-through
    wires, each with every choice of distinct such loops for its loops."""
    wires: dict[Colour, list] = {}
    for snk in sinks:
        wires.setdefault(n.sink_colour(snk), []).append(("wire", snk, n.wires[snk]))
    loops: dict[Colour, list[int]] = {}
    for i in loop_ids:
        loops.setdefault(n.loops[i], []).append(i)
    pt_candidates = [
        wires.get(col, []) + [("loop", i) for i in loops.get(col, [])]
        for _, _, col in pat.passthrough
    ]
    out: list[tuple[list, list]] = []
    for pt_choice in itertools.product(*pt_candidates):
        if len(set(pt_choice)) != len(pt_choice):
            continue
        taken_loops = [c[1] for c in pt_choice if c[0] == "loop"]
        for loop_choice in itertools.product(*(loops.get(col, []) for col in pat.loops)):
            pool = taken_loops + list(loop_choice)
            if len(set(pool)) == len(pool):
                out.append((list(pt_choice), list(loop_choice)))
    return out


def _legs(n: Netlist, pat: _Pattern, inst: RuleInstance) -> tuple[list, list]:
    """Where the site meets n: the source each input slot reads and the
    sink each output slot feeds, ("loopend", i) at a matched loop i.  An
    out-leg of a matched node is one search of the wires, which hashes
    nothing; no other code here finds the sink a port feeds."""
    in_legs: list = [None] * len(pat.in_type)
    out_legs: list = [None] * len(pat.out_type)
    for i, snk in pat.bound_in:
        in_legs[i] = n.wires[("nin", inst.node_map[snk[1]], snk[2])]
    for j, src in pat.bound_out:
        port = ("nout", inst.node_map[src[1]], src[2])
        out_legs[j] = next(itertools.islice(n.wires, operator.indexOf(n.wires.values(), port), None))
    for (i, j, _), choice in zip(pat.passthrough, inst.wire_choices):
        if choice[0] == "wire":
            in_legs[i], out_legs[j] = choice[2], choice[1]
        else:
            in_legs[i] = out_legs[j] = ("loopend", choice[1])
    return in_legs, out_legs


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------

def apply(n: Netlist, inst: RuleInstance) -> Netlist:
    """Rewrite at the site, returning a new netlist whose new boxes are
    numbered from ``max(n.nodes) + 1``.  Re-matches first, on the site's
    own nodes, wires and loops, and raises StaleInstance unless the
    matcher finds the site there on n as it stands."""
    nodes = inst.node_map.values()
    sinks = [c[1] for c in inst.wire_choices if c[0] == "wire" and c[1] in n.wires]
    loops = [i for i in range(len(n.loops)) if i in inst.loop_choices or ("loop", i) in inst.wire_choices]
    if inst not in _matches(n, inst.rule, inst.direction, n.nodes.keys() & nodes, sinks, loops):
        raise StaleInstance(f"{inst.rule} {inst.direction} no longer matches at nodes {sorted(nodes)}")
    out = Netlist(n.in_type, n.out_type, dict(n.nodes), dict(n.wires), n.loops)
    splice(out, inst, max(n.nodes, default=-1) + 1)
    return out


def splice(n: Netlist, inst: RuleInstance, base: int) -> range:
    """Rewrite n in place at a site matched on n as it stands, unchecked
    (apply checks), onto the legs it reads off n; returns the new boxes'
    ids, numbered from ``base``.  Raises ValueError, leaving n as it was,
    if any of those ids is taken."""
    pat = _compile(inst.rule, inst.direction)
    new_ids = range(base, base + len(pat.rep.nodes))
    if any(k in n.nodes for k in new_ids):
        raise ValueError(f"node ids from {base} are taken")
    in_legs, out_legs = _legs(n, pat, inst)

    # the wires into the matched nodes go; every other wire the site
    # takes ends at an out-leg, which the splice rewrites
    for hn in inst.node_map.values():
        for snk in n.node_sinks(hn):
            del n.wires[snk]
        del n.nodes[hn]
    for k, box in pat.rep.nodes.items():
        n.nodes[base + k] = substitute(box, inst.bindings)

    # back[i] = j: the host runs output slot j straight into input slot i,
    # through a matched loop or a wire from one site port to another
    site_out = {("nout", inst.node_map[src[1]], src[2]): j for j, src in pat.bound_out}
    back = {i: j for i, j, _ in pat.passthrough if in_legs[i][0] == "loopend"}
    back.update((i, site_out[leg]) for i, leg in enumerate(in_legs) if leg in site_out)
    fed = set(back.values())
    unreached = set(fed)

    def source(src: Source) -> Source:
        while src[0] == "bin" and src[1] in back:
            unreached.discard(back[src[1]])
            src = pat.rep.wires[("bout", back[src[1]])]
        if src[0] == "nout":
            return ("nout", base + src[1], src[2])
        leg = in_legs[src[1]]
        if leg[0] == "loopend" or (leg[0] == "nout" and leg[1] in inst.node_map.values()):
            raise AssertionError(f"splice under {inst.rule} ran into the site's port {leg}")
        return leg

    for snk, src in pat.rep.wires.items():
        if snk[0] == "nin":
            n.wires[("nin", base + snk[1], snk[2])] = source(src)
        elif snk[1] not in fed:
            n.wires[out_legs[snk[1]]] = source(src)

    consumed = {c[1] for c in inst.wire_choices if c[0] == "loop"} | set(inst.loop_choices)
    new_loops = [c for k, c in enumerate(n.loops) if k not in consumed] + list(pat.rep.loops)
    # a chain of fed-back slots that no wire reaches closes on itself
    while unreached:
        j = unreached.pop()
        new_loops.append(pat.out_type[j])
        while (j := back[pat.rep.wires[("bout", j)][1]]) in unreached:
            unreached.remove(j)

    n.loops = tuple(sorted(new_loops, key=lambda c: c.value))
    return new_ids


# ---------------------------------------------------------------------------
# soundness
# ---------------------------------------------------------------------------

def check_soundness(rule_id: str) -> bool:
    """Whether the rule's sides act alike under every instantiation of
    their word variables: one comparison of the sides' tables, each
    variable read as one more letter.

    Routing never depends on words and a row's word concatenates the
    crossed gates' words, so instantiation maps rows by a monoid
    homomorphism and equal tables stay equal.  Unequal tables stay
    unequal when each variable becomes its own block of fresh letters,
    an injective instantiation.  The boundary types are compared first.
    """
    rule = RULES[rule_id]
    left, right = (semantics_table(to_netlist(side)) for side in (rule.lhs, rule.rhs))
    return tables_equal(left, right)


# ---------------------------------------------------------------------------
# replaying derived rules from axioms
# ---------------------------------------------------------------------------

# Each chain rewrites the left side of the target into its right side.
# Earlier entries may be used as single steps by later ones.
_CHAINS: dict[str, list[tuple[str, str]]] = {
    "DER18": [("AX2", "R2L")],
    "DER19": [
        ("AX8", "R2L"),
        ("AX3", "R2L"),
        ("AX2", "R2L"),
        ("AX3", "L2R"),
        ("AX3", "L2R"),
        ("AX8", "L2R"),
    ],
    "DER20": [
        ("AX9", "R2L"),
        ("AX5", "L2R"),
        ("AX2", "R2L"),
        ("DER19", "L2R"),
        ("AX5", "R2L"),
        ("AX5", "R2L"),
        ("AX9", "L2R"),
    ],
    "DER21": [("AX10", "R2L"), ("AX5", "R2L")],
    "DER22": [("DER21", "L2R"), ("AX12", "R2L"), ("AX11", "R2L")],
    "DER23": [("AX7", "R2L"), ("AX3", "L2R"), ("DER21", "L2R")],
    "DER24": [("AX8", "R2L"), ("AX3", "R2L"), ("DER21", "L2R")],
    "APPE25": [
        ("AX9", "R2L"),
        ("AX4", "L2R"),
        ("APPE30", "L2R"),
        ("AX7", "L2R"),
        ("AX8", "L2R"),
        ("AX9", "L2R"),
    ],
    "APPE26": [("AX1", "R2L"), ("AX6", "L2R")],
    "APPE27": [("AX8", "R2L"), ("AX7", "L2R"), ("APPE26", "L2R")],
    "APPE28": [("AX9", "R2L"), ("AX10", "L2R"), ("APPE27", "L2R"), ("APPE26", "L2R")],
    "APPE29": [
        ("AX9", "R2L"),
        ("AX4", "L2R"),
        ("APPE38", "L2R"),
        ("AX7", "L2R"),
        ("APPE26", "L2R"),
    ],
    "APPE30": [("AX11", "L2R"), ("AX4", "L2R"), ("AX11", "L2R")],
    "APPE31": [("AX9", "R2L"), ("AX4", "L2R"), ("APPE38", "L2R"), ("AX12", "R2L")],
    "APPE32": [("AX12", "L2R"), ("APPE31", "L2R"), ("AX12", "L2R")],
    "APPE33": [("AX8", "R2L"), ("APPE30", "R2L")],
    "APPE34": [("AX7", "R2L"), ("AX4", "R2L")],
    "APPE35": [("AX8", "R2L"), ("APPE32", "R2L")],
    "APPE36": [("AX7", "R2L"), ("APPE31", "R2L")],
    "APPE37": [("AX17", "R2L")],
    "APPE38": [("AX11", "L2R"), ("AX10", "L2R")],
}


def replay_derivation(target: str) -> list[ProofStep]:
    """Derive a DER/APPE rule from more primitive ones, step by step.

    Instantiates the rule's left side with fresh letters, applies the
    recorded chain (searching over candidate sites at each step), and
    checks the result is the instantiated right side up to wire-level
    isomorphism.  Raises DerivationFailed otherwise.
    """
    if target not in _CHAINS:
        raise DerivationFailed(f"{target} has no recorded derivation chain")
    rule = RULES[target]
    vs = {**word_vars(rule.lhs), **word_vars(rule.rhs)}
    binding = {
        nm: tuple(f"k{i}{j}" for j in range(v.exact or max(v.min_len, 1)))
        for i, (nm, v) in enumerate(sorted(vs.items()))
    }
    start = to_netlist(substitute(rule.lhs, binding))
    goal = to_netlist(substitute(rule.rhs, binding))
    chain = _CHAINS[target]

    def dfs(net: Netlist, k: int, steps: list[ProofStep]) -> list[ProofStep] | None:
        if k == len(chain):
            return steps if netlists_isomorphic(net, goal) else None
        rid, direction = chain[k]
        for inst in find_matches(net, rid, direction):
            found = dfs(
                apply(net, inst),
                k + 1,
                steps + [ProofStep(rid, direction, inst.site_hash)],
            )
            if found is not None:
                return found
        return None

    result = dfs(start, 0, [])
    if result is None:
        raise DerivationFailed(f"chain for {target} did not reach its right side")
    return result
