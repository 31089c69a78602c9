"""Matching and applying rewrite rules on netlists.

A rule side compiles to one of two patterns, never a mix.  A node
pattern has nodes to embed injectively, wires between them that must
be present verbatim, and boundary attachments that become the legs of
the match.  A wire pattern has no node, only pass-through wires and
bare loops, each matched by a distinct host wire or loop of its colour;
an empty side (the STRUCT rules) matches once.  Applying a match
removes the matched nodes and writes the instantiated other side's
wires onto the legs: input slot i reads in_legs[i], output slot j feeds
out_legs[j].  Where the host runs output j straight back into input i,
the splice follows the replacement's wire into j; a chain of such
slots that closes up becomes a bare loop.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
from dataclasses import dataclass, field

from .errors import DerivationFailed, StaleInstance
from .netlist import Netlist, netlists_isomorphic, to_netlist
from .rules import RULES, Rule, WVar, substitute, word_vars
from .semantics import semantics_table, tables_equal
from .terms import Colour, Gen, Term, Word, type_of

Sink = tuple
Source = tuple


# ---------------------------------------------------------------------------
# pattern compilation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Pattern:
    in_type: tuple[Colour, ...]
    out_type: tuple[Colour, ...]
    nodes: dict[int, Gen]
    node_order: tuple[int, ...]
    internal: tuple[tuple[Sink, Source], ...]
    internal_at: tuple[tuple[tuple[Sink, Source], ...], ...]  # closed by placing node_order[i]
    bound_in: tuple[tuple[int, Sink], ...]      # (bin index, pattern node sink)
    bound_out: tuple[tuple[int, Source], ...]   # (bout index, pattern node source)
    passthrough: tuple[tuple[int, int, Colour], ...]  # (bin, bout, colour)
    loops: tuple[Colour, ...]
    invents_words: bool  # the replacement needs words the match cannot supply


@functools.cache
def _compile(rule_id: str, direction: str) -> _Pattern:
    """The pattern of the rule side matched in this direction.

    Rule sides are constants, so each (rule, direction) is compiled once
    per process; the shared pattern is read-only.  Raises ValueError on
    a side that has both nodes and pass-through wires or loops.
    """
    pat_term, rep_term = _sides(RULES[rule_id], direction)
    n = to_netlist(pat_term)
    internal: list[tuple[Sink, Source]] = []
    bound_in: list[tuple[int, Sink]] = []
    bound_out: list[tuple[int, Source]] = []
    passthrough: list[tuple[int, int, Colour]] = []
    for snk, src in sorted(n.wires.items()):
        if snk[0] == "nin" and src[0] == "nout":
            internal.append((snk, src))
        elif snk[0] == "nin":
            bound_in.append((src[1], snk))
        elif src[0] == "nout":
            bound_out.append((snk[1], src))
        else:
            passthrough.append((src[1], snk[1], n.in_type[src[1]]))
    if n.nodes and (passthrough or n.loops):
        raise ValueError(f"{rule_id} {direction}: a rule side mixes nodes with bare wires or loops")
    order = tuple(sorted(n.nodes))
    return _Pattern(
        n.in_type,
        n.out_type,
        n.nodes,
        order,
        tuple(internal),
        tuple(
            tuple(w for w in internal if max(order.index(w[0][1]), order.index(w[1][1])) == i)
            for i in range(len(order))
        ),
        tuple(sorted(bound_in)),
        tuple(sorted(bound_out)),
        tuple(sorted(passthrough)),
        n.loops,
        not set(word_vars(rep_term)) <= set(word_vars(pat_term)),
    )


# ---------------------------------------------------------------------------
# word matching
# ---------------------------------------------------------------------------

def _match_word(pattern: Word, host: Word, binding: dict[str, Word]) -> list[dict[str, Word]]:
    """All bindings making the pattern word equal the host word.

    Splits are enumerated shortest-first per variable, so results are
    deterministically ordered.
    """
    if not pattern:
        return [dict(binding)] if not host else []
    head, rest = pattern[0], pattern[1:]
    if isinstance(head, str):
        if host and host[0] == head:
            return _match_word(rest, host[1:], binding)
        return []
    assert isinstance(head, WVar)
    if head.name in binding:
        bound = binding[head.name]
        if host[: len(bound)] == bound:
            return _match_word(rest, host[len(bound) :], binding)
        return []
    out: list[dict[str, Word]] = []
    lengths = [head.exact] if head.exact is not None else range(head.min_len, len(host) + 1)
    for k in lengths:
        if k > len(host):
            continue
        out.extend(_match_word(rest, host[k:], {**binding, head.name: host[:k]}))
    return out


# ---------------------------------------------------------------------------
# rule instances
# ---------------------------------------------------------------------------

@dataclass
class RuleInstance:
    rule: str
    direction: str
    node_map: dict[int, int] = field(default_factory=dict)
    node_words: dict[int, Word] = field(default_factory=dict)  # host words seen at match time
    bindings: dict[str, Word] = field(default_factory=dict)
    in_legs: list = field(default_factory=list)
    out_legs: list = field(default_factory=list)
    wire_choices: list = field(default_factory=list)  # per pass-through: ("wire", snk, src) | ("loop", i)
    loop_choices: list[int] = field(default_factory=list)

    def site_key(self) -> str:
        return repr(
            (
                self.rule,
                self.direction,
                sorted(self.node_map.items()),
                sorted(self.bindings.items()),
                self.in_legs,
                self.out_legs,
                self.wire_choices,
                self.loop_choices,
            )
        )

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
    pat = _compile(rule_id, direction)
    if pat.invents_words:
        return []
    out = (_node_matches if pat.nodes else _wire_matches)(n, pat, rule_id, direction)
    out.sort(key=RuleInstance.site_key)
    return out


def _node_matches(n: Netlist, pat: _Pattern, rule_id: str, direction: str) -> list[RuleInstance]:
    """Injective embeddings of the pattern's nodes that keep its internal wires.

    A wire is checked as soon as both of its nodes are placed; the legs
    are read from the ports of the matched nodes.
    """
    by_kind: dict[str, list[int]] = {}
    for hn in sorted(n.nodes):
        by_kind.setdefault(n.nodes[hn].kind, []).append(hn)
    rev = n.sink_of()
    out: list[RuleInstance] = []

    def extend(i: int, node_map: dict[int, int], binding: dict[str, Word]) -> None:
        if i == len(pat.node_order):
            out.append(RuleInstance(
                rule_id,
                direction,
                node_map,
                {hn: n.nodes[hn].word for hn in node_map.values()},
                binding,
                [n.wires[("nin", node_map[snk[1]], snk[2])] for _, snk in pat.bound_in],
                [rev[("nout", node_map[src[1]], src[2])] for _, src in pat.bound_out],
            ))
            return
        pn = pat.node_order[i]
        for hn in by_kind.get(pat.nodes[pn].kind, ()):
            if hn in node_map.values():
                continue
            placed = {**node_map, pn: hn}
            if all(
                n.wires.get(("nin", placed[snk[1]], snk[2])) == ("nout", placed[src[1]], src[2])
                for snk, src in pat.internal_at[i]
            ):
                for b2 in _match_word(pat.nodes[pn].word, n.nodes[hn].word, binding):
                    extend(i + 1, placed, b2)

    extend(0, {}, {})
    return out


def _wire_matches(n: Netlist, pat: _Pattern, rule_id: str, direction: str) -> list[RuleInstance]:
    """Every choice of distinct colour-matched host wires or loops for the
    pattern's pass-through wires, and of distinct loops for its loops."""
    wires: dict[Colour, list] = {}
    for snk, src in sorted(n.wires.items()):
        wires.setdefault(n.sink_colour(snk), []).append(("wire", snk, src))
    loops: dict[Colour, list[int]] = {}
    for i, col in enumerate(n.loops):
        loops.setdefault(col, []).append(i)
    pt_candidates = [
        wires.get(col, []) + [("loop", i) for i in loops.get(col, [])]
        for _, _, col in pat.passthrough
    ]
    out: list[RuleInstance] = []
    for pt_choice in itertools.product(*pt_candidates):
        if len(set(pt_choice)) != len(pt_choice):
            continue
        taken_loops = [c[1] for c in pt_choice if c[0] == "loop"]
        for loop_choice in itertools.product(*(loops.get(col, []) for col in pat.loops)):
            pool = taken_loops + list(loop_choice)
            if len(set(pool)) != len(pool):
                continue
            in_legs: list = [None] * len(pat.in_type)
            out_legs: list = [None] * len(pat.out_type)
            for (i, j, _), choice in zip(pat.passthrough, pt_choice):
                if choice[0] == "wire":
                    in_legs[i], out_legs[j] = choice[2], choice[1]
                else:
                    in_legs[i] = out_legs[j] = ("loopend", choice[1])
            out.append(RuleInstance(
                rule_id, direction, {}, {}, {}, in_legs, out_legs, list(pt_choice), list(loop_choice)
            ))
    return out


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------

def apply(n: Netlist, inst: RuleInstance) -> Netlist:
    """Rewrite at the matched site, returning a new netlist.

    Raises StaleInstance if the diagram changed since the match was
    found.
    """
    _, rep_term = _sides(RULES[inst.rule], inst.direction)
    pat = _compile(inst.rule, inst.direction)

    # --- revalidate the site
    for pn, hn in inst.node_map.items():
        if hn not in n.nodes or n.nodes[hn].kind != pat.nodes[pn].kind:
            raise StaleInstance(f"node {hn} changed under {inst.rule}")
        if n.nodes[hn].word != inst.node_words[hn]:
            raise StaleInstance(f"gate {hn} word changed under {inst.rule}")
    for snk, src in pat.internal:
        host_snk = ("nin", inst.node_map[snk[1]], snk[2])
        host_src = ("nout", inst.node_map[src[1]], src[2])
        if n.wires.get(host_snk) != host_src:
            raise StaleInstance(f"wire {host_snk} changed under {inst.rule}")
    for (_, _, col), choice in zip(pat.passthrough, inst.wire_choices):
        if choice[0] == "wire":
            if n.wires.get(choice[1]) != choice[2]:
                raise StaleInstance("matched wire is gone")
        elif choice[1] >= len(n.loops) or n.loops[choice[1]] != col:
            raise StaleInstance("matched loop is gone")
    for idx, col in zip(inst.loop_choices, pat.loops):
        if idx >= len(n.loops) or n.loops[idx] != col:
            raise StaleInstance("matched loop is gone")
    for i, snk in pat.bound_in:
        if n.wires.get(("nin", inst.node_map[snk[1]], snk[2])) != inst.in_legs[i]:
            raise StaleInstance("input leg changed")
    for j, src in pat.bound_out:
        if n.wires.get(inst.out_legs[j]) != ("nout", inst.node_map[src[1]], src[2]):
            raise StaleInstance("output leg changed")

    # --- splice the replacement onto the legs
    rep = to_netlist(substitute(rep_term, inst.bindings))
    base = max(n.nodes, default=-1) + 1
    new_nodes = dict(n.nodes)
    new_wires = dict(n.wires)
    # the wires into the matched nodes go; every other wire the site
    # takes ends at an out-leg, which the splice rewrites
    for hn in inst.node_map.values():
        del new_nodes[hn]
        for snk in n.node_sinks(hn):
            del new_wires[snk]
    for k, node in rep.nodes.items():
        new_nodes[base + k] = node

    # back[i] = j: the host runs output slot j straight into input slot i,
    # through a matched loop or a wire from one site port to another
    site_out = {("nout", inst.node_map[src[1]], src[2]): j for j, src in pat.bound_out}
    back = {i: j for i, j, _ in pat.passthrough if inst.in_legs[i][0] == "loopend"}
    back.update((i, site_out[leg]) for i, leg in enumerate(inst.in_legs) if leg in site_out)
    fed = set(back.values())
    unreached = set(fed)

    def source(src: Source) -> Source:
        while src[0] == "bin" and src[1] in back:
            unreached.discard(back[src[1]])
            src = rep.wires[("bout", back[src[1]])]
        if src[0] == "nout":
            return ("nout", base + src[1], src[2])
        leg = inst.in_legs[src[1]]
        if leg[0] == "loopend" or (leg[0] == "nout" and leg[1] in inst.node_map.values()):
            raise AssertionError(f"splice under {inst.rule} ran into the site's port {leg}")
        return leg

    for snk, src in rep.wires.items():
        if snk[0] == "nin":
            new_wires[("nin", base + snk[1], snk[2])] = source(src)
        elif snk[1] not in fed:
            new_wires[inst.out_legs[snk[1]]] = source(src)

    consumed = {c[1] for c in inst.wire_choices if c[0] == "loop"} | set(inst.loop_choices)
    new_loops = [c for k, c in enumerate(n.loops) if k not in consumed] + list(rep.loops)
    # a chain of fed-back slots that no wire reaches closes on itself
    while unreached:
        j = unreached.pop()
        new_loops.append(pat.out_type[j])
        while (j := back[rep.wires[("bout", j)][1]]) in unreached:
            unreached.remove(j)

    loops = tuple(sorted(new_loops, key=lambda c: c.value))
    return Netlist(n.in_type, n.out_type, new_nodes, new_wires, loops)


# ---------------------------------------------------------------------------
# soundness
# ---------------------------------------------------------------------------

def check_soundness(rule_id: str, samples: int = 5, seed: int = 0) -> bool:
    """Semantic equality of both rule sides under word instantiations.

    Tries a systematic set (fresh letters, shared letters, empty words
    where allowed) plus `samples` random instantiations.
    """
    rule = RULES[rule_id]
    vs = {**word_vars(rule.lhs), **word_vars(rule.rhs)}
    names = sorted(vs)

    def options(v: WVar, idx: int) -> list[Word]:
        if v.exact is not None:
            return [(f"q{idx}",)]
        base = [(f"q{idx}",), (f"q{idx}", f"r{idx}")]
        if v.min_len == 0:
            base.insert(0, ())
        return base

    candidates = [dict(zip(names, combo)) for combo in itertools.product(
        *(options(vs[nm], i) for i, nm in enumerate(names))
    )]
    if names:
        candidates.append({nm: ("s",) for nm in names})  # all variables share one letter
    rng = random.Random(seed)
    alphabet = ["U", "V", "W", "K"]
    for _ in range(samples):
        inst = {}
        for nm in names:
            v = vs[nm]
            k = v.exact if v.exact is not None else rng.randint(v.min_len, 3)
            inst[nm] = tuple(rng.choice(alphabet) for _ in range(k))
        candidates.append(inst)
    if not names:
        candidates = [{}]

    for binding in candidates:
        lhs = substitute(rule.lhs, binding)
        rhs = substitute(rule.rhs, binding)
        if type_of(lhs) != type_of(rhs):
            return False
        if not tables_equal(semantics_table(lhs), semantics_table(rhs)):
            return False
    return True


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
