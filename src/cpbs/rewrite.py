"""Matching and applying rewrite rules on netlists.

A rule side compiles to a pattern: nodes to embed injectively, wires
between them that must be present verbatim, boundary attachments that
become the legs of the match, pass-through wires (a rule side that is
just a wire) and bare loops.  Applying a match removes the matched
region and splices the instantiated other side into the legs with a
union-find over wire endpoints; endpoint chains that close up with no
remaining real port become bare loops.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
from dataclasses import dataclass, field

from .errors import DerivationFailed, StaleInstance
from .netlist import Netlist, Node, UnionFind, netlists_isomorphic, to_netlist
from .rules import RULES, Rule, WVar, substitute, word_vars
from .semantics import semantics_table, tables_equal
from .terms import Colour, Term, Word, type_of

Sink = tuple
Source = tuple


# ---------------------------------------------------------------------------
# pattern compilation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Pattern:
    in_type: tuple[Colour, ...]
    out_type: tuple[Colour, ...]
    nodes: dict[int, Node]
    node_order: tuple[int, ...]
    internal: tuple[tuple[Sink, Source], ...]
    bound_in: tuple[tuple[int, Sink], ...]      # (bin index, pattern node sink)
    bound_out: tuple[tuple[int, Source], ...]   # (bout index, pattern node source)
    passthrough: tuple[tuple[int, int, Colour], ...]  # (bin, bout, colour)
    loops: tuple[Colour, ...]


@functools.cache
def _compile(rule_id: str, direction: str) -> _Pattern:
    """The pattern of the rule side matched in this direction.

    Rule sides are constants, so each (rule, direction) is compiled once
    per process; the shared pattern is read-only.
    """
    n = to_netlist(_sides(RULES[rule_id], direction)[0])
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
    return _Pattern(
        n.in_type,
        n.out_type,
        n.nodes,
        tuple(sorted(n.nodes)),
        tuple(internal),
        tuple(sorted(bound_in)),
        tuple(sorted(bound_out)),
        tuple(sorted(passthrough)),
        n.loops,
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
    """All sites where the rule applies, in a deterministic order."""
    pat_term, rep_term = _sides(RULES[rule_id], direction)
    if not set(word_vars(rep_term)) <= set(word_vars(pat_term)):
        return []  # the replacement would need words the match cannot supply
    pat = _compile(rule_id, direction)
    rev = n.sink_of()

    complete: list[tuple[dict[int, int], dict[str, Word]]] = []

    def backtrack(i: int, node_map: dict[int, int], binding: dict[str, Word]) -> None:
        if i == len(pat.node_order):
            complete.append((node_map, binding))
            return
        pn = pat.node_order[i]
        pnode = pat.nodes[pn]
        for hn in sorted(n.nodes):
            if hn in node_map.values():
                continue
            if n.nodes[hn].kind != pnode.kind:
                continue
            for b2 in _match_word(pnode.word, n.nodes[hn].word, binding):
                ok = True
                for snk, src in pat.internal:
                    pn_snk, pn_src = snk[1], src[1]
                    m2 = {**node_map, pn: hn}
                    if pn_snk in m2 and pn_src in m2:
                        if n.wires.get(("nin", m2[pn_snk], snk[2])) != (
                            "nout",
                            m2[pn_src],
                            src[2],
                        ):
                            ok = False
                            break
                if ok:
                    backtrack(i + 1, {**node_map, pn: hn}, b2)

    backtrack(0, {}, {})

    out: list[RuleInstance] = []
    seen: set = set()
    for node_map, binding in complete:
        mapped = set(node_map.values())
        node_incident = {
            snk
            for snk, src in n.wires.items()
            if (snk[0] == "nin" and snk[1] in mapped) or (src[0] == "nout" and src[1] in mapped)
        }
        # candidate host wires for each pass-through, colour-matched and
        # disjoint from the wires consumed by the node embedding
        pt_candidates: list[list] = []
        for (_, _, col) in pat.passthrough:
            cands: list = [
                ("wire", snk, src)
                for snk, src in sorted(n.wires.items())
                if snk not in node_incident and n.sink_colour(snk) == col
            ]
            cands.extend(("loop", i) for i, c in enumerate(n.loops) if c == col)
            pt_candidates.append(cands)
        loop_candidates: list[list[int]] = [
            [i for i, c in enumerate(n.loops) if c == col] for col in pat.loops
        ]
        for pt_choice in itertools.product(*pt_candidates):
            if len(set(pt_choice)) != len(pt_choice):
                continue
            taken_loops = {c[1] for c in pt_choice if c[0] == "loop"}
            for loop_choice in itertools.product(*loop_candidates):
                pool = list(taken_loops) + list(loop_choice)
                if len(set(pool)) != len(pool):
                    continue
                inst = RuleInstance(rule_id, direction, dict(node_map), {}, dict(binding))
                inst.node_words = {hn: n.nodes[hn].word for hn in mapped}
                inst.loop_choices = list(loop_choice)
                inst.wire_choices = list(pt_choice)
                in_legs: dict[int, object] = {}
                out_legs: dict[int, object] = {}
                for i, snk in pat.bound_in:
                    in_legs[i] = n.wires[("nin", node_map[snk[1]], snk[2])]
                for j, src in pat.bound_out:
                    out_legs[j] = rev[("nout", node_map[src[1]], src[2])]
                for (i, j, _), choice in zip(pat.passthrough, pt_choice):
                    if choice[0] == "wire":
                        in_legs[i] = choice[2]
                        out_legs[j] = choice[1]
                    else:
                        in_legs[i] = ("loopend", choice[1])
                        out_legs[j] = ("loopend", choice[1])
                inst.in_legs = [in_legs[i] for i in range(len(pat.in_type))]
                inst.out_legs = [out_legs[j] for j in range(len(pat.out_type))]
                key = (
                    frozenset(mapped),
                    tuple(inst.in_legs),
                    tuple(inst.out_legs),
                    tuple(sorted(binding.items())),
                    tuple(pt_choice),
                    tuple(loop_choice),
                )
                if key in seen:
                    continue
                seen.add(key)
                out.append(inst)
    out.sort(key=lambda m: m.site_key())
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
    rev = n.sink_of()
    for j, src in pat.bound_out:
        if rev.get(("nout", inst.node_map[src[1]], src[2])) != inst.out_legs[j]:
            raise StaleInstance("output leg changed")

    # --- instantiate the replacement side
    rep = to_netlist(substitute(rep_term, inst.bindings))
    removed = set(inst.node_map.values())
    base = max(n.nodes, default=-1) + 1
    rename = {old: base + i for i, old in enumerate(sorted(rep.nodes))}

    def ren_src(src: Source):
        if src[0] == "bin":
            return ("IN", src[1])
        return ("nout", rename[src[1]], src[2])

    def ren_snk(snk: Sink):
        if snk[0] == "bout":
            return ("OUT", snk[1])
        return ("nin", rename[snk[1]], snk[2])

    internal_host = {
        ("nin", inst.node_map[snk[1]], snk[2]) for snk, _ in pat.internal
    }
    pt_wires = {c[1] for c in inst.wire_choices if c[0] == "wire"}
    consumed_loops = sorted(
        {c[1] for c in inst.wire_choices if c[0] == "loop"} | set(inst.loop_choices),
        reverse=True,
    )

    uf = UnionFind()
    colour_hint: dict = {}
    new_wires = dict(n.wires)
    for snk, src in n.wires.items():
        incident = (snk[0] == "nin" and snk[1] in removed) or (
            src[0] == "nout" and src[1] in removed
        )
        if snk in pt_wires:
            del new_wires[snk]
        elif incident:
            del new_wires[snk]
            if snk not in internal_host:
                # a wire crossing the boundary of the site persists as a
                # connection between whatever it linked
                uf.union(snk, src)
                colour_hint[snk] = n.sink_colour(snk)
    for i, leg in enumerate(inst.in_legs):
        uf.union(("IN", i), leg)
        colour_hint[("IN", i)] = pat.in_type[i]
    for j, leg in enumerate(inst.out_legs):
        uf.union(("OUT", j), leg)
        colour_hint[("OUT", j)] = pat.out_type[j]
    for snk, src in rep.wires.items():
        uf.union(ren_snk(snk), ren_src(src))

    new_nodes = {hn: node for hn, node in n.nodes.items() if hn not in removed}
    for old, node in rep.nodes.items():
        new_nodes[rename[old]] = node

    def is_real_source(x) -> bool:
        return x[0] == "bin" or (x[0] == "nout" and x[1] in new_nodes)

    def is_real_sink(x) -> bool:
        return x[0] == "bout" or (x[0] == "nin" and x[1] in new_nodes)

    new_loops = list(n.loops)
    for i in consumed_loops:
        del new_loops[i]
    new_loops.extend(rep.loops)

    for members in uf.classes().values():
        srcs = [m for m in members if is_real_source(m)]
        snks = [m for m in members if is_real_sink(m)]
        assert len(srcs) <= 1 and len(snks) <= 1, f"splice broke a wire: {members}"
        if srcs and snks:
            new_wires[snks[0]] = srcs[0]
        elif not srcs and not snks:
            col = next(colour_hint[m] for m in members if m in colour_hint)
            new_loops.append(col)
        else:
            raise AssertionError(f"dangling splice: {members}")

    return Netlist(
        n.in_type,
        n.out_type,
        new_nodes,
        new_wires,
        tuple(sorted(new_loops, key=lambda c: c.value)),
    )


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
