"""Eulerian cycle decompositions and the PBS-count correspondence.

Orienting an Eulerian graph turns it into a one-wire-per-edge diagram
whose table records tails on one polarisation and heads on the other.
Any cycle decomposition with r cycles realises that same table with
2(|edges| - r) beam splitters, so maximising r minimises the PBS count
of the construction; exact MAX-ECD is provided by brute force at desk
scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import (
    BudgetExceeded,
    InvalidDecomposition,
    LengthMismatch,
    NotEulerian,
)
from .semantics import SemanticsTable, _certify
from .stairs import Staircase
from .terms import Colour, Empty, Term, Word, count_pbs, gate_t, ident, neg_t, par, permute, seq

T, V, H = Colour.T, Colour.V, Colour.H

Arc = tuple[int, str, str]  # (edge index, tail, head)


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EulerianGraph:
    vertices: frozenset[str]
    edges: tuple[tuple[str, str], ...]  # unordered pairs, input order kept

    def __post_init__(self) -> None:
        degree: dict[str, int] = {}
        for u, v in self.edges:
            if u not in self.vertices or v not in self.vertices:
                raise NotEulerian(f"edge ({u}, {v}) uses an unknown vertex")
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        for v, d in degree.items():
            if d % 2:
                raise NotEulerian(f"vertex {v} has odd degree {d}")
        if self.edges:
            incidence = _incidence(self)
            root = self.edges[0][0]
            reached = {root}
            frontier = [root]
            while frontier:
                for _, b in incidence[frontier.pop()]:
                    if b not in reached:
                        reached.add(b)
                        frontier.append(b)
            if not reached >= set(degree):
                raise NotEulerian("graph is disconnected on its non-isolated vertices")

    @property
    def n(self) -> int:
        return len(self.edges)


def parse_graph(text: str) -> EulerianGraph:
    """Edge-list format: one `u v` pair per line, `#` starts a comment."""
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise SyntaxError(f"line {lineno}: expected `u v`, got {line!r}")
        edges.append((parts[0], parts[1]))
    vertices = frozenset(x for e in edges for x in e)
    return EulerianGraph(vertices, tuple(edges))


# ---------------------------------------------------------------------------
# orientation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Orientation:
    arcs: tuple[tuple[str, str], ...]  # (tail, head) per edge, input order
    w: Word  # tails
    sigma: tuple[int, ...]  # head(e_p) = tail(e_sigma(p))


def _incidence(g: EulerianGraph) -> dict[str, list[tuple[int, str]]]:
    """(edge index, other end) of each edge at each vertex, in fresh lists."""
    incidence: dict[str, list[tuple[int, str]]] = {}
    for i, (u, v) in enumerate(g.edges):
        incidence.setdefault(u, []).append((i, v))
        if u != v:
            incidence.setdefault(v, []).append((i, u))
    return incidence


def orient_eulerian(g: EulerianGraph, seed: int = 0) -> Orientation:
    """Direct the edges along a seeded Eulerian circuit.

    The circuit's successor relation gives sigma; every vertex ends up
    with equal in- and out-degree.
    """
    if not g.edges:
        return Orientation((), (), ())
    rng = random.Random(seed)
    incidence = _incidence(g)
    for lst in incidence.values():
        rng.shuffle(lst)

    used = [False] * len(g.edges)
    start = rng.choice(sorted(incidence))
    stack: list[tuple[str, Arc | None]] = [(start, None)]
    circuit: list[Arc] = []
    while stack:
        x, via = stack[-1]
        nxt = None
        for i, y in incidence[x]:
            if not used[i]:
                nxt = (i, y)
                break
        if nxt is None:
            stack.pop()
            if via is not None:
                circuit.append(via)
        else:
            i, y = nxt
            used[i] = True
            stack.append((y, (i, x, y)))
    # a circuit is a one-cycle decomposition: each edge once, each head the next tail
    dec = CycleDecomposition((tuple(reversed(circuit)),))
    _check_decomposition(g, dec)
    return _along(g, dec.cycles)


def _along(g: EulerianGraph, cycles: tuple[tuple[Arc, ...], ...]) -> Orientation:
    """The orientation running each edge as its cycle does, sigma the cycle successor."""
    arcs: list[tuple[str, str]] = [("", "")] * g.n
    sigma = [0] * g.n
    for cycle in cycles:
        for j, (i, tail, head) in enumerate(cycle):
            arcs[i] = (tail, head)
            sigma[i] = cycle[(j + 1) % len(cycle)][0]
    return Orientation(tuple(arcs), tuple(tail for tail, _ in arcs), tuple(sigma))


# ---------------------------------------------------------------------------
# the reduction diagrams
# ---------------------------------------------------------------------------

def _inverse(perm: list[int] | tuple[int, ...]) -> tuple[int, ...]:
    """The permutation sending perm[p] back to p."""
    out = [0] * len(perm)
    for p, q in enumerate(perm):
        out[q] = p
    return tuple(out)


def _router(sigma: tuple[int, ...]) -> Term:
    """Negation-free all-black stair router: ⇕ fixed, ⇔ sent p -> sigma(p).

    One black ladder per cycle of sigma, wires routed into descending
    cycle order so the ladder's rotation realises the successor map.
    """
    n = len(sigma)
    slot = [0] * n
    ladders: list[Term] = []
    offset = 0
    seen: set[int] = set()
    for p0 in range(n):
        if p0 in seen:
            continue
        cycle = [p0]
        while sigma[cycle[-1]] != p0:
            cycle.append(sigma[cycle[-1]])
        seen.update(cycle)
        for i, p in enumerate(cycle):
            slot[p] = offset + len(cycle) - 1 - i
        ladders.append(Staircase("black_ladder", len(cycle) - 1).as_term())
        offset += len(cycle)
    return seq(*permute([T] * n, slot), par(*ladders), *permute([T] * n, _inverse(slot)))


def build_C_w_sigma(w: Word, sigma: tuple[int, ...]) -> Term:
    """Router, one black gate per wire, inverse router.

    Its table reads tails on ⇕ and heads on ⇔: (⇕,p) collects w_p and
    (⇔,p) collects w_sigma(p), both returning to position p.
    """
    if len(w) != len(sigma):
        raise LengthMismatch(f"{len(w)} letters for {len(sigma)} positions")
    if sorted(sigma) != list(range(len(sigma))):
        raise LengthMismatch(f"{sigma!r} is not a permutation")
    if not w:
        return Empty()
    gates = par(*(gate_t((u,)) for u in w))
    return seq(_router(sigma), gates, _router(_inverse(sigma)))


# ---------------------------------------------------------------------------
# cycle decompositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CycleDecomposition:
    cycles: tuple[tuple[Arc, ...], ...]

    @property
    def r(self) -> int:
        return len(self.cycles)


def _check_decomposition(g: EulerianGraph, dec: CycleDecomposition) -> None:
    seen: list[int] = []
    for cycle in dec.cycles:
        if not cycle:
            raise InvalidDecomposition("empty cycle")
        for j, (i, tail, head) in enumerate(cycle):
            if not 0 <= i < g.n or {tail, head} != set(g.edges[i]):
                raise InvalidDecomposition(f"arc {cycle[j]!r} does not match edge {i}")
            nxt = cycle[(j + 1) % len(cycle)]
            if head != nxt[1]:
                raise InvalidDecomposition(f"cycle breaks between {cycle[j]!r} and {nxt!r}")
            seen.append(i)
    if sorted(seen) != list(range(g.n)):
        raise InvalidDecomposition("cycles do not cover each edge exactly once")


def max_ecd_bruteforce(g: EulerianGraph) -> CycleDecomposition:
    """Exact maximum edge-partition into cycles, exponential in |edges|.

    The first edge of each cycle is traversed in input direction, which
    halves the search; results are memoised on the used-edge set.

    Every graph tried at the 10-edge cap answers in under 2 ms.  Without
    it, on a 2-vCPU machine, bouquets of parallel edges took 0.29 s at
    20 edges and 1.6 s at 24 (about 3x per two edges), K7 (21 edges)
    0.46 s, and K9 (36 edges) did not finish in 20 s.
    """
    if g.n > 10:
        raise BudgetExceeded(f"{g.n} edges exceed the 10-edge brute-force budget")
    incidence = _incidence(g)

    def cycles_from(e0: int, used: frozenset[int]) -> list[tuple[Arc, ...]]:
        u0, v0 = g.edges[e0]
        found: list[tuple[Arc, ...]] = []

        def extend(path: list[Arc], x: str, seen_vertices: set[str]) -> None:
            if x == u0:
                found.append(tuple(path))
                return
            for i, y in sorted(incidence[x]):
                if i in used or any(i == a[0] for a in path):
                    continue
                if y != u0 and (y in seen_vertices or y == x):
                    continue
                path.append((i, x, y))
                extend(path, y, seen_vertices | {x})
                path.pop()

        extend([(e0, u0, v0)], v0, {u0} if u0 != v0 else set())
        return found

    memo: dict[frozenset[int], tuple[tuple[Arc, ...], ...]] = {}

    def best(used: frozenset[int]) -> tuple[tuple[Arc, ...], ...]:
        if len(used) == g.n:
            return ()
        if used in memo:
            return memo[used]
        e0 = min(i for i in range(g.n) if i not in used)
        candidates = ((c,) + best(used | {a[0] for a in c}) for c in cycles_from(e0, used))
        # the first of the longest; an even-degree leftover always decomposes
        memo[used] = max(candidates, key=len)
        return memo[used]

    return CycleDecomposition(best(frozenset()))


def corpus() -> dict[str, EulerianGraph]:
    """The fixed lab instances: cycles, doubled edges, self-loops, K5."""
    texts = {
        "triangle": "A B\nB C\nC A",
        "bowtie": "A B\nB C\nC A\nC D\nD E\nE C",
        "self_loop": "A A",
        "two_self_loops": "A A\nA A",
        "doubled_edge": "A B\nA B",
        "square": "A B\nB C\nC D\nD A",
        "two_four_cycles": "A B\nB C\nC D\nD A\nA C\nC B\nB D\nD A",
        "figure_eight": "X A\nA B\nB C\nC X\nX D\nD E\nE F\nF X",
        "k5": "\n".join(f"{a} {b}" for i, a in enumerate("ABCDE") for b in "ABCDE"[i + 1 :]),
        "doubled_triangle": "A B\nA B\nB C\nB C\nC A\nC A",
        "loop_plus_triangle": "A A\nA B\nB C\nC A",
        "doubled_path": "A B\nA B\nB C\nB C",
    }
    return {name: parse_graph(text) for name, text in texts.items()}


def diagram_from_decomposition(g: EulerianGraph, dec: CycleDecomposition) -> Term:
    """Per-cycle ladder sandwich realising the reference table.

    Edges directed against the seed-0 reference orientation carry a
    negation at both boundaries, swapping which polarisation reads the
    tail.  The result has 2(|edges| - r) PBS; its table is certified to be
    the one build_C_w_sigma states for the reference orientation.
    """
    _check_decomposition(g, dec)
    ref = orient_eulerian(g, seed=0)
    if not g.edges:
        return Empty()
    o = _along(g, dec.cycles)
    negs = par(*(ident(T) if arc == ref_arc else neg_t() for arc, ref_arc in zip(o.arcs, ref.arcs)))
    out = seq(negs, build_C_w_sigma(o.w, o.sigma), negs)
    if count_pbs(out) != 2 * (g.n - dec.r):
        raise AssertionError("reduction diagram misses 2(|edges| - r) PBS")
    # the table build_C_w_sigma states for the reference orientation, not a
    # second drawing by the same router: (V,p) reads w_p, (H,p) w_sigma(p)
    rows = {(V, p): ((V, p), (u,)) for p, u in enumerate(ref.w)}
    rows.update(((H, p), ((H, p), (ref.w[q],))) for p, q in enumerate(ref.sigma))
    ref_table = SemanticsTable((T,) * g.n, (T,) * g.n, rows)
    _certify(out, ref_table, "reduction diagram changes the reference table")
    return out
