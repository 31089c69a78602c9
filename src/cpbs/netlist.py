"""Wire-level form of a diagram.

A netlist forgets the syntactic bracketing of a term and keeps only
what is drawn: boxes (generator occurrences), wires between ports, and
closed loops carrying no box at all.  Identities, swaps, wire
permutations and traces dissolve into the wiring.

Ports are addressed by tuples.  Wire sources are ``("bin", i)`` (the
i-th diagram input) or ``("nout", n, k)`` (output k of node n); wire
sinks are ``("bout", j)`` or ``("nin", n, k)``.  The ``wires`` map
sends every sink to its unique source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .terms import (
    Colour,
    Empty,
    STRUCT_KINDS,
    Gen,
    Term,
    Trace,
    WireType,
    Word,
    _FIXED_TYPES,
    fold,
    identity_of,
    ident,
    layer,
    par,
    seq,
    swap,
    type_of,
)

Source = tuple
Sink = tuple


class Node(NamedTuple):
    kind: str
    word: Word = ()


def node_signature(node: Node) -> tuple[WireType, WireType]:
    return _FIXED_TYPES[node.kind]


@dataclass
class Netlist:
    in_type: WireType
    out_type: WireType
    nodes: dict[int, Node] = field(default_factory=dict)
    wires: dict[Sink, Source] = field(default_factory=dict)
    loops: tuple[Colour, ...] = ()

    def sink_of(self) -> dict[Source, Sink]:
        return {src: snk for snk, src in self.wires.items()}

    def source_colour(self, src: Source) -> Colour:
        if src[0] == "bin":
            return self.in_type[src[1]]
        return node_signature(self.nodes[src[1]])[1][src[2]]

    def sink_colour(self, snk: Sink) -> Colour:
        if snk[0] == "bout":
            return self.out_type[snk[1]]
        return node_signature(self.nodes[snk[1]])[0][snk[2]]

    def node_sinks(self, n: int) -> list[Sink]:
        return [("nin", n, k) for k in range(len(node_signature(self.nodes[n])[0]))]

    def node_sources(self, n: int) -> list[Source]:
        return [("nout", n, k) for k in range(len(node_signature(self.nodes[n])[1]))]


class UnionFind:
    def __init__(self) -> None:
        self.parent: dict = {}

    def add(self, x) -> None:
        self.parent.setdefault(x, x)

    def find(self, x):
        self.add(x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def classes(self) -> dict:
        out: dict = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return out


# ---------------------------------------------------------------------------
# term -> netlist
# ---------------------------------------------------------------------------

def to_netlist(d: Term) -> Netlist:
    """Elaborate a well-typed term into its netlist, numbering nodes in leaf order."""
    a, b = type_of(d)
    uf = UnionFind()
    nodes: dict[int, Node] = {}
    virtual_colour: dict = {}

    def fresh_virtual(c: Colour):
        v = ("v", len(virtual_colour))
        virtual_colour[v] = c
        uf.add(v)
        return v

    # each part's value: (attachment points for incoming wires, for outgoing wires)
    def gen(t: Gen) -> tuple[list, list]:
        if t.kind in STRUCT_KINDS:  # wiring only: one virtual point per wire
            vs = [fresh_virtual(c) for c in t.colours]
            outs = list(vs)
            for v, s in zip(vs, t.wire_slots):
                outs[s] = v
            return vs, outs
        n = len(nodes)
        nodes[n] = Node(t.kind, t.word)
        ta, tb = t.signature()
        ins = [("nin", n, k) for k in range(len(ta))]
        outs = [("nout", n, k) for k in range(len(tb))]
        for x in ins + outs:
            uf.add(x)
        return ins, outs

    def then(f: tuple[list, list], s: tuple[list, list]) -> tuple[list, list]:
        for x, y in zip(f[1], s[0]):
            uf.union(x, y)
        return f[0], s[1]

    def feedback(c: Colour, body: tuple[list, list]) -> tuple[list, list]:
        ins, outs = body
        uf.union(outs[-1], ins[-1])
        return ins[:-1], outs[:-1]

    ins, outs = fold(d, gen, then, lambda t, b: (t[0] + b[0], t[1] + b[1]), feedback, ([], []))
    for i, x in enumerate(ins):
        uf.union(("bin", i), x)
    for j, x in enumerate(outs):
        uf.union(("bout", j), x)

    out = Netlist(a, b, nodes)
    loop_colours: list[Colour] = []
    for members in uf.classes().values():
        srcs = [m for m in members if m[0] in ("bin", "nout")]
        snks = [m for m in members if m[0] in ("bout", "nin")]
        assert len(srcs) <= 1 and len(snks) <= 1, "malformed wiring"
        if srcs and snks:
            out.wires[snks[0]] = srcs[0]
        elif not srcs and not snks:
            loop_colours.append(virtual_colour[members[0]])
        else:
            raise AssertionError("dangling wire end")
    out.loops = tuple(sorted(loop_colours, key=lambda c: c.value))
    return out


# ---------------------------------------------------------------------------
# isomorphism (boundary fixed pointwise)
# ---------------------------------------------------------------------------

def _far_ends(n: Netlist, rev: dict[Source, Sink], nid: int | None) -> list:
    """The other end of the wire at each port of a node, or of the boundary for None."""
    if nid is None:
        return [rev[("bin", i)] for i in range(len(n.in_type))] + [
            n.wires[("bout", j)] for j in range(len(n.out_type))
        ]
    return [n.wires[snk] for snk in n.node_sinks(nid)] + [rev[src] for src in n.node_sources(nid)]


def _pair_ends(ends1: list, ends2: list, todo: list[tuple[int, int]]) -> bool:
    """Boundary ends must be equal; node ends must be the same port, their nodes paired."""
    for e1, e2 in zip(ends1, ends2):
        if e1[0] != e2[0] or e1[-1] != e2[-1]:
            return False
        if e1[0] in ("nin", "nout"):
            todo.append((e1[1], e2[1]))
    return True


def netlists_isomorphic(n1: Netlist, n2: Netlist) -> bool:
    """Equality up to renaming of node identifiers.

    Boundary ports are matched pointwise, so this is equality of the
    drawn diagram, not a graph isomorphism of unlabeled vertices.

    Every port carries one wire, so the image of one node fixes the
    image of everything wired to it: the match spreads along wires from
    the boundary.  Each closed part is matched from its least unmatched
    node against the first free node that fits; isomorphic closed parts
    are interchangeable, so the first fit is as good as any.
    """
    if (n1.in_type, n1.out_type, n1.loops) != (n2.in_type, n2.out_type, n2.loops):
        return False
    if len(n1.nodes) != len(n2.nodes):
        return False
    rev1, rev2 = n1.sink_of(), n2.sink_of()
    fwd: dict[int, int] = {}
    back: dict[int, int] = {}

    def spread(todo: list[tuple[int, int]]) -> bool:
        """Pair the nodes in todo and all wired to them, or undo and fail."""
        added: list[int] = []
        while todo:
            u, v = todo.pop()
            if fwd.get(u, v) != v or back.get(v, u) != u:
                break  # u or v is already paired elsewhere
            if u in fwd:
                continue
            if n1.nodes[u] != n2.nodes[v]:
                break
            fwd[u], back[v] = v, u
            added.append(u)
            if not _pair_ends(_far_ends(n1, rev1, u), _far_ends(n2, rev2, v), todo):
                break
        else:
            return True
        for u in added:
            del back[fwd.pop(u)]
        return False

    todo: list[tuple[int, int]] = []
    if not (_pair_ends(_far_ends(n1, rev1, None), _far_ends(n2, rev2, None), todo) and spread(todo)):
        return False
    free2 = sorted(n2.nodes)
    for u in sorted(n1.nodes):
        if u not in fwd and not any(v not in back and spread([(u, v)]) for v in free2):
            return False
    return True


# ---------------------------------------------------------------------------
# netlist -> term
# ---------------------------------------------------------------------------

def _back_wires(n: Netlist) -> list[tuple[Sink, Source]]:
    """The wires that close a cycle, in the order one depth-first walk meets them.

    Cutting a back wire leaves the walk's path unchanged, so cutting
    all of them leaves an acyclic core.
    """
    adj: dict[int, list[tuple[int, Sink, Source]]] = {nid: [] for nid in n.nodes}
    for snk, src in n.wires.items():
        if src[0] == "nout" and snk[0] == "nin":
            adj[src[1]].append((snk[1], snk, src))
    for nid in adj:
        adj[nid].sort()
    state = {nid: 0 for nid in n.nodes}  # 0 new, 1 on stack, 2 done
    back: list[tuple[Sink, Source]] = []
    for root in sorted(n.nodes):
        if state[root]:
            continue
        stack = [(root, iter(adj[root]))]
        state[root] = 1
        while stack:
            nid, it = stack[-1]
            step = next(it, None)
            if step is None:
                state[nid] = 2
                stack.pop()
                continue
            tgt, snk, src = step
            if state[tgt] == 1:
                back.append((snk, src))
            elif state[tgt] == 0:
                state[tgt] = 1
                stack.append((tgt, iter(adj[tgt])))
    return back


def to_term(n: Netlist) -> Term:
    """Extract a term drawing the given netlist.

    The feedback wires of one depth-first walk are cut and rebound as
    traces; the remaining acyclic core is emitted as layers of single
    boxes routed together by adjacent swaps.  Round-trips with
    to_netlist up to isomorphism.
    """
    cuts = _back_wires(n)
    wires = dict(n.wires)
    in_ext = list(n.in_type)
    sink_of = n.sink_of()
    for m, (snk, src) in enumerate(cuts):
        c = n.sink_colour(snk)
        in_ext.append(c)
        wires[snk] = ("bin", len(n.in_type) + m)
        sink_of[("bin", len(n.in_type) + m)] = snk
        sink_of[src] = ("bout", len(n.out_type) + m)

    frontier: list[Source] = [("bin", i) for i in range(len(in_ext))]
    layers: list[Term] = []
    remaining = set(n.nodes)

    def colours_of(front: list[Source]) -> list[Colour]:
        out = []
        for src in front:
            if src[0] == "bin":
                out.append(in_ext[src[1]])
            else:
                out.append(n.source_colour(src))
        return out

    # draws each permutation in the paper's generators: one layer per adjacent swap
    def swap_layers(colours: list[Colour], slots: list[int]) -> list[Term]:
        arr = list(range(len(slots)))
        out: list[Term] = []
        changed = True
        while changed:
            changed = False
            for s in range(len(arr) - 1):
                if slots[arr[s]] > slots[arr[s + 1]]:
                    c0, c1 = colours[arr[s]], colours[arr[s + 1]]
                    out.append(layer([colours[a] for a in arr], s, swap(c0, c1)))
                    arr[s], arr[s + 1] = arr[s + 1], arr[s]
                    changed = True
        return out

    while remaining:
        ready = [
            nid
            for nid in sorted(remaining)
            if all(wires[snk] in frontier for snk in n.node_sinks(nid))
        ]
        assert ready, "cyclic core after feedback cutting"
        nid = ready[0]
        srcs = [wires[snk] for snk in n.node_sinks(nid)]
        chosen = set(srcs)
        dest = min(frontier.index(s) for s in srcs)
        others = [s for s in frontier if s not in chosen]
        new_front = others[:dest] + srcs + others[dest:]
        slots = [new_front.index(s) for s in frontier]
        layers.extend(swap_layers(colours_of(frontier), slots))
        frontier = new_front

        node = n.nodes[nid]
        layers.append(layer(colours_of(frontier), dest, Gen(node.kind, node.word)))
        frontier = frontier[:dest] + n.node_sources(nid) + frontier[dest + len(srcs) :]
        remaining.discard(nid)

    if frontier:
        slots = [sink_of[src][1] for src in frontier]
        layers.extend(swap_layers(colours_of(frontier), slots))

    if layers:
        core = seq(*layers)
    else:
        core = identity_of(tuple(in_ext))
    for m in range(len(cuts) - 1, -1, -1):
        core = Trace(in_ext[len(n.in_type) + m], core)

    parts = [core] + [Trace(c, ident(c)) for c in n.loops]
    parts = [p for p in parts if not isinstance(p, Empty)] or [Empty()]
    return par(*parts)
