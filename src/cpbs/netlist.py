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

    def copy(self) -> "Netlist":
        return Netlist(self.in_type, self.out_type, dict(self.nodes), dict(self.wires), self.loops)

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

def _refined_signatures(n: Netlist) -> dict[int, int]:
    """Iteratively refined node invariants, boundary-anchored."""
    rev = n.sink_of()

    def port_view(nid: int):
        ins = []
        for snk in n.node_sinks(nid):
            src = n.wires[snk]
            ins.append(src if src[0] == "bin" else ("n", src[1], src[2]))
        outs = []
        for src in n.node_sources(nid):
            snk = rev[src]
            outs.append(snk if snk[0] == "bout" else ("n", snk[1], snk[2]))
        return ins, outs

    sig = {nid: hash((node.kind, node.word)) for nid, node in n.nodes.items()}
    views = {nid: port_view(nid) for nid in n.nodes}
    for _ in range(len(n.nodes)):
        nxt = {}
        for nid in n.nodes:
            ins, outs = views[nid]
            key = (
                sig[nid],
                tuple(x if x[0] != "n" else ("n", sig[x[1]], x[2]) for x in ins),
                tuple(x if x[0] != "n" else ("n", sig[x[1]], x[2]) for x in outs),
            )
            nxt[nid] = hash(key)
        if nxt == sig:
            break
        sig = nxt
    return sig


def netlists_isomorphic(n1: Netlist, n2: Netlist) -> bool:
    """Equality up to renaming of node identifiers.

    Boundary ports are matched pointwise, so this is equality of the
    drawn diagram, not a graph isomorphism of unlabeled vertices.
    """
    if n1.in_type != n2.in_type or n1.out_type != n2.out_type:
        return False
    if n1.loops != n2.loops:
        return False
    if sorted((x.kind, x.word) for x in n1.nodes.values()) != sorted(
        (x.kind, x.word) for x in n2.nodes.values()
    ):
        return False
    if len(n1.wires) != len(n2.wires):
        return False
    # wires with both ends on the boundary must agree exactly
    for snk, src in n1.wires.items():
        if snk[0] == "bout" and src[0] == "bin":
            if n2.wires.get(snk) != src:
                return False
    for snk, src in n2.wires.items():
        if snk[0] == "bout" and src[0] == "bin":
            if n1.wires.get(snk) != src:
                return False

    sig1 = _refined_signatures(n1)
    sig2 = _refined_signatures(n2)
    if sorted(sig1.values()) != sorted(sig2.values()):
        return False

    rev1, rev2 = n1.sink_of(), n2.sink_of()
    order = sorted(n1.nodes, key=lambda nid: (sorted(sig1.values()).count(sig1[nid]), nid))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def consistent(u: int, v: int) -> bool:
        if n1.nodes[u] != n2.nodes[v] or sig1[u] != sig2[v]:
            return False
        for k, snk in enumerate(n1.node_sinks(u)):
            src = n1.wires[snk]
            other = n2.wires[("nin", v, k)]
            if src[0] == "bin":
                if other != src:
                    return False
            elif src[1] in mapping:
                if other != ("nout", mapping[src[1]], src[2]):
                    return False
            elif other[0] != "nout" or other[1] in used:
                return False
        for k, src in enumerate(n1.node_sources(u)):
            snk = rev1[src]
            other = rev2[("nout", v, k)]
            if snk[0] == "bout":
                if other != snk:
                    return False
            elif snk[1] in mapping:
                if other != ("nin", mapping[snk[1]], snk[2]):
                    return False
            elif other[0] != "nin" or other[1] in used:
                return False
        return True

    def search(i: int) -> bool:
        if i == len(order):
            return True
        u = order[i]
        for v in sorted(n2.nodes):
            if v in used or not consistent(u, v):
                continue
            mapping[u] = v
            used.add(v)
            if search(i + 1):
                return True
            del mapping[u]
            used.discard(v)
        return False

    return search(0)


# ---------------------------------------------------------------------------
# netlist -> term
# ---------------------------------------------------------------------------

def _find_back_wire(n: Netlist, wires: dict[Sink, Source]) -> tuple[Sink, Source] | None:
    adj: dict[int, list[tuple[int, Sink, Source]]] = {nid: [] for nid in n.nodes}
    for snk, src in wires.items():
        if src[0] == "nout" and snk[0] == "nin":
            adj[src[1]].append((snk[1], snk, src))
    for nid in adj:
        adj[nid].sort()
    state = {nid: 0 for nid in n.nodes}  # 0 new, 1 on stack, 2 done
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
                return snk, src
            if state[tgt] == 0:
                state[tgt] = 1
                stack.append((tgt, iter(adj[tgt])))
    return None


def to_term(n: Netlist) -> Term:
    """Extract a term drawing the given netlist.

    Feedback wires are cut one at a time and rebound as traces; the
    remaining acyclic core is emitted as layers of single boxes routed
    together by adjacent swaps.  Round-trips with to_netlist up to
    isomorphism.
    """
    wires = dict(n.wires)
    cuts: list[tuple[Sink, Source]] = []
    while True:
        back = _find_back_wire(n, wires)
        if back is None:
            break
        del wires[back[0]]
        cuts.append(back)

    in_ext = list(n.in_type)
    sink_of = {src: snk for snk, src in wires.items()}
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
