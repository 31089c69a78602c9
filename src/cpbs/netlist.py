"""Wire-level form of a diagram.

A netlist forgets the syntactic bracketing of a term and keeps only
what is drawn: boxes (the term's own ``Gen`` leaves), wires between
ports, and closed loops carrying no box at all.  Identities, swaps,
wire permutations and traces dissolve into the wiring.

Ports are addressed by tuples.  Wire sources are ``("bin", i)`` (the
i-th diagram input) or ``("nout", n, k)`` (output k of node n); wire
sinks are ``("bout", j)`` or ``("nin", n, k)``.  The ``wires`` map
sends every sink to its unique source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

from .terms import (
    Colour,
    Empty,
    Gen,
    Par,
    Seq,
    Term,
    Trace,
    WireType,
    _FIXED_TYPES,
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


@dataclass
class Netlist:
    in_type: WireType
    out_type: WireType
    nodes: dict[int, Gen] = field(default_factory=dict)
    wires: dict[Sink, Source] = field(default_factory=dict)
    loops: tuple[Colour, ...] = ()

    def sink_of(self) -> dict[Source, Sink]:
        return {src: snk for snk, src in self.wires.items()}

    def source_colour(self, src: Source) -> Colour:
        if src[0] == "bin":
            return self.in_type[src[1]]
        return self.nodes[src[1]].signature()[1][src[2]]

    def sink_colour(self, snk: Sink) -> Colour:
        if snk[0] == "bout":
            return self.out_type[snk[1]]
        return self.nodes[snk[1]].signature()[0][snk[2]]

    def node_sinks(self, n: int) -> list[Sink]:
        return [("nin", n, k) for k in range(len(self.nodes[n].signature()[0]))]

    def node_sources(self, n: int) -> list[Source]:
        return [("nout", n, k) for k in range(len(self.nodes[n].signature()[1]))]


# ---------------------------------------------------------------------------
# term -> netlist
# ---------------------------------------------------------------------------

# markers on to_netlist's stack: join a Seq's two middles, close a Trace
_JOIN = object()
_CLOSE = object()


def to_netlist(d: Term) -> Netlist:
    """Elaborate a well-typed term into its netlist, numbering nodes in leaf order.

    Node n is the n-th leaf of d that is not an id, swap or perm: the
    ``Gen`` object itself, not a copy.  One stack walk types and wires
    the term.  Wire ends are integers: a node's ports, one point per
    wire of an id, swap or perm, and the boundary ports.  Each part is
    visited with the lists of ends its group gathers for incoming and
    outgoing wires, and appends its own ends there: the parts of a
    ``|`` share their group's lists, and the parts of a ``;`` each get
    a fresh middle list, whose ends are joined once both parts are
    done and their colours agree.  A trace joins the last two ends its
    body added.  Each class of joined ends is one wire, or a loop if
    no port is in it; wires are listed in the order of their classes'
    first ends.  On a type error the message comes from type_of.
    """
    parent: list[int] = []  # union-find over ends; a class's root is its first end
    colour: list[Colour] = []  # the colour of each end
    sources: dict[int, Source] = {}  # the port at each node or boundary end
    sinks: dict[int, Sink] = {}
    nodes: dict[int, Gen] = {}

    def mismatch():
        type_of(d)  # raises the TypeError naming where the types meet
        raise AssertionError("to_netlist found a type error that type_of did not")

    def join(x: int, y: int) -> None:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x < y:
            parent[y] = x
        else:
            parent[x] = y

    ins: list[int] = []
    outs: list[int] = []
    # (part, its group's incoming ends, its group's outgoing ends); leaves
    # are visited left to right, so ends are numbered in leaf order
    todo: list[tuple] = [(d, ins, outs)]
    pop = todo.pop
    while todo:
        x, a, b = pop()
        t = type(x)
        if t is Gen:
            e = len(parent)
            cs = x.colours  # only id, swap and perm have colours: wiring, one end per wire
            if len(cs) == 1:
                parent.append(e)
                colour.append(cs[0])
                a.append(e)
                b.append(e)
            elif cs:
                wired = range(e, e + len(cs))
                parent.extend(wired)
                colour.extend(cs)
                a.extend(wired)
                o = list(wired)
                for v, s in zip(wired, x.wire_slots):
                    o[s] = v
                b.extend(o)
            else:
                n = len(nodes)
                nodes[n] = x
                ta, tb = _FIXED_TYPES[x.kind]
                mid = e + len(ta)
                end = mid + len(tb)
                parent.extend(range(e, end))
                colour.extend(ta)
                colour.extend(tb)
                for k in range(len(ta)):
                    sinks[e + k] = ("nin", n, k)
                for k in range(len(tb)):
                    sources[mid + k] = ("nout", n, k)
                a.extend(range(e, mid))
                b.extend(range(mid, end))
        elif t is Par:
            todo += ((x.bottom, a, b), (x.top, a, b))
        elif t is Seq:
            mid_out: list[int] = []
            mid_in: list[int] = []
            todo += ((_JOIN, mid_out, mid_in), (x.second, mid_in, b), (x.first, a, mid_out))
        elif x is _JOIN:  # a: the first part's outgoing ends, b: the second's incoming
            if len(a) != len(b):
                mismatch()
            for u, v in zip(a, b):
                if colour[u] != colour[v]:
                    mismatch()
                join(u, v)
        elif t is Trace:
            todo += ((_CLOSE, (x.colour, len(a), len(b), a), b), (x.body, a, b))
        elif x is _CLOSE:
            c, na, nb, a = a
            # the body must add an end on each side: the ends before it are a neighbour's
            if len(a) == na or len(b) == nb or colour[a[-1]] != c or colour[b[-1]] != c:
                mismatch()
            join(b.pop(), a.pop())
        elif t is not Empty:
            raise TypeError(f"not a diagram term: {t.__name__}")

    a = tuple([colour[x] for x in ins])
    b = tuple([colour[x] for x in outs])
    for i, x in enumerate(ins):
        e = len(parent)
        parent.append(e)
        sources[e] = ("bin", i)
        join(e, x)
    for j, x in enumerate(outs):
        e = len(parent)
        parent.append(e)
        sinks[e] = ("bout", j)
        join(e, x)

    for e in range(len(parent)):  # a parent is never after its child: one pass flattens
        parent[e] = parent[parent[e]]
    src = {parent[e]: p for e, p in sources.items()}
    snk = {parent[e]: p for e, p in sinks.items()}
    if len(src) != len(sources) or len(snk) != len(sinks) or src.keys() != snk.keys():
        raise AssertionError("malformed wiring")
    loops = sorted((colour[r] for r in set(parent).difference(snk)), key=lambda c: c.value)
    return Netlist(a, b, nodes, {snk[r]: src[r] for r in sorted(snk)}, tuple(loops))


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
    boxes routed together by adjacent swaps.  Boxes are emitted in
    order of readiness: a box is ready once every box feeding it is
    emitted, and a heap yields the least ready node id, so each step
    costs the frontier's width and not a scan of every box left.
    Each box is emitted as the ``Gen`` stored at its node.  Round-trips
    with to_netlist up to isomorphism.
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
    colours = list(in_ext)  # the colour of each frontier wire, kept beside it
    layers: list[Term] = []

    # draws each permutation in the paper's generators: one layer per adjacent
    # swap, in bubble-sort order.  The wires keep their slots, colours and id
    # leaves in rows swapped in place; a pass stops at the previous pass's last
    # swap, as every wire past it is already in place.
    def swap_layers(colours: list[Colour], slots: list[int]) -> list[Term]:
        slots, colours = list(slots), list(colours)
        row = [ident(c) for c in colours]
        out: list[Term] = []
        end = len(slots) - 1
        while end > 0:
            last = 0
            for s in range(end):
                if slots[s] > slots[s + 1]:
                    out.append(par(*row[:s], swap(colours[s], colours[s + 1]), *row[s + 2 :]))
                    slots[s], slots[s + 1] = slots[s + 1], slots[s]
                    colours[s], colours[s + 1] = colours[s + 1], colours[s]
                    row[s], row[s + 1] = row[s + 1], row[s]
                    last = s
            end = last
        return out

    # a node is ready once every node feeding it is emitted: it awaits no more inputs
    pending = dict.fromkeys(n.nodes, 0)
    for snk, src in wires.items():
        if src[0] == "nout" and snk[0] == "nin":
            pending[snk[1]] += 1
    ready = [nid for nid, k in pending.items() if not k]
    heapify(ready)
    while ready:
        nid = heappop(ready)  # the least ready node, as a scan of every node would pick
        node = n.nodes[nid]
        ins, outs = node.signature()
        srcs = [wires[snk] for snk in n.node_sinks(nid)]
        chosen = set(srcs)
        dest = min(frontier.index(s) for s in srcs)
        others = [s for s in frontier if s not in chosen]
        new_front = others[:dest] + srcs + others[dest:]
        at = {s: i for i, s in enumerate(new_front)}
        slots = [at[s] for s in frontier]
        layers.extend(swap_layers(colours, slots))
        routed = colours[:]
        for c, k in zip(colours, slots):
            routed[k] = c
        layers.append(layer(routed, dest, node))

        sources = n.node_sources(nid)
        frontier = new_front
        frontier[dest : dest + len(ins)] = sources
        routed[dest : dest + len(ins)] = outs
        colours = routed
        del pending[nid]
        for src in sources:
            snk = sink_of[src]
            if snk[0] == "nin":
                pending[snk[1]] -= 1
                if not pending[snk[1]]:
                    heappush(ready, snk[1])
    if pending:
        raise AssertionError("cyclic core after feedback cutting")

    if frontier:
        layers.extend(swap_layers(colours, [sink_of[src][1] for src in frontier]))

    if layers:
        core = seq(*layers)
    else:
        core = identity_of(tuple(in_ext))
    for m in range(len(cuts) - 1, -1, -1):
        core = Trace(in_ext[len(n.in_type) + m], core)

    parts = [core] + [Trace(c, ident(c)) for c in n.loops]
    parts = [p for p in parts if not isinstance(p, Empty)] or [Empty()]
    return par(*parts)
