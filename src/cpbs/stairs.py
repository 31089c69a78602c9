"""Stair forms: the PBS-minimal shape of gate-free diagrams.

A gate-free action table splits input and output positions into blocks
(the finest partition closed under "some configuration crosses between
them").  In a bijective table each block is a forced trail, read off
by walking it; a table that is not a bijection raises NotBijective.
Each block is realised by a single staircase; the whole
diagram is a permutation, a layer of optional negations, the parallel
staircases, negations again, and a final permutation.  The PBS count of
that shape meets the proven lower bound (|out| - blocks) + merges.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import HasGates, NotBijective
from .netlist import to_netlist
from .semantics import SemanticsTable, _certify, is_bijective, semantics_table
from .terms import (
    _drawn_once,
    NEG_FOR,
    Colour,
    Empty,
    Gen,
    Term,
    Trace,
    WireType,
    count_pbs,
    ident,
    identity_of,
    layer,
    merge_hv,
    par,
    pbs4,
    pbs_th_th,
    pbs_tv_vt,
    pbs_vt_tv,
    permute,
    seq,
    split_hv,
    type_str,
)

T, V, H = Colour.T, Colour.V, Colour.H

# ---------------------------------------------------------------------------
# staircases
# ---------------------------------------------------------------------------

_KINDS = ("black_ladder", "red_ladder", "blue_ladder", "red_merge", "red_merge_inverse")

# Size from which a staircase prints shorter with its rungs side by side than
# padded.  Measured for every kind: at 4 rungs the padded black ladder prints in
# 117 bytes against 122, at 5 in 187 against 151, and the other kinds cross over
# between the same two sizes.
_SIDE_BY_SIDE_FROM = 5


@dataclass(frozen=True)
class Staircase:
    kind: str
    size: int  # number of PBS

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown staircase kind {self.kind!r}")
        # a red merge or its inverse has at least the merge or split itself
        least = 1 if self.kind in ("red_merge", "red_merge_inverse") else 0
        if self.size < least:
            raise ValueError(f"a {self.kind} has at least {least} PBS, not {self.size}")

    @property
    def in_type(self) -> WireType:
        s = self.size
        return {
            "black_ladder": (T,) * (s + 1),
            "red_ladder": (T,) * s + (V,),
            "blue_ladder": (T,) * s + (H,),
            "red_merge": (H,) + (T,) * (s - 1) + (V,),
            "red_merge_inverse": (T,) * s,
        }[self.kind]

    @property
    def out_type(self) -> WireType:
        s = self.size
        return {
            "black_ladder": (T,) * (s + 1),
            "red_ladder": (V,) + (T,) * s,
            "blue_ladder": (T,) * s + (H,),
            "red_merge": (T,) * s,
            "red_merge_inverse": (H,) + (T,) * (s - 1) + (V,),
        }[self.kind]

    def _rungs(self) -> list[tuple[int, Gen]]:
        s = self.size
        if self.kind == "black_ladder":
            return [(p, pbs4()) for p in range(s)]
        if self.kind == "red_ladder":
            return [(p, pbs_tv_vt()) for p in range(s - 1, -1, -1)]
        if self.kind == "blue_ladder":
            if s == 0:
                return []
            return [(s - 1, pbs_th_th())] + [(p, pbs4()) for p in range(s - 2, -1, -1)]
        if self.kind == "red_merge":
            return [(p, pbs_tv_vt()) for p in range(s - 1, 0, -1)] + [(0, merge_hv())]
        return [(0, split_hv())] + [(p, pbs_vt_tv()) for p in range(1, self.size)]

    def as_term(self) -> Term:
        """Below ``_SIDE_BY_SIDE_FROM`` rungs, one layer per rung padded with
        ids to the full width; from there on, the rungs side by side (see
        ``_side_by_side``), which prints in length linear in the size."""
        rungs = self._rungs()
        padded = self.size < _SIDE_BY_SIDE_FROM
        colours = list(self.in_type)
        # a wire is named by its source: (-1, p) for input p, (i, k) for port k of rung i
        wires = [(-1, p) for p in range(len(colours))]
        colour_of = dict(zip(wires, colours))
        layers: list[Term] = []
        takes: list[tuple[int, int]] = []  # the wires into the rungs, rung by rung
        for i, (pos, g) in enumerate(rungs):
            a, b = g.signature()
            end = pos + len(a)
            if tuple(colours[pos:end]) != a:
                raise AssertionError(
                    f"{self.kind} rung {i} ({g.kind}) meets {type_str(colours[pos:end])} at wire {pos}"
                )
            if padded:
                layers.append(layer(colours, pos, g))
            takes += wires[pos:end]
            colours[pos:end] = b
            wires[pos:end] = made = [(i, k) for k in range(len(b))]
            colour_of.update(zip(made, b))
        if tuple(colours) != self.out_type:
            raise AssertionError(f"{self.kind} of size {self.size} ends on {type_str(colours)}")
        if not rungs:
            return identity_of(self.in_type)
        if padded:
            return seq(*layers)
        return _side_by_side([g for _, g in rungs], takes, wires, colour_of)


def _side_by_side(gens: list[Gen], takes: list, outs: list, colour_of: dict) -> Term:
    """``perm ; r_1 | … | r_s | ids ; perm``, each wire from one rung to another
    fed back by its own nested trace: tracing over a tensor is tracing its wires
    one at a time.  Wires are named by source as in ``Staircase.as_term``:
    ``takes`` lists the rungs' inputs in order, ``outs`` feeds the outputs, and
    ``colour_of`` holds every wire; an id carries each one that no rung touches."""
    inputs = [src for src in colour_of if src[0] < 0]
    passing = [src for src in outs if src[0] < 0]
    feedback = [src for src in takes if src[0] >= 0]
    made = [src for src in colour_of if src[0] >= 0]

    def route(wires: list, to: list) -> list[Term]:
        slot = {src: k for k, src in enumerate(to)}
        return permute([colour_of[src] for src in wires], [slot[src] for src in wires])

    body = seq(
        *route(inputs + feedback, takes + passing),
        par(*gens, *(ident(colour_of[src]) for src in passing)),
        *route(made + passing, outs + feedback),
    )
    for src in reversed(feedback):
        body = Trace(colour_of[src], body)
    return body


# ---------------------------------------------------------------------------
# blocks of a gate-free table, read off their forced trails
# ---------------------------------------------------------------------------

Edge = tuple[Colour, int, Colour, int]  # (pol in, pos in, pol out, pos out)
Walk = tuple[tuple[Edge, bool], ...]
Index = tuple[dict[int, list[Edge]], dict[int, list[Edge]]]  # edges by input, by output position
Block = tuple[tuple[int, ...], tuple[int, ...], int, list[Walk]]  # inputs, outputs, case, candidates
_CASE_OF_STARTS = {(1, 0): 1, (1, 1): 2, (2, 0): 3, (0, 2): 4}  # by forward and backward walks


def _edges_of(t: SemanticsTable) -> list[Edge]:
    return sorted((c, p, c2, p2) for (c, p), ((c2, p2), _) in t.entries.items())


def _index(edges: list[Edge]) -> Index:
    index: Index = ({}, {})
    for e in edges:
        index[0].setdefault(e[1], []).append(e)
        index[1].setdefault(e[3], []).append(e)
    return index


def _walk(index: Index, start: Edge, forward: bool) -> Walk:
    """Trail through the block, alternating input and output endpoints.

    Every input or output position has at most two incident
    configuration edges, so the trail is forced; it ends at a position
    of degree one or closes into a cycle.
    """
    by_in, by_out = index
    steps = [(start, forward)]
    edge, fwd = start, forward
    while True:
        pool = by_out[edge[3]] if fwd else by_in[edge[1]]
        others = [e for e in pool if e != edge]
        if not others:
            return tuple(steps)
        (edge,), fwd = others, not fwd
        if (edge, fwd) == steps[0]:
            return tuple(steps)
        steps.append((edge, fwd))


def _blocks(t: SemanticsTable) -> list[Block]:
    """The blocks of a bijective gate-free table, by least input.

    A position has one edge per polarisation its colour admits, so a block
    is a path between its two coloured positions, walked from both ends,
    or a cycle through black ones, walked from its least input's V edge.
    Where its walks start gives its case; its candidates are its forward
    walks, or its backward ones when it has none.
    """
    for _, word in t.entries.values():
        if word:
            raise HasGates(f"table row carries the word {word!r}")
    if not is_bijective(t):
        raise NotBijective(f"action on {t.in_type} is not a bijection onto {t.out_type}")
    index = by_in, by_out = _index(_edges_of(t))
    least: dict[int, int] = {}  # input position -> least input of its block
    found: dict[int, tuple] = {}  # least input -> inputs, outputs, forward and backward walks
    coloured = [(by_in[p][0], True) for p, c in enumerate(t.in_type) if c != T]
    coloured += [(by_out[q][0], False) for q, c in enumerate(t.out_type) if c != T]
    # drawn lazily, so each cycle is walked once, from the first of its inputs reached
    cycles = (
        (next(e for e in by_in[p] if e[0] == V), True) for p in range(len(t.in_type)) if p not in least
    )
    for start, forward in itertools.chain(coloured, cycles):
        steps = _walk(index, start, forward)
        if start[1] not in least:
            ins = tuple(sorted({e[1] for e, _ in steps}))
            least.update(dict.fromkeys(ins, ins[0]))
            found[ins[0]] = (ins, tuple(sorted({e[3] for e, _ in steps})), [], [])
        found[least[start[1]]][2 if forward else 3].append(steps)
    return [
        (ins, outs, _CASE_OF_STARTS[len(fwd), len(bwd)], fwd or bwd)
        for ins, outs, fwd, bwd in (found[p] for p in sorted(found))
    ]


@dataclass(frozen=True)
class PartitionAnalysis:
    blocks: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]  # (inputs, outputs)
    case_of_block: tuple[int, ...]
    k: int
    s_L: int
    s_R: int


def partition_analysis(t: SemanticsTable) -> PartitionAnalysis:
    """Finest joint partition of input and output positions.

    Two positions share a block when some configuration crosses between
    them.  Blocks are read off their forced trails (``_blocks``), sorted
    by least input position and classified into the four realisable
    shapes; a table that is not a bijection raises NotBijective.
    """
    blocks = _blocks(t)
    cases = tuple(case for _, _, case, _ in blocks)
    ends = tuple((ins, outs) for ins, outs, _, _ in blocks)
    return PartitionAnalysis(ends, cases, len(blocks), cases.count(3), cases.count(4))


def pbs_lower_bound(t: SemanticsTable) -> int:
    """No equivalent diagram has fewer PBS than (|out| - blocks) + merges,
    blocks read off forced trails; a non-bijective table raises NotBijective."""
    pa = partition_analysis(t)
    return (len(t.out_type) - pa.k) + pa.s_L


# ---------------------------------------------------------------------------
# staircase walks and alignment
# ---------------------------------------------------------------------------

@functools.cache
def _stair_walks(sc: Staircase) -> tuple[Walk, ...]:
    """Candidate walks through the staircase's own table, a single block.

    Paths have a single admissible start, the first candidate ``_blocks``
    gives.  The all-black cycle may begin at any edge, which lets the
    slot assignment soak up wire rotations without extra negations.  Its
    walks alternate colours, so all from edges of one colour align with
    one negation count: the first from an H edge and the V walk of
    ``_blocks`` stand for them.  A staircase is a constant, so its walks
    are worked out once per process and shared read-only.
    """
    t = semantics_table(to_netlist(sc.as_term()))
    ((_, _, _, (walk, *_)),) = _blocks(t)
    if sc.kind != "black_ladder":
        return (walk,)
    edges = _edges_of(t)
    return (_walk(_index(edges), next(e for e in edges if e[0] == H), True), walk)


def _align(bw, sw):
    """Match a block walk against a staircase walk step by step.

    Positions pair up automatically (both edges of a wire sit on
    adjacent steps in any alternating trail), so the only freedom is
    where negations land; the caller picks the candidate with fewest.
    """
    s_in: dict[int, int] = {}
    s_out: dict[int, int] = {}
    pre: dict[int, bool] = {}
    post: dict[int, bool] = {}
    if len(bw) != len(sw):
        raise AssertionError("walk shapes differ")
    for (be, bd), (se, sd) in zip(bw, sw):
        cbi, p, cbo, q = be
        csi, s, cso, s2 = se
        # the setdefault calls build the maps, so this must not be an assert
        if (
            bd != sd
            or s_in.setdefault(p, s) != s
            or s_out.setdefault(s2, q) != q
            or pre.setdefault(s, cbi != csi) != (cbi != csi)
            or post.setdefault(s2, cbo != cso) != (cbo != cso)
        ):
            raise AssertionError("block walk and staircase walk disagree")
    negs = sum(pre.values()) + sum(post.values())
    return negs, s_in, s_out, pre, post


def _staircase_for(t: SemanticsTable, ins, outs, case: int) -> Staircase:
    if case == 1:
        return Staircase("black_ladder", len(ins) - 1)
    if case == 2:
        cin = next(t.in_type[p] for p in ins if t.in_type[p] != T)
        cout = next(t.out_type[q] for q in outs if t.out_type[q] != T)
        kind = "blue_ladder" if (cin, cout) == (H, H) else "red_ladder"
        return Staircase(kind, len(ins) - 1)
    if case == 3:
        return Staircase("red_merge", len(outs))
    return Staircase("red_merge_inverse", len(ins))


# ---------------------------------------------------------------------------
# the assembled form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StairForm:
    in_type: WireType
    out_type: WireType
    sigma1: tuple[int, ...]  # input position -> staircase slot
    pre_negs: tuple[bool, ...]  # per staircase input slot
    cases: tuple[Staircase, ...]
    post_negs: tuple[bool, ...]  # per staircase output slot
    sigma2: tuple[int, ...]  # staircase slot -> output position

    @property
    def slot_in_type(self) -> WireType:
        return tuple(c for sc in self.cases for c in sc.in_type)

    @property
    def slot_out_type(self) -> WireType:
        return tuple(c for sc in self.cases for c in sc.out_type)

    def count_pbs(self) -> int:
        return sum(sc.size for sc in self.cases)

    @_drawn_once
    def as_term(self) -> Term:
        if not self.in_type and not self.out_type:
            return Empty()
        layers: list[Term] = []
        layers.extend(permute(self.in_type, self.sigma1))

        def neg_layer(before: WireType, negs: tuple[bool, ...], after: WireType) -> Term:
            cells = []
            for p, (c, flip, c2) in enumerate(zip(before, negs, after)):
                cell = Gen(NEG_FOR[c]) if flip else ident(c)
                if cell.signature() != ((c,), (c2,)):
                    raise AssertionError(f"slot {p}: {cell.kind} cannot turn {c.value} into {c2.value}")
                cells.append(cell)
            return par(*cells)

        routed_in = tuple(
            self.in_type[p] for p in sorted(range(len(self.in_type)), key=lambda p: self.sigma1[p])
        )
        layers.append(neg_layer(routed_in, self.pre_negs, self.slot_in_type))
        layers.append(par(*(sc.as_term() for sc in self.cases)))
        post_colours = tuple(self.out_type[q] for q in self.sigma2)
        layers.append(neg_layer(self.slot_out_type, self.post_negs, post_colours))
        layers.extend(permute(post_colours, self.sigma2))
        return seq(*layers)


def synthesize_stair_form(t: SemanticsTable) -> StairForm:
    """PBS-optimal realisation of a gate-free table.

    One staircase per partition block; walk the block's configurations
    and the staircase's side by side to read off the slot assignment,
    with negations absorbing every polarisation difference.
    """
    blocks = _blocks(t)
    sigma1: dict[int, int] = {}
    sigma2: dict[int, int] = {}
    pre: dict[int, bool] = {}
    post: dict[int, bool] = {}
    cases: list[Staircase] = []
    off_in = off_out = 0
    for ins, outs, case, walks in blocks:
        sc = _staircase_for(t, ins, outs, case)
        stair_walks = _stair_walks(sc)
        fits = (_align(bw, sw) for bw in walks for sw in stair_walks)
        _, s_in, s_out, b_pre, b_post = min(fits, key=lambda fit: fit[0])  # the first of the fewest
        for p, s in s_in.items():
            sigma1[p] = off_in + s
            pre[off_in + s] = b_pre[s]
        for s2, q in s_out.items():
            sigma2[off_out + s2] = q
            post[off_out + s2] = b_post[s2]
        cases.append(sc)
        off_in += len(ins)
        off_out += len(outs)

    sf = StairForm(
        t.in_type,
        t.out_type,
        tuple(sigma1[p] for p in range(len(t.in_type))),
        tuple(pre.get(s, False) for s in range(off_in)),
        tuple(cases),
        tuple(post.get(s, False) for s in range(off_out)),
        tuple(sigma2[s] for s in range(off_out)),
    )
    result = sf.as_term()
    _certify(result, t, "stair form changes the action table")
    merges = sum(case == 3 for _, _, case, _ in blocks)
    if not count_pbs(result) == sf.count_pbs() == (len(t.out_type) - len(blocks)) + merges:
        raise AssertionError("stair form misses the PBS lower bound")
    return sf
