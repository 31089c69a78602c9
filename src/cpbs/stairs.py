"""Stair forms: the PBS-minimal shape of gate-free diagrams.

A gate-free action table splits input and output positions into blocks
(the finest partition closed under "some configuration crosses between
them").  Each block is realised by a single staircase; the whole
diagram is a permutation, a layer of optional negations, the parallel
staircases, negations again, and a final permutation.  The PBS count of
that shape meets the proven lower bound (|out| - blocks) + merges.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import HasGates, NotBijective
from .netlist import UnionFind
from .semantics import SemanticsTable, is_bijective, semantics_table, tables_equal
from .terms import (
    Colour,
    Empty,
    Gen,
    Term,
    WireType,
    count_pbs,
    ident,
    identity_of,
    layer,
    merge_hv,
    neg_hv,
    neg_t,
    neg_vh,
    par,
    pbs4,
    pbs_th_th,
    pbs_tv_vt,
    pbs_vt_tv,
    permute,
    seq,
    split_hv,
)

T, V, H = Colour.T, Colour.V, Colour.H

# ---------------------------------------------------------------------------
# staircases
# ---------------------------------------------------------------------------

_KINDS = ("black_ladder", "red_ladder", "blue_ladder", "red_merge", "red_merge_inverse")


@dataclass(frozen=True)
class Staircase:
    kind: str
    size: int  # number of PBS

    def __post_init__(self) -> None:
        assert self.kind in _KINDS
        assert self.size >= 0
        if self.kind in ("red_merge", "red_merge_inverse"):
            assert self.size >= 1  # the merge or split itself

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
        types = list(self.in_type)
        layers: list[Term] = []
        for pos, g in self._rungs():
            a, b = g.signature()
            assert tuple(types[pos : pos + len(a)]) == a
            layers.append(layer(types, pos, g))
            types[pos : pos + len(a)] = list(b)
        assert tuple(types) == self.out_type
        if not layers:
            return identity_of(self.in_type)
        return seq(*layers)


# ---------------------------------------------------------------------------
# partition of a gate-free table into blocks
# ---------------------------------------------------------------------------

Edge = tuple[Colour, int, Colour, int]  # (pol in, pos in, pol out, pos out)


def _edges_of(t: SemanticsTable) -> list[Edge]:
    return sorted((c, p, c2, p2) for (c, p), ((c2, p2), _) in t.entries.items())


@dataclass(frozen=True)
class PartitionAnalysis:
    blocks: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]  # (inputs, outputs)
    case_of_block: tuple[int, ...]
    k: int
    s_L: int
    s_R: int


def _require_gate_free(t: SemanticsTable) -> None:
    for _, _, word in t.rows():
        if word:
            raise HasGates(f"table row carries the word {word!r}")


def partition_analysis(t: SemanticsTable) -> PartitionAnalysis:
    """Finest joint partition of input and output positions.

    Two positions share a block when some configuration crosses between
    them; blocks are reported sorted by least input position and
    classified into the four realisable shapes.
    """
    _require_gate_free(t)
    uf = UnionFind()
    for p in range(len(t.in_type)):
        uf.add(("in", p))
    for q in range(len(t.out_type)):
        uf.add(("out", q))
    for _, p, _, q in _edges_of(t):
        uf.union(("in", p), ("out", q))

    blocks = []
    for members in uf.classes().values():
        ins = tuple(sorted(p for side, p in members if side == "in"))
        outs = tuple(sorted(q for side, q in members if side == "out"))
        blocks.append((ins, outs))
    blocks.sort(key=lambda b: (b[0] + b[1])[0:1])

    cases = []
    for ins, outs in blocks:
        ci = [p for p in ins if t.in_type[p] != T]
        co = [q for q in outs if t.out_type[q] != T]
        if len(ins) == len(outs) and not ci and not co:
            cases.append(1)
        elif len(ins) == len(outs) and len(ci) == 1 and len(co) == 1:
            cases.append(2)
        elif len(ins) == len(outs) + 1 and len(ci) == 2 and not co:
            cases.append(3)
        elif len(outs) == len(ins) + 1 and not ci and len(co) == 2:
            cases.append(4)
        else:
            raise AssertionError(f"block {ins}/{outs} fits no staircase shape")
    return PartitionAnalysis(
        tuple(blocks),
        tuple(cases),
        len(blocks),
        cases.count(3),
        cases.count(4),
    )


def pbs_lower_bound(t: SemanticsTable) -> int:
    """No equivalent diagram has fewer PBS than (|out| - blocks) + merges."""
    pa = partition_analysis(t)
    return (len(t.out_type) - pa.k) + pa.s_L


# ---------------------------------------------------------------------------
# alternating walks and alignment
# ---------------------------------------------------------------------------

def _walk(edges: list[Edge], start: Edge, forward: bool) -> list[tuple[Edge, bool]]:
    """Trail through the block, alternating input and output endpoints.

    Every input or output position has at most two incident
    configuration edges, so the trail is forced; it ends at a position
    of degree one or closes into a cycle.
    """
    by_in: dict[int, list[Edge]] = {}
    by_out: dict[int, list[Edge]] = {}
    for e in edges:
        by_in.setdefault(e[1], []).append(e)
        by_out.setdefault(e[3], []).append(e)
    steps = [(start, forward)]
    edge, fwd = start, forward
    while True:
        pool = by_out[edge[3]] if fwd else by_in[edge[1]]
        others = [e for e in pool if e != edge]
        if not others:
            return steps
        (edge,), fwd = others, not fwd
        if (edge, fwd) == steps[0]:
            return steps
        steps.append((edge, fwd))


def _stair_walks(sc: Staircase) -> list[list[tuple[Edge, bool]]]:
    """Candidate walks through the staircase's own table.

    Paths have a single admissible start; the all-black cycle may begin
    at any edge, which is what lets the slot assignment soak up wire
    rotations without extra negations.
    """
    edges = _edges_of(semantics_table(sc.as_term()))
    s = sc.size
    if sc.kind == "black_ladder":
        return [_walk(edges, e, True) for e in edges]
    if sc.kind == "red_ladder":
        start = next(e for e in edges if e[:2] == (V, s))
    elif sc.kind == "blue_ladder":
        start = next(e for e in edges if e[:2] == (H, s))
    elif sc.kind == "red_merge":
        start = next(e for e in edges if e[:2] == (H, 0))
    else:
        start = next(e for e in edges if e[2:] == (H, 0))
        return [_walk(edges, start, False)]
    return [_walk(edges, start, True)]


def _block_walks(t: SemanticsTable, ins, outs, case: int) -> list[list[tuple[Edge, bool]]]:
    """Candidate walks through one block, starting from each admissible end."""
    edges = [e for e in _edges_of(t) if e[1] in ins]
    if case == 1:
        start = next(e for e in edges if e[:2] == (V, min(ins)))
        return [_walk(edges, start, True)]
    if case == 2:
        p0 = next(p for p in ins if t.in_type[p] != T)
        return [_walk(edges, next(e for e in edges if e[1] == p0), True)]
    if case == 3:
        coloured = sorted(p for p in ins if t.in_type[p] != T)
        return [_walk(edges, next(e for e in edges if e[1] == p0), True) for p0 in coloured]
    coloured = sorted(q for q in outs if t.out_type[q] != T)
    return [_walk(edges, next(e for e in edges if e[3] == q0), False) for q0 in coloured]


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
    for (be, bd), (se, sd) in zip(bw, sw):
        assert bd == sd
        cbi, p, cbo, q = be
        csi, s, cso, s2 = se
        # the setdefault calls build the maps, so this must not be an assert
        if (
            s_in.setdefault(p, s) != s
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

    def as_term(self) -> Term:
        if not self.in_type and not self.out_type:
            return Empty()
        layers: list[Term] = []
        layers.extend(permute(self.in_type, self.sigma1))

        def neg_layer(before: WireType, negs: tuple[bool, ...], after: WireType) -> Term:
            cells = []
            for c, flip, c2 in zip(before, negs, after):
                if not flip:
                    assert c == c2
                    cells.append(ident(c))
                elif c == T:
                    assert c2 == T
                    cells.append(neg_t())
                else:
                    assert (c, c2) in ((V, H), (H, V))
                    cells.append(neg_vh() if c == V else neg_hv())
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
    _require_gate_free(t)
    if not is_bijective(t):
        raise NotBijective(f"action on {t.in_type} is not a bijection")
    pa = partition_analysis(t)

    sigma1: dict[int, int] = {}
    sigma2: dict[int, int] = {}
    pre: dict[int, bool] = {}
    post: dict[int, bool] = {}
    cases: list[Staircase] = []
    off_in = off_out = 0
    for (ins, outs), case in zip(pa.blocks, pa.case_of_block):
        sc = _staircase_for(t, ins, outs, case)
        best = None
        stair_walks = _stair_walks(sc)
        for bw in _block_walks(t, ins, outs, case):
            for sw in stair_walks:
                assert len(bw) == len(sw), "walk shapes differ"
                fit = _align(bw, sw)
                if best is None or fit[0] < best[0]:
                    best = fit
        _, s_in, s_out, b_pre, b_post = best
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
    if not tables_equal(semantics_table(result), t):
        raise AssertionError("stair form changes the action table")
    if not count_pbs(result) == sf.count_pbs() == pbs_lower_bound(t):
        raise AssertionError("stair form misses the PBS lower bound")
    return sf
