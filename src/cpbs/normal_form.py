"""Canonical forms: every bijective-action diagram equals a five-layer
diagram (merge . permute . negate . gate . split) that is unique once
the line order is fixed.  Synthesis reads the layers off the action
table; two diagrams are equal exactly when their tables (and forms) are.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotBijective, TypeMismatch
from .netlist import Netlist, to_netlist
from .semantics import SemanticsTable, _certify, is_bijective, semantics_table, tables_equal
from .terms import (
    _drawn_once,
    GATE_FOR,
    NEG_FOR,
    STRUCT_KINDS,
    Colour,
    Configuration,
    Empty,
    Gen,
    Term,
    Word,
    WireType,
    configurations,
    fold,
    ident,
    identity_of,
    merge_vh,
    par,
    permute,
    seq,
    split_vh,
    type_of,
    type_str,
)

# ---------------------------------------------------------------------------
# the form itself
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NfLine:
    """One internal line: where it comes from, where it goes, what it carries."""

    source: Configuration
    target: Configuration
    word: Word


@dataclass(frozen=True)
class NormalForm:
    in_type: WireType
    out_type: WireType
    lines: tuple[NfLine, ...]  # ordered by source configuration

    def __post_init__(self) -> None:
        if tuple(l.source for l in self.lines) != tuple(configurations(self.in_type)):
            raise ValueError("normal-form lines must start at each input configuration in order")
        if sorted(l.target for l in self.lines) != sorted(configurations(self.out_type)):
            raise ValueError("normal-form lines must end at each output configuration once")

    # -- the five layers, as diagrams ---------------------------------------

    @property
    def S(self) -> Term:
        """Splitter layer: one split per black input, wires elsewhere."""
        return par(*(split_vh() if c == Colour.T else ident(c) for c in self.in_type))

    @property
    def G(self) -> Term:
        """Gate layer: each line's word on a gate of its colour, a wire if it has none."""
        return par(*(Gen(GATE_FOR[l.source[0]], l.word) if l.word else ident(l.source[0])
                     for l in self.lines))

    @property
    def F(self) -> Term:
        """Negation layer: each line that changes colour crosses the negation flipping it."""
        return par(*(ident(l.source[0]) if l.source[0] == l.target[0] else Gen(NEG_FOR[l.source[0]])
                     for l in self.lines))

    @property
    def permutation(self) -> tuple[int, ...]:
        """Output slot, in configuration order, of each line."""
        slot = {cfg: i for i, cfg in enumerate(configurations(self.out_type))}
        return tuple(slot[l.target] for l in self.lines)

    @property
    def P(self) -> Term:
        colours = [l.target[0] for l in self.lines]
        layers = permute(colours, self.permutation)
        return layers[0] if layers else identity_of(tuple(colours))

    @property
    def M(self) -> Term:
        return par(*(merge_vh() if c == Colour.T else ident(c) for c in self.out_type))

    @_drawn_once
    def as_term(self) -> Term:
        if not self.lines and not self.in_type and not self.out_type:
            return Empty()
        return seq(self.S, self.G, self.F, self.P, self.M)


# ---------------------------------------------------------------------------
# synthesis from a table
# ---------------------------------------------------------------------------

def synthesize_nf(t: SemanticsTable) -> NormalForm:
    """Read the unique normal form off an action table.

    The table's configuration part must be a bijection; each input
    configuration becomes one internal line carrying its word, negated
    when the polarisation flips, routed to its target slot.
    """
    return _synthesize_nf(t)[0]


def _synthesize_nf(t: SemanticsTable) -> tuple[NormalForm, Netlist]:
    """synthesize_nf, with the netlist of the form that its check tabled."""
    if not is_bijective(t):
        raise NotBijective(f"action on {t.in_type} is not a bijection onto {t.out_type}")
    lines = tuple(
        NfLine(cfg, t.entries[cfg][0], t.entries[cfg][1]) for cfg in configurations(t.in_type)
    )
    nf = NormalForm(t.in_type, t.out_type, lines)
    return nf, _certify(nf.as_term(), t, "normal form changes the action table")


def normalize(d: Netlist | Term) -> NormalForm:
    """Normal form of a diagram, given as a term or as its netlist."""
    return synthesize_nf(semantics_table(d if isinstance(d, Netlist) else to_netlist(d)))


def equivalent(d1: Term, d2: Term) -> bool:
    """Decide equality of diagrams (sound and complete for the calculus).  A
    normal form is read off its table, so comparing the two tables decides."""
    n1, n2 = to_netlist(d1), to_netlist(d2)
    if (n1.in_type, n1.out_type) != (n2.in_type, n2.out_type):
        sides = (f"{type_str(n.in_type)} -> {type_str(n.out_type)}" for n in (n1, n2))
        raise TypeMismatch(" vs ".join(sides))
    return tables_equal(semantics_table(n1), semantics_table(n2))


# ---------------------------------------------------------------------------
# independent route: structural induction
# ---------------------------------------------------------------------------
#
# Per-generator line maps, retyped from the construction rather than
# shared with the interpreter, so the two routes to a normal form stay
# independent.  V-polarised photons pass a splitter straight through,
# H-polarised ones take the other port; gates stamp their word; negs
# exchange polarisations.

V, H, T = Colour.V, Colour.H, Colour.T

_GEN_LINES: dict[str, dict[Configuration, Configuration]] = {
    "pbs4": {(V, 0): (V, 0), (H, 0): (H, 1), (V, 1): (V, 1), (H, 1): (H, 0)},
    "pbs_tv_vt": {(V, 0): (V, 0), (H, 0): (H, 1), (V, 1): (V, 1)},
    "pbs_vt_tv": {(V, 0): (V, 0), (V, 1): (V, 1), (H, 1): (H, 0)},
    "pbs_ht_ht": {(H, 0): (H, 1), (V, 1): (V, 1), (H, 1): (H, 0)},
    "pbs_th_th": {(V, 0): (V, 0), (H, 0): (H, 1), (H, 1): (H, 0)},
    "split_vh": {(V, 0): (V, 0), (H, 0): (H, 1)},
    "split_hv": {(V, 0): (V, 1), (H, 0): (H, 0)},
    "merge_vh": {(V, 0): (V, 0), (H, 1): (H, 0)},
    "merge_hv": {(V, 1): (V, 0), (H, 0): (H, 0)},
    "neg_t": {(V, 0): (H, 0), (H, 0): (V, 0)},
    "neg_vh": {(V, 0): (H, 0)},
    "neg_hv": {(H, 0): (V, 0)},
    "gate_t": {(V, 0): (V, 0), (H, 0): (H, 0)},
    "gate_v": {(V, 0): (V, 0)},
    "gate_h": {(H, 0): (H, 0)},
}

_LineMap = dict[Configuration, tuple[Configuration, Word]]


# each part's value: (line map, input width, output width)

def _gen_lines(d: Gen) -> tuple[_LineMap, int, int]:
    a, b = d.signature()
    if d.kind in STRUCT_KINDS:
        lines = {(c, p): ((c, d.wire_slots[p]), ()) for c, p in configurations(a)}
    else:
        word = d.word if d.kind.startswith("gate") else ()
        lines = {src: (dst, word) for src, dst in _GEN_LINES[d.kind].items()}
    return lines, len(a), len(b)


def _seq_lines(f: tuple[_LineMap, int, int], s: tuple[_LineMap, int, int]):
    g = s[0]
    return {src: (g[mid][0], w1 + g[mid][1]) for src, (mid, w1) in f[0].items()}, f[1], s[2]


def _par_lines(t: tuple[_LineMap, int, int], b: tuple[_LineMap, int, int]):
    lines = dict(t[0])
    for (c, p), ((c2, p2), w) in b[0].items():
        lines[(c, p + t[1])] = ((c2, p2 + t[2]), w)
    return lines, t[1] + b[1], t[2] + b[2]


def _trace_lines(c: Colour, v: tuple[_LineMap, int, int]):
    body, fed_in, fed_out = v[0], v[1] - 1, v[2] - 1
    out = {}
    for src in body:
        if src[1] == fed_in:
            continue  # the fed-back slot is not a boundary input
        cfg, word = body[src]
        for _ in range(len(body) + 1):
            if cfg[1] != fed_out:
                break
            cfg, w2 = body[(cfg[0], fed_in)]
            word = word + w2
        else:
            raise AssertionError("feedback failed to exit")
        out[src] = (cfg, word)
    return out, fed_in, fed_out


def nf_by_rewriting(d: Term) -> NormalForm:
    """Normal form by structural induction instead of table synthesis.

    Builds the line data bottom-up from per-generator forms, stacking
    for parallel composition, chaining words for sequential composition
    and closing the feedback of traces.  Agrees with synthesize_nf on
    every diagram; kept as a cross-check.
    """
    a, b = type_of(d)
    lm = fold(d, _gen_lines, _seq_lines, _par_lines, _trace_lines, ({}, 0, 0))[0]
    lines = tuple(NfLine(cfg, *lm[cfg]) for cfg in configurations(a))
    return NormalForm(a, b, lines)
