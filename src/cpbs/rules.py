"""The equational theory as a catalogue of directed rewrite rules.

Each rule is a pair of well-typed terms over the same boundary type.
Every gate word in a rule side is a run of word variables (WVar); the
matcher binds each to a run of letters, the last taking the rest, and a
variable appearing twice (AX5, DER21..24) forces equal runs.
rewrite.check_soundness tables each side as it stands, a variable read
as one more letter, which also checks that both sides have one boundary
type.  Sequencing is trajectory order: Seq(a, b) means a first, then b.

The STRUCT entries (yanking, dinaturality, swap naturality) hold by
construction in the wire-level representation, so they rewrite nothing;
they exist so proof traces can record them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .terms import (
    Colour,
    Empty,
    Gen,
    Par,
    Seq,
    Term,
    Trace,
    fold,
    generators,
    ident,
    merge_hv,
    merge_vh,
    neg_hv,
    neg_t,
    neg_vh,
    pbs4,
    pbs_ht_ht,
    pbs_th_th,
    pbs_tv_vt,
    pbs_vt_tv,
    perm,
    seq,
    split_hv,
    split_vh,
    swap,
)

T, V, H = Colour.T, Colour.V, Colour.H


@dataclass(frozen=True)
class WVar:
    """A word variable: matches a letter sequence.

    exact pins the length; otherwise any length >= min_len matches.
    """

    name: str
    exact: int | None = None
    min_len: int = 0


@dataclass(frozen=True)
class Rule:
    rule_id: str
    lhs: Term
    rhs: Term


def _gv(*els) -> Gen:
    return Gen("gate_v", tuple(els))


def _gh(*els) -> Gen:
    return Gen("gate_h", tuple(els))


def _gt(*els) -> Gen:
    return Gen("gate_t", tuple(els))


_A, _B, _W = WVar("A"), WVar("B"), WVar("W")
_u, _w = WVar("u", exact=1), WVar("w", min_len=1)


_RULE_LIST: list[Rule] = [
    Rule("AX1", _gv(), ident(V)),
    Rule("AX2", Seq(_gv(_A), _gv(_B)), _gv(_A, _B)),
    Rule("AX3", Seq(_gv(_W), neg_vh()), Seq(neg_vh(), _gh(_W))),
    Rule("AX4", Seq(neg_t(), split_vh()), Seq(split_hv(), Par(neg_hv(), neg_vh()))),
    Rule("AX5", Seq(_gt(_W), split_vh()), Seq(split_vh(), Par(_gv(_W), _gh(_W)))),
    Rule("AX6", Trace(V, _gv(_W)), Empty()),
    Rule("AX7", Seq(neg_vh(), neg_hv()), ident(V)),
    Rule("AX8", Seq(neg_hv(), neg_vh()), ident(H)),
    Rule("AX9", Seq(split_vh(), merge_vh()), ident(T)),
    Rule("AX10", Seq(merge_vh(), split_vh()), Par(ident(V), ident(H))),
    Rule("AX11", split_hv(), Seq(split_vh(), swap(V, H))),
    Rule("AX12", merge_hv(), Seq(swap(H, V), merge_vh())),
    # AX13 and AX17 unfold a PBS: split, cross the H wires, merge
    Rule(
        "AX13",
        pbs4(),
        seq(Par(split_vh(), split_vh()), perm((V, H, V, H), (0, 3, 2, 1)), Par(merge_vh(), merge_vh())),
    ),
    Rule(
        "AX14",
        pbs_tv_vt(),
        seq(Par(split_vh(), ident(V)), Par(ident(V), swap(H, V)), Par(ident(V), merge_vh())),
    ),
    Rule(
        "AX15",
        pbs_vt_tv(),
        seq(Par(ident(V), split_vh()), Par(ident(V), swap(V, H)), Par(merge_vh(), ident(V))),
    ),
    Rule(
        "AX16",
        pbs_th_th(),
        seq(Par(split_vh(), ident(H)), Par(ident(V), swap(H, H)), Par(merge_vh(), ident(H))),
    ),
    Rule(
        "AX17",
        pbs_ht_ht(),
        seq(Par(ident(H), split_vh()), perm((H, V, H), (2, 1, 0)), Par(ident(H), merge_vh())),
    ),
    # splitting a word into its first letter and the rest, per colour
    Rule("DER18", _gv(_u, _w), Seq(_gv(_u), _gv(_w))),
    Rule("DER19", _gh(_u, _w), Seq(_gh(_u), _gh(_w))),
    Rule("DER20", _gt(_u, _w), Seq(_gt(_u), _gt(_w))),
    # merging two equal-word gates into one black gate
    Rule("DER21", Par(_gv(_W), _gh(_W)), seq(merge_vh(), _gt(_W), split_vh())),
    Rule("DER22", Par(_gh(_W), _gv(_W)), seq(merge_hv(), _gt(_W), split_hv())),
    Rule(
        "DER23",
        Par(_gv(_W), _gv(_W)),
        seq(
            Par(ident(V), neg_vh()),
            merge_vh(),
            _gt(_W),
            split_vh(),
            Par(ident(V), neg_hv()),
        ),
    ),
    Rule(
        "DER24",
        Par(_gh(_W), _gh(_W)),
        seq(
            Par(neg_hv(), ident(H)),
            merge_vh(),
            _gt(_W),
            split_vh(),
            Par(neg_vh(), ident(H)),
        ),
    ),
    Rule("APPE25", Seq(neg_t(), neg_t()), ident(T)),
    Rule("APPE26", Trace(V, ident(V)), Empty()),
    Rule("APPE27", Trace(H, ident(H)), Empty()),
    Rule("APPE28", Trace(T, ident(T)), Empty()),
    Rule("APPE29", Trace(T, neg_t()), Empty()),
    Rule("APPE30", Seq(neg_t(), split_hv()), Seq(split_vh(), Par(neg_vh(), neg_hv()))),
    Rule("APPE31", Seq(merge_vh(), neg_t()), Seq(Par(neg_vh(), neg_hv()), merge_hv())),
    Rule("APPE32", Seq(merge_hv(), neg_t()), Seq(Par(neg_hv(), neg_vh()), merge_vh())),
    Rule(
        "APPE33",
        Seq(split_vh(), Par(neg_vh(), ident(H))),
        seq(neg_t(), split_hv(), Par(ident(H), neg_vh())),
    ),
    Rule(
        "APPE34",
        Seq(split_hv(), Par(neg_hv(), ident(V))),
        seq(neg_t(), split_vh(), Par(ident(V), neg_hv())),
    ),
    Rule(
        "APPE35",
        Seq(Par(neg_hv(), ident(H)), merge_vh()),
        seq(Par(ident(H), neg_hv()), merge_hv(), neg_t()),
    ),
    Rule(
        "APPE36",
        Seq(Par(neg_vh(), ident(V)), merge_hv()),
        seq(Par(ident(V), neg_vh()), merge_vh(), neg_t()),
    ),
    Rule(
        "APPE37",
        seq(Par(split_vh(), ident(H)), Par(swap(V, H), ident(H)), Par(ident(H), merge_vh())),
        Seq(swap(T, H), pbs_ht_ht()),
    ),
    Rule("APPE38", Seq(merge_vh(), split_hv()), swap(V, H)),
    Rule("STRUCT_YANKING", Empty(), Empty()),
    Rule("STRUCT_DINATURALITY", Empty(), Empty()),
    Rule("STRUCT_SWAP_NATURALITY", Empty(), Empty()),
]

RULES: dict[str, Rule] = {r.rule_id: r for r in _RULE_LIST}

AXIOM_IDS = tuple(f"AX{i}" for i in range(1, 18))
DERIVED_IDS = tuple(f"DER{i}" for i in range(18, 25))
ANCILLARY_IDS = tuple(f"APPE{i}" for i in range(25, 39))
STRUCT_IDS = ("STRUCT_YANKING", "STRUCT_DINATURALITY", "STRUCT_SWAP_NATURALITY")
ALL_RULE_IDS = AXIOM_IDS + DERIVED_IDS + ANCILLARY_IDS + STRUCT_IDS


def word_vars(t: Term) -> dict[str, WVar]:
    """The word variables of a rule side, by name; ValueError on a name with two constraints."""
    out: dict[str, WVar] = {}
    for g in generators(t):
        for v in g.word:
            if out.setdefault(v.name, v) != v:
                raise ValueError(f"conflicting constraints on variable {v.name}")
    return out


def substitute(t: Term, binding: dict[str, tuple[str, ...]]) -> Term:
    """Replace each word variable of a rule side by its bound run of letters.
    A lone box, as ``splice`` passes one replacement box at a time, skips the fold."""

    def gen(g: Gen) -> Gen:
        if not g.word:
            return g
        return Gen(g.kind, tuple(chain.from_iterable(binding[v.name] for v in g.word)), g.colours)

    if type(t) is Gen:
        return gen(t)
    return fold(t, gen, Seq, Par, Trace, Empty())

