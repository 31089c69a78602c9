"""Diagram terms for the coloured-PBS calculus.

A diagram is a term over generators (beam splitters, negations, gates,
identities, swaps, wire permutations) combined by sequential
composition, parallel composition and a feedback trace on the last wire
position.  Wire types are sequences of colours: T (black, carries both
polarisations), V (red, vertical only) and H (blue, horizontal only).
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from enum import Enum
from operator import add
from typing import Callable, Collection, Iterator, Sequence


class Colour(str, Enum):
    T = "T"
    V = "V"
    H = "H"

    def __repr__(self) -> str:
        return self.value


WireType = tuple[Colour, ...]
Word = tuple[str, ...]
Configuration = tuple[Colour, int]  # (polarisation, position)

T, V, H = Colour.T, Colour.V, Colour.H
_COLOURS = (T, V, H)

_LETTER_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


def as_word(w: object) -> Word:
    """Coerce ``w`` to a word (tuple of oracle letters).

    Strings are split on dots when present; an all-alphabetic string is
    read as a sequence of single-character letters ("UV" is U then V,
    trajectory order); a string matching the identifier syntax but
    containing digits or underscores is one letter.  Pass a tuple or
    list to spell multi-character letters explicitly.
    """
    if isinstance(w, (tuple, list)):
        letters = tuple(w)
    elif isinstance(w, str):
        if w == "":
            return ()
        if "." in w:
            letters = tuple(p for p in w.split("."))
        elif all(c.isalpha() for c in w):
            letters = tuple(w)
        elif _LETTER_RE.match(w):
            letters = (w,)
        else:
            raise ValueError(f"cannot read word from {w!r}; use dotted letters or a tuple")
    else:
        raise ValueError(f"cannot read word from {w!r}")
    for letter in letters:
        if not isinstance(letter, str) or not _LETTER_RE.match(letter):
            raise ValueError(f"invalid oracle letter {letter!r}")
    return letters


# ---------------------------------------------------------------------------
# generator kinds
# ---------------------------------------------------------------------------

PBS_KINDS = frozenset(
    {
        "pbs4",
        "pbs_tv_vt",
        "pbs_vt_tv",
        "pbs_ht_ht",
        "pbs_th_th",
        "split_vh",
        "split_hv",
        "merge_vh",
        "merge_hv",
    }
)
NEG_KINDS = frozenset({"neg_t", "neg_vh", "neg_hv"})
GATE_KINDS = frozenset({"gate_t", "gate_v", "gate_h"})
STRUCT_KINDS = frozenset({"id", "swap", "perm"})

_GATE_COLOUR = {"gate_t": T, "gate_v": V, "gate_h": H}
GATE_FOR = {c: kind for kind, c in _GATE_COLOUR.items()}  # colour -> gate kind

# where a photon entering port k of a box with the given polarisation leaves:
# every kind but id, swap and perm, gates included
_ACTION: dict[str, dict[Configuration, Configuration]] = {
    "pbs4": {(V, 0): (V, 0), (V, 1): (V, 1), (H, 0): (H, 1), (H, 1): (H, 0)},
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


def _port_colours(configs: Collection[Configuration]) -> WireType:
    """Each port's colour: T where both polarisations reach it, otherwise the one that does."""
    pols = [{p for p, j in configs if j == k} for k in range(1 + max(k for _, k in configs))]
    return tuple(T if len(ps) == 2 else ps.pop() for ps in pols)


# fixed signatures, read off the actions: every kind but id, swap and perm
_FIXED_TYPES: dict[str, tuple[WireType, WireType]] = {
    kind: (_port_colours(action), _port_colours(action.values())) for kind, action in _ACTION.items()
}
NEG_FOR = {_FIXED_TYPES[kind][0][0]: kind for kind in NEG_KINDS}  # colour -> negation flipping it

# output slot of each input wire of the structural kinds; perm carries its own
_STRUCT_SLOTS = {"id": (0,), "swap": (1, 0)}


class Term:
    """Base class for diagram terms.  All five term types are frozen slotted
    values.  The composites Seq, Par and Trace compare, hash and print with
    the methods below, on explicit stacks, so a term of any depth stays
    within the recursion limit; the leaves Gen and Empty have their own."""

    __slots__ = ()

    def __rshift__(self, other: "Term") -> "Term":
        return Seq(self, other)

    def __or__(self, other: "Term") -> "Term":
        return Par(self, other)

    def __eq__(self, other: object) -> bool:
        return _preorder(self) == _preorder(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(_preorder(self)))

    def __repr__(self) -> str:
        out: list[str] = []
        todo: list = [self]  # terms, and the text between them
        while todo:
            x = todo.pop()
            t = type(x)
            if t is str:
                out.append(x)
            elif t is Seq:
                todo += (")", x.second, ", second=", x.first, "Seq(first=")
            elif t is Par:
                todo += (")", x.bottom, ", bottom=", x.top, "Par(top=")
            elif t is Trace:
                todo += (")", x.body, f"Trace(colour={x.colour!r}, body=")
            else:
                out.append(repr(x))
        return "".join(out)


class _Composite(Term):
    """The base of all five term types, each a frozen value.  The fields are
    slots, set once by the constructor through their descriptors: a node
    builds in about 200 ns, where a frozen dataclass, which sets each field
    through ``object.__setattr__``, takes about 330.  A write raises the
    dataclasses error, imported only then, so ``import cpbs`` loads neither
    ``dataclasses`` nor the ``inspect`` it imports."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:  # copy and pickle rebuild through the constructor
        return type(self), tuple(getattr(self, f) for f in self.__slots__)


class Gen(_Composite):
    __slots__ = ("kind", "word", "colours", "slots")
    kind: str
    word: Word
    colours: tuple[Colour, ...]
    slots: tuple[int, ...]  # perm only: the output slot of each input wire

    def __init__(self, kind: str, word: Word = (), colours: tuple[Colour, ...] = (),
                 slots: tuple[int, ...] = ()) -> None:
        _set_kind(self, kind)
        _set_word(self, word)
        _set_colours(self, colours)
        _set_slots(self, slots)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.slots and self.kind != "perm":
            raise ValueError(f"{self.kind} takes no slots")
        if self.kind in _FIXED_TYPES:
            if self.colours or self.word and self.kind not in GATE_KINDS:
                raise ValueError(f"{self.kind} takes no colours, and a word only if it is a gate")
        elif self.kind in _STRUCT_SLOTS:
            if len(self.colours) != len(_STRUCT_SLOTS[self.kind]) or self.word:
                raise ValueError(f"{self.kind} takes one colour per wire and no word")
        elif self.kind == "perm":
            n = len(self.colours)
            if self.word or not n or sorted(self.slots) != list(range(n)):
                raise ValueError(f"perm takes no word and slots permuting its {n} wires")
        else:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        for c in self.colours:
            if c not in _COLOURS:  # by equality, so the strings "T", "V" and "H" pass too
                raise ValueError(f"{self.kind} wires are coloured T, V or H, not {c!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not Gen:
            return NotImplemented
        return ((self.kind, self.word, self.colours, self.slots)
                == (other.kind, other.word, other.colours, other.slots))

    def __hash__(self) -> int:
        return hash((self.kind, self.word, self.colours, self.slots))

    def __repr__(self) -> str:
        return (f"Gen(kind={self.kind!r}, word={self.word!r}, colours={self.colours!r},"
                f" slots={self.slots!r})")

    @property
    def wire_slots(self) -> tuple[int, ...]:
        """id, swap and perm: the output slot of each input wire."""
        return self.slots if self.kind == "perm" else _STRUCT_SLOTS[self.kind]

    def signature(self) -> tuple[WireType, WireType]:
        sig = _FIXED_TYPES.get(self.kind)
        if sig is not None:
            return sig
        if len(self.colours) == 1:  # one wire can only stay put: spares the common id the loop
            return self.colours, self.colours
        out = list(self.colours)
        for c, s in zip(self.colours, self.wire_slots):
            out[s] = c
        return self.colours, tuple(out)


def _preorder(d: Term) -> list:
    """d's nodes in preorder, a composite as its type (and a trace's colour) and a
    leaf as itself: each type has a fixed arity, so the list determines d."""
    out: list = []
    todo = [d]
    while todo:
        x = todo.pop()
        t = type(x)
        if t is Seq:
            out.append(Seq)
            todo += (x.second, x.first)
        elif t is Par:
            out.append(Par)
            todo += (x.bottom, x.top)
        elif t is Trace:
            out += (Trace, x.colour)
            todo.append(x.body)
        else:
            out.append(x)
    return out


class Seq(_Composite):
    """first, then second (diagrammatic left-to-right order)."""

    __slots__ = ("first", "second")
    first: Term
    second: Term

    def __init__(self, first: Term, second: Term) -> None:
        _set_first(self, first)
        _set_second(self, second)


class Par(_Composite):
    __slots__ = ("top", "bottom")
    top: Term
    bottom: Term

    def __init__(self, top: Term, bottom: Term) -> None:
        _set_top(self, top)
        _set_bottom(self, bottom)


class Trace(_Composite):
    """Feedback loop binding the last input and output position of body."""

    __slots__ = ("colour", "body")
    colour: Colour
    body: Term

    def __init__(self, colour: Colour, body: Term) -> None:
        _set_colour(self, colour)
        _set_body(self, body)


_set_first, _set_second = Seq.first.__set__, Seq.second.__set__
_set_top, _set_bottom = Par.top.__set__, Par.bottom.__set__
_set_colour, _set_body = Trace.colour.__set__, Trace.body.__set__
_set_kind, _set_word = Gen.kind.__set__, Gen.word.__set__
_set_colours, _set_slots = Gen.colours.__set__, Gen.slots.__set__


class Empty(_Composite):
    """The term of no wires: the empty sequential or parallel composition."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return True if type(other) is Empty else NotImplemented

    def __hash__(self) -> int:
        return hash(())

    def __repr__(self) -> str:
        return "Empty()"


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def pbs4() -> Gen:
    return Gen("pbs4")


def pbs_tv_vt() -> Gen:
    return Gen("pbs_tv_vt")


def pbs_vt_tv() -> Gen:
    return Gen("pbs_vt_tv")


def pbs_ht_ht() -> Gen:
    return Gen("pbs_ht_ht")


def pbs_th_th() -> Gen:
    return Gen("pbs_th_th")


def split_vh() -> Gen:
    return Gen("split_vh")


def split_hv() -> Gen:
    return Gen("split_hv")


def merge_vh() -> Gen:
    return Gen("merge_vh")


def merge_hv() -> Gen:
    return Gen("merge_hv")


def neg_t() -> Gen:
    return Gen("neg_t")


def neg_vh() -> Gen:
    return Gen("neg_vh")


def neg_hv() -> Gen:
    return Gen("neg_hv")


def gate_t(w: object = ()) -> Gen:
    return Gen("gate_t", as_word(w))


def gate_v(w: object = ()) -> Gen:
    return Gen("gate_v", as_word(w))


def gate_h(w: object = ()) -> Gen:
    return Gen("gate_h", as_word(w))


# a Gen is a frozen value, so each wire and each swap is one shared object
_IDENT = {c: Gen("id", colours=(c,)) for c in Colour}
_SWAP = {(c1, c2): Gen("swap", colours=(c1, c2)) for c1 in Colour for c2 in Colour}


def ident(c: Colour) -> Gen:
    return _IDENT[c]


def swap(c1: Colour, c2: Colour) -> Gen:
    return _SWAP[c1, c2]


def perm(colours: Sequence[Colour], slots: Sequence[int]) -> Gen:
    """Wires coloured ``colours``, the wire in slot i sent to slot ``slots[i]``."""
    return Gen("perm", colours=tuple(colours), slots=tuple(slots))


def permute(colours: Sequence[Colour], slots: Sequence[int]) -> list[Term]:
    """The layers drawing a wire permutation: one perm, none for the identity."""
    if list(slots) == list(range(len(slots))):
        return []
    return [perm(colours, slots)]


def seq(*ds: Term) -> Term:
    if not ds:
        return Empty()
    out = ds[0]
    for d in ds[1:]:
        out = Seq(out, d)
    return out


def par(*ds: Term) -> Term:
    if not ds:
        return Empty()
    out = ds[0]
    for d in ds[1:]:
        out = Par(out, d)
    return out


def identity_of(t: WireType) -> Term:
    return par(*(ident(c) for c in t)) if t else Empty()


def layer(types: Sequence[Colour], pos: int, g: Gen) -> Term:
    """g on the wires of ``types`` from pos on, with an id on every other wire."""
    k = len(g.signature()[0])
    return par(*(ident(c) for c in types[:pos]), g, *(ident(c) for c in types[pos + k :]))


def _drawn_once(draw: Callable[[object], Term]) -> Callable[[object], Term]:
    """``as_term`` for a frozen form: it draws on the first call and returns
    the same term after that, kept on the instance beside its fields."""

    @functools.wraps(draw)
    def as_term(self) -> Term:
        term = vars(self).get("_term")
        if term is None:
            term = vars(self)["_term"] = draw(self)
        return term

    return as_term


# ---------------------------------------------------------------------------
# walking and typing
# ---------------------------------------------------------------------------

def fold(d: Term, gen: Callable, seq: Callable, par: Callable, trace: Callable, empty: object):
    """Evaluate d bottom-up: ``gen(g)`` at each generator, ``empty`` at each
    Empty, ``seq(f, s)``, ``par(t, b)`` and ``trace(colour, v)`` (a function
    other than seq and par) on the values of the parts.  Leaves are visited
    left to right on an explicit stack, not bounded by the recursion limit.
    """
    vals: list = []
    # terms to visit, and the functions to apply once their parts are evaluated
    todo: list = [d]
    pop, put = todo.pop, vals.append
    while todo:
        x = pop()
        t = type(x)
        if t is Gen:
            put(gen(x))
        elif x is trace:
            vals[-1] = trace(pop(), vals[-1])
        elif x is seq or x is par:
            b = vals.pop()
            vals[-1] = x(vals[-1], b)
        elif t is Seq:
            todo += (seq, x.second, x.first)
        elif t is Par:
            todo += (par, x.bottom, x.top)
        elif t is Trace:
            todo += (x.colour, trace, x.body)
        elif t is Empty:
            put(empty)
        else:
            raise TypeError(f"not a diagram term: {t.__name__}")
    return vals[0]


# A typed part is (input type, output type, kind of its first and of its
# last generator); the kinds name a mismatch without printing the term.
# The types of a parallel group are lists, which each ``|`` extends in
# place, so a group costs its width and not its width squared.

def _typed_seq(f: tuple, s: tuple) -> tuple:
    if f[1] != s[0] and tuple(f[1]) != tuple(s[0]):  # a list never equals a tuple
        raise TypeError(
            f"sequential mismatch: {type_str(f[1])} then {type_str(s[0])}"
            f" where {f[3] or 'nothing'} meets {s[2] or 'nothing'}"
        )
    return f[0], s[1], f[2] or s[2], s[3] or f[3]


def _typed_par(t: tuple, b: tuple) -> tuple:
    # a tuple is a generator's signature or the empty type, shared: extend a copy
    a = t[0] if type(t[0]) is list else list(t[0])
    o = t[1] if type(t[1]) is list else list(t[1])
    a += b[0]
    o += b[1]
    return a, o, t[2] or b[2], b[3] or t[3]


def _typed_trace(c: Colour, v: tuple) -> tuple:
    a, b, first, last = v
    if not a or not b or a[-1] != c or b[-1] != c:
        raise TypeError(
            f"trace over {c.value} needs that colour last on both sides of"
            f" {type_str(a)} -> {type_str(b)}, from {first or 'nothing'} to {last or 'nothing'}"
        )
    return a[:-1], b[:-1], first, last


def type_of(d: Term) -> tuple[WireType, WireType]:
    """Input and output wire type of a well-typed term.

    Raises TypeError naming the generators where sequential composition
    or a trace violates the type discipline.
    """
    a, b, _, _ = fold(d, lambda g: (*g.signature(), g.kind, g.kind), _typed_seq, _typed_par,
                      _typed_trace, ((), (), "", ""))
    return tuple(a), tuple(b)


def type_str(t: WireType) -> str:
    return "(" + ",".join(c.value for c in t) + ")"


def configurations(t: WireType) -> list[tuple[Colour, int]]:
    """All (polarisation, position) pairs admitted by a wire type.

    Enumeration order is position ascending, V before H on black wires.
    """
    out: list[tuple[Colour, int]] = []
    for p, c in enumerate(t):
        if c in (T, V):
            out.append((V, p))
        if c in (T, H):
            out.append((H, p))
    return out


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def generators(d: Term) -> Iterator[Gen]:
    """All generator leaves, left to right, including structural id/swap/perm."""
    todo = [d]
    while todo:
        x = todo.pop()
        t = type(x)
        if t is Gen:
            yield x
        elif t is Seq:
            todo += (x.second, x.first)
        elif t is Par:
            todo += (x.bottom, x.top)
        elif t is Trace:
            todo.append(x.body)


def letter_counts(d: Term) -> Counter[str]:
    """Queries per oracle letter, summed over every gate in one walk."""
    out: Counter[str] = Counter()
    for g in generators(d):
        if g.word:  # only a gate has one
            out.update(g.word)
    return out


def count_queries(d: Term, u: str) -> int:
    return letter_counts(d)[u]


def count_pbs(d: Term) -> int:
    return sum(1 for g in generators(d) if g.kind in PBS_KINDS)


def count_neg(d: Term) -> int:
    return sum(1 for g in generators(d) if g.kind in NEG_KINDS)


def count_generators(d: Term) -> int:
    """Non-structural generator count (gates, negations, PBS)."""
    return sum(1 for g in generators(d) if g.kind not in STRUCT_KINDS)


def letters_of(d: Term) -> set[str]:
    return set(letter_counts(d))


def _gen_size(g: Gen) -> int:
    return len(g.word) or 1


def term_size(d: Term) -> int:
    """Size measure: a gate counts its word length, any other generator 1, a trace 1."""
    return fold(d, _gen_size, add, add, lambda c, n: n + 1, 0)
