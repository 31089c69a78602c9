"""Concrete text syntax for diagrams.

Grammar::

    term := par (';' par)*
    par  := atom ('|' atom)*
    atom := gen | '(' term ')' | 'tr[' type '](' term ')'
    type := 'T' | 'V' | 'H'
    gen  := 'id[' type ']' | 'swap[' type ',' type ']'
          | 'perm[' type (',' type)* ';' slot (',' slot)* ']'
          | 'neg' | 'neg[VH]' | 'neg[HV]'
          | 'gate[' word (',' type)? ']'
          | 'pbs' | 'pbs[' sig ']'
          | 'split' | 'split[HV]' | 'merge' | 'merge[HV]'
    sig  := 'TV.VT' | 'VT.TV' | 'HT.HT' | 'TH.TH'
    word := letter ('.' letter)*
    slot := digit+

``;`` is trajectory order: the left operand is traversed first.
``perm[T,V,H;2,0,1]`` permutes wires: its i-th input, of the i-th
colour, leaves at output slot i of the slot list (T at 2, V at 0, H
at 1), so its output type is (V,H,T).  Bare
``split`` and ``merge`` are the V-over-H variants; ``pbs`` is the
all-black four-port splitter.  Whitespace and ``#`` comments are
ignored.  An empty source denotes the empty diagram.
"""

from __future__ import annotations

import re

from .terms import (
    _GATE_COLOUR,
    _LETTER_RE,
    GATE_FOR,
    GATE_KINDS,
    Colour,
    Empty,
    Gen,
    Par,
    Seq,
    Term,
    Trace,
    type_str,
)

# spelling of every generator kind without parameters
_SPELLING = {
    "pbs4": "pbs",
    "pbs_tv_vt": "pbs[TV.VT]",
    "pbs_vt_tv": "pbs[VT.TV]",
    "pbs_ht_ht": "pbs[HT.HT]",
    "pbs_th_th": "pbs[TH.TH]",
    "split_vh": "split",
    "split_hv": "split[HV]",
    "merge_vh": "merge",
    "merge_hv": "merge[HV]",
    "neg_t": "neg",
    "neg_vh": "neg[VH]",
    "neg_hv": "neg[HV]",
}
_KIND_OF = {text: kind for kind, text in _SPELLING.items()}
# a dict lookup, about ten times quicker than the Enum constructor Colour(text)
_COLOUR_OF = {c.value: c for c in Colour}
_UNKNOWN_VARIANT = {
    "pbs": "unknown splitter signature",
    "split": "unknown split variant",
    "merge": "unknown merge variant",
    "neg": "unknown negation",
}

_TOKEN_RE = re.compile(r"[A-Za-z]+(?:\[[^\]\[]*\])?|[;|()]|\S")


def _token_texts(src: str) -> list[str]:
    """The tokens of src as plain strings, found line by line with comments cut off."""
    find = _TOKEN_RE.findall
    out: list[str] = []
    for raw in src.splitlines():
        out += find(raw.split("#", 1)[0])
    return out


def _located(src: str, i: int, why: str, error: type = SyntaxError) -> Exception:
    """error(why) at the i-th token that _token_texts's scan finds, or at the end of input."""
    for lineno, raw in enumerate(src.splitlines(), 1):
        for m in _TOKEN_RE.finditer(raw.split("#", 1)[0]):
            if not i:
                return error(f"line {lineno} col {m.start() + 1}: {why}")
            i -= 1
    return error(f"end of input: {why}")


def _colour(text: str) -> Colour:
    c = _COLOUR_OF.get(text)
    if c is None:
        raise SyntaxError(f"expected a colour T, V or H, got {text!r}")
    return c


def _word(text: str) -> tuple[str, ...]:
    if not text:
        return ()
    letters = tuple(text.split("."))
    for u in letters:
        if not _LETTER_RE.match(u):
            raise SyntaxError(f"bad oracle letter {u!r}")
    return letters


def _gen(text: str) -> Gen:
    """The generator spelt text; a SyntaxError without a location if there is none."""
    kind = _KIND_OF.get(text)
    if kind is not None:
        return Gen(kind)
    name, _, rest = text.partition("[")
    payload = rest[:-1] if rest else None
    if name == "id":
        if payload is None:
            raise SyntaxError("id needs a colour, as in id[T]")
        return Gen("id", colours=(_colour(payload),))
    if name == "swap":
        parts = (payload or "").split(",")
        if payload is None or len(parts) != 2:
            raise SyntaxError("swap needs two colours, as in swap[T,V]")
        return Gen("swap", colours=(_colour(parts[0]), _colour(parts[1])))
    if name == "perm":
        return _perm(payload)
    if name == "gate":
        if payload is None:
            raise SyntaxError("gate needs a word, as in gate[U.V]")
        word_part, _, colour_part = payload.partition(",")
        c = _COLOUR_OF.get(colour_part or "T")
        if c is None:
            raise SyntaxError(f"bad gate colour {colour_part!r}")
        return Gen(GATE_FOR[c], _word(word_part))
    if name in _UNKNOWN_VARIANT:
        raise SyntaxError(f"{_UNKNOWN_VARIANT[name]} {text}")
    raise SyntaxError(f"unknown generator {text!r}")


def _perm(payload: str | None) -> Gen:
    colour_part, semi, slot_part = (payload or "").partition(";")
    if not semi:
        raise SyntaxError("perm needs colours and slots, as in perm[T,V;1,0]")
    colours = tuple(_colour(c) for c in colour_part.split(","))
    texts = slot_part.split(",")
    if not all(x.isascii() and x.isdigit() for x in texts):
        raise SyntaxError(f"perm slots must be numbers, got {slot_part!r}")
    slots = tuple(int(x) for x in texts)
    if len(slots) != len(colours):
        raise SyntaxError(f"perm has {len(colours)} colours but {len(slots)} slots")
    if sorted(slots) != list(range(len(slots))):
        raise SyntaxError(f"perm slots {slot_part!r} are not a permutation")
    return Gen("perm", colours=colours, slots=slots)


def _expected(src: str, i: int, want: str, got: str) -> SyntaxError:
    return _located(src, i, f"expected {want!r}" + (f", got {got!r}" if got else ""))


def parse(src: str) -> Term:
    """Read a diagram from text; SyntaxError and TypeError carry line/col.

    The tokens are plain strings, found line by line with comments cut
    off.  Positions are not tracked: an error names the index of its
    token, and only then does ``_located`` rescan the lines for that
    token's ``line L col C``.
    Each distinct generator spelling is validated, built and typed once
    per call, and every later occurrence shares that frozen ``Gen``.

    One pass over the tokens with an explicit stack, so text of any
    nesting depth reads back.  A level is a bracket's contents or the
    whole text: the index of its opening token (None at the top), the
    sequence built so far, the index of the pending ``;`` and the ``|``
    group being built.  The sequence and the group are (term, in_type,
    out_type), or None before their first atom; types are threaded so
    composition errors can point at the offending operator.  A group of
    several atoms keeps its types in lists until it ends, so a wide
    group costs its width, not its width squared.
    """
    tokens = _token_texts(src)
    if not tokens:
        return Empty()
    tokens.append("")  # end of input
    atoms: dict[str, tuple] = {}  # generator spelling -> (Gen, in_type, out_type)
    stack: list[tuple] = []  # the enclosing levels
    opener = seq = op = group = None
    i = 0
    while True:  # read an atom: a generator, or the opening of a bracket
        text = tokens[i]
        i += 1
        atom = atoms.get(text)
        if atom is None:
            if not text:
                raise _located(src, i - 1, "expected a diagram")
            if text == "(" or text.startswith("tr[") or text == "tr":
                stack.append((opener, seq, op, group))
                opener, seq, op, group = i - 1, None, None, None
                if text != "(":
                    if text == "tr":
                        raise _located(src, i - 1, "tr needs a colour, as in tr[T](...)")
                    try:
                        _colour(text[3:-1])
                    except SyntaxError as e:
                        raise _located(src, i - 1, e.msg) from None
                    if tokens[i] != "(":
                        raise _expected(src, i, "(", tokens[i])
                    i += 1
                continue
            if not text[0].isalpha():
                raise _located(src, i - 1, f"unexpected {text!r}")
            try:
                g = _gen(text)
            except SyntaxError as e:
                raise _located(src, i - 1, e.msg) from None
            atom = atoms[text] = (g, *g.signature())
        while True:  # add the atom to the group, then read the token after it
            if group is None:
                group = atom
            else:  # the group's types become lists, extended in place, at its second atom
                t, a, b = group
                if type(a) is tuple:
                    a, b = list(a), list(b)
                a += atom[1]
                b += atom[2]
                group = (Par(t, atom[0]), a, b)
            after = tokens[i]
            i += 1
            if after == "|":
                break
            if type(group[1]) is list:
                group = (group[0], tuple(group[1]), tuple(group[2]))
            if seq is None:
                seq = group
            elif seq[2] != group[1]:
                raise _located(
                    src, op, f"cannot compose {type_str(seq[2])} into {type_str(group[1])}", TypeError
                )
            else:
                seq = (Seq(seq[0], group[0]), seq[1], group[2])
            group = None
            if after == ";":
                op = i - 1
                break
            if opener is None:
                if after:
                    raise _located(src, i - 1, f"trailing input {after!r}")
                return seq[0]
            if after != ")":
                raise _expected(src, i - 1, ")", after)
            atom = seq
            if tokens[opener] != "(":
                c = _COLOUR_OF[tokens[opener][3:-1]]
                t, a, b = seq
                if not a or not b or a[-1] != c or b[-1] != c:
                    raise _located(
                        src, opener, f"tr[{c.value}] needs {c.value} last on both sides, "
                        f"got {type_str(a)} -> {type_str(b)}", TypeError
                    )
                atom = (Trace(c, t), a[:-1], b[:-1])
            opener, seq, op, group = stack.pop()


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def _gen_text(g: Gen) -> str:
    text = _SPELLING.get(g.kind)
    if text is not None:
        return text
    if g.kind in GATE_KINDS:
        c = _GATE_COLOUR[g.kind]
        return f"gate[{'.'.join(g.word)}{'' if c is Colour.T else ',' + c.value}]"
    colours = ",".join(g.colours)  # a Colour is the str of its letter
    if g.kind == "perm":
        return f"perm[{colours};{','.join(map(str, g.slots))}]"
    return f"{g.kind}[{colours}]"  # id, swap


def _parts(d: Term, op: type) -> list[Term]:
    """Operands of the run of ``op`` compositions at d's root, left to right, less Empty."""
    out: list[Term] = []
    todo = [d]
    while todo:
        x = todo.pop()
        if type(x) is op:
            todo += (x.second, x.first) if op is Seq else (x.bottom, x.top)
        elif type(x) is not Empty:
            out.append(x)
    return out


def print_term(d: Term) -> str:
    """Render a term in the text syntax; parse(print_term(d)) redraws d."""
    out: list[str] = []
    # (text, str) to emit, or (term, op): a run of op, or a parallel operand if op is None
    todo: list = [(d, Seq)]
    while todo:
        t, op = todo.pop()
        if op is str:
            out.append(t)
        elif op is None and type(t) is Gen:
            out.append(_gen_text(t))
        elif op is None:
            out.append(f"tr[{t.colour.value}](" if type(t) is Trace else "(")
            todo += ((")", str), (t.body if type(t) is Trace else t, Seq))
        else:
            sep, inner = (" ; ", Par) if op is Seq else (" | ", None)
            for k, p in enumerate(reversed(_parts(t, op))):
                todo += ((sep, str), (p, inner)) if k else ((p, inner),)
    return "".join(out)
