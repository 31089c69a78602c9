"""Seeded random diagram generation for tests and demos.

Diagrams are grown as layered circuits: start from a random wire type,
repeatedly pick a generator that fits a slice of the current type, and
finally try to close matching end wires with traces.  Every diagram
produced here has a well-defined action table (see random_diagram).
"""

from __future__ import annotations

import random
from typing import Sequence

from .terms import (
    GATE_FOR,
    GATE_KINDS,
    Colour,
    Gen,
    Term,
    Trace,
    _FIXED_TYPES,
    identity_of,
    layer,
    seq,
    swap,
    type_of,
)

T, V, H = Colour.T, Colour.V, Colour.H

P_TRACE = 0.6  # chance of closing one more matching end wire with a trace
P_SWAP = 0.15  # chance that a step swaps two adjacent wires


def _moves(cur: tuple[Colour, ...], gate_free: bool) -> list[tuple[str, int]]:
    out: list[tuple[str, int]] = []
    for kind, (tin, _) in sorted(_FIXED_TYPES.items()):
        if kind in GATE_KINDS:  # gates go last, below: that order fixes the draws
            continue
        for pos in range(len(cur) - len(tin) + 1):
            if cur[pos : pos + len(tin)] == tin:
                out.append((kind, pos))
    if not gate_free:
        for pos, c in enumerate(cur):
            out.append((GATE_FOR[c], pos))
    return out


def _random_word(rng: random.Random, letters: Sequence[str]) -> tuple[str, ...]:
    n = rng.choices([0, 1, 2, 3], weights=[1, 10, 5, 2])[0]
    return tuple(rng.choice(letters) for _ in range(n))


def random_diagram(
    rng: random.Random | int,
    *,
    max_generators: int = 8,
    letters: Sequence[str] = ("U", "V", "W"),
    max_wires: int = 3,
    gate_free: bool = False,
    single_query: bool = False,
) -> Term:
    """A random well-typed diagram with a terminating action.

    Closing a trace never makes a photon from the boundary loop (see
    ``semantics.chase`` for why every walk ends), so traces are added
    without evaluating the diagram.

    With single_query=True every gate carries one fresh letter, so no
    letter occurs twice in the result.
    """
    if isinstance(rng, int):
        rng = random.Random(rng)
    pool = list(letters)
    n_wires = rng.randint(1, max_wires)
    cur = tuple(rng.choice([T, T, V, H]) for _ in range(n_wires))
    in_type = cur
    layers: list[Term] = []
    budget = rng.randint(1, max_generators)
    guard = 0
    while budget > 0 and guard < 200:
        guard += 1
        if len(cur) >= 2 and rng.random() < P_SWAP:
            pos = rng.randrange(len(cur) - 1)
            layers.append(layer(cur, pos, swap(cur[pos], cur[pos + 1])))
            cur = cur[:pos] + (cur[pos + 1], cur[pos]) + cur[pos + 2 :]
            continue
        kind, pos = rng.choice(_moves(cur, gate_free or (single_query and not pool)))
        if kind in GATE_KINDS:
            if single_query:
                word: tuple[str, ...] = (pool.pop(rng.randrange(len(pool))),)
            else:
                word = _random_word(rng, letters)
            g = Gen(kind, word)
        else:
            g = Gen(kind)
        layers.append(layer(cur, pos, g))
        tin, tout = g.signature()
        cur = cur[:pos] + tout + cur[pos + len(tin) :]
        budget -= 1

    d: Term = seq(*layers) if layers else identity_of(in_type)
    a, b = type_of(d)
    while a and b and a[-1] == b[-1] and rng.random() < P_TRACE:
        d = Trace(a[-1], d)
        a, b = a[:-1], b[:-1]
    return d
