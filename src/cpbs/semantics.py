"""Single-particle action semantics.

A diagram acts on configurations: pairs (polarisation, position) where
the polarisation is V or H and the position indexes a wire of the
boundary type.  Evaluation follows the photon through the netlist,
collecting the oracle letters of the gates it crosses in trajectory
order (first crossed first).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Mapping, Sequence

from .errors import InvalidConfiguration
from .netlist import Netlist, Sink, Source, to_netlist
from .terms import Colour, Configuration, GATE_KINDS, Gen, Term, WireType, Word, configurations

V, H = Colour.V, Colour.H

# where a photon entering port k with the given polarisation leaves
_ACTION: dict[str, dict[tuple[Colour, int], tuple[Colour, int]]] = {
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
}


@dataclass
class SemanticsTable:
    in_type: WireType
    out_type: WireType
    entries: dict[Configuration, tuple[Configuration, Word]]

    def rows(self) -> list[tuple[Configuration, Configuration, Word]]:
        """Entries in canonical order: position ascending, V before H."""
        order = configurations(self.in_type)
        return [(c, *self.entries[c]) for c in order]


def chase(
    sink_at: Mapping[Source, Sink],
    nodes: Mapping[int, Gen] | Sequence[Gen],
    src: Source,
    pol: Colour,
    stop: Container[int] = (),
) -> tuple[Source | Sink, Colour, Word]:
    """Follow one photon leaving the wire source ``src`` as ``pol``.

    Returns ``(end, pol, word)``: where the walk ended, the photon's
    polarisation there, and the letters of the gates it crossed, first
    crossed first.  The walk ends at a boundary sink ``("bout", j)``, at
    the input ``("nin", n, k)`` of a node ``n`` in ``stop``, or at a
    source that ``sink_at`` does not wire (returned as ``end``).

    The walk always ends.  ``sink_at`` must wire no two sources to one
    sink; each box's action is one-to-one on (polarisation, port) and a
    gate keeps the polarisation, so each (source, polarisation) state
    has at most one predecessor.  A walk must start at a boundary input,
    which has none, or at the output of a node in ``stop``, whose one
    predecessor ends the walk.  So no state of a walk comes round again.
    """
    word: list[str] = []
    while True:
        snk = sink_at.get(src)
        if snk is None:
            return src, pol, tuple(word)
        if snk[0] == "bout" or snk[1] in stop:
            return snk, pol, tuple(word)
        _, nid, k = snk
        node = nodes[nid]
        if node.kind in GATE_KINDS:
            word.extend(node.word)
            src = ("nout", nid, 0)
        else:
            pol, k = _ACTION[node.kind][(pol, k)]
            src = ("nout", nid, k)


def _exit(n: Netlist, sink_at: dict[Source, Sink], start: Configuration) -> tuple[Configuration, Word]:
    pol, pos = start
    end, pol, word = chase(sink_at, n.nodes, ("bin", pos), pol)
    return (pol, end[1]), word


def evaluate(n: Netlist | Term, start: Configuration) -> tuple[Configuration, Word]:
    """Follow one photon from an input configuration to its exit.

    Raises InvalidConfiguration if the input type does not admit the start.
    """
    n = n if isinstance(n, Netlist) else to_netlist(n)
    pol, pos = start
    if pol not in (V, H) or not 0 <= pos < len(n.in_type):
        raise InvalidConfiguration(f"no configuration {start!r} on {n.in_type!r}")
    if n.in_type[pos] not in (Colour.T, pol):
        raise InvalidConfiguration(
            f"wire {pos} has colour {n.in_type[pos].value}, not {pol.value}"
        )
    return _exit(n, n.sink_of(), start)


def semantics_table(n: Netlist | Term) -> SemanticsTable:
    """The full action of a diagram on all admitted input configurations."""
    n = n if isinstance(n, Netlist) else to_netlist(n)
    sink_at = n.sink_of()
    entries = {c: _exit(n, sink_at, c) for c in configurations(n.in_type)}
    return SemanticsTable(n.in_type, n.out_type, entries)


def tables_equal(t1: SemanticsTable, t2: SemanticsTable) -> bool:
    return (
        t1.in_type == t2.in_type
        and t1.out_type == t2.out_type
        and t1.entries == t2.entries
    )


def _certify(d: Term, t: SemanticsTable, failure: str) -> Netlist:
    """The netlist of drawing ``d``, certified to have the table ``t``: raises
    AssertionError(failure) otherwise, also under ``python -O``."""
    n = to_netlist(d)
    if not tables_equal(semantics_table(n), t):
        raise AssertionError(failure)
    return n


def is_bijective(t: SemanticsTable) -> bool:
    """Whether the configuration part maps exactly the input configurations
    and hits each output configuration once."""
    if t.entries.keys() != set(configurations(t.in_type)):
        return False
    targets = [c for c, _ in t.entries.values()]
    return sorted(targets) == sorted(configurations(t.out_type))
