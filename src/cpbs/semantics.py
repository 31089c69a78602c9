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

from .errors import InvalidConfiguration, NonTermination
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


def _coerce(n: Netlist | Term) -> Netlist:
    return n if isinstance(n, Netlist) else to_netlist(n)


def chase(
    sink_at: Mapping[Source, Sink],
    nodes: Mapping[int, Gen] | Sequence[Gen],
    src: Source,
    pol: Colour,
    stop: Container[int] = (),
) -> tuple[Source | Sink | None, Colour, list[tuple[int, Colour]]]:
    """Follow one photon leaving the wire source ``src`` as ``pol``.

    Returns ``(end, pol, gates)``: where the walk ended, the photon's
    polarisation there, and the gate nodes it crossed in order, each
    with the polarisation it entered with.  The walk ends at a boundary
    sink ``("bout", j)``, at the input ``("nin", n, k)`` of a node ``n``
    in ``stop``, at a source that ``sink_at`` does not wire (returned
    as ``end``), or on revisiting a (source, polarisation) state, where
    ``end`` is None.
    """
    gates: list[tuple[int, Colour]] = []
    seen: set[tuple[Source, Colour]] = set()
    while (src, pol) not in seen:
        seen.add((src, pol))
        snk = sink_at.get(src)
        if snk is None:
            return src, pol, gates
        if snk[0] == "bout":
            return snk, pol, gates
        _, nid, k = snk
        if nid in stop:
            return snk, pol, gates
        kind = nodes[nid].kind
        if kind in GATE_KINDS:
            gates.append((nid, pol))
            src = ("nout", nid, 0)
        else:
            pol, k = _ACTION[kind][(pol, k)]
            src = ("nout", nid, k)
    return None, pol, gates


def _exit(n: Netlist, sink_at: dict[Source, Sink], start: Configuration) -> tuple[Configuration, Word]:
    pol, pos = start
    end, pol, gates = chase(sink_at, n.nodes, ("bin", pos), pol)
    if end is None:
        raise NonTermination(f"photon entering at {start!r} circles forever")
    return (pol, end[1]), tuple(u for nid, _ in gates for u in n.nodes[nid].word)


def evaluate(n: Netlist | Term, start: Configuration) -> tuple[Configuration, Word]:
    """Follow one photon from an input configuration to its exit.

    Raises InvalidConfiguration if the input type does not admit the
    start, and NonTermination if the photon revisits a wire with the
    same polarisation (it would circle forever).
    """
    n = _coerce(n)
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
    n = _coerce(n)
    sink_at = n.sink_of()
    entries = {c: _exit(n, sink_at, c) for c in configurations(n.in_type)}
    return SemanticsTable(n.in_type, n.out_type, entries)


def tables_equal(t1: SemanticsTable, t2: SemanticsTable) -> bool:
    return (
        t1.in_type == t2.in_type
        and t1.out_type == t2.out_type
        and t1.entries == t2.entries
    )


def is_bijective(t: SemanticsTable) -> bool:
    """Whether the configuration part hits each output configuration once."""
    targets = [c for c, _ in t.entries.values()]
    return sorted(targets) == sorted(configurations(t.out_type))
