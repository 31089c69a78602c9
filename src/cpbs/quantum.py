"""Quantum semantics: from action tables to linear maps.

A gate assignment sends each oracle letter to a dim x dim unitary.  It
extends to words by matrix product in trajectory order (first letter
applied first), and a diagram with action table t becomes the linear
map on C^[a] (x) C^dim whose (c',p'),(c,p) block is the word matrix of
the trajectory from (c,p).  Bijective tables with unitary assignments
give unitaries; the map is always an isometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MissingAssignment
from .semantics import SemanticsTable
from .terms import (
    Empty,
    GATE_KINDS,
    Gen,
    Par,
    Seq,
    Term,
    Trace,
    Word,
    configurations,
    fold,
)


@dataclass
class GateAssignment:
    dim: int
    map: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if any(np.shape(m) != (self.dim, self.dim) for m in self.map.values()):
            raise ValueError("assignment matrices must share one dimension")

    def __getitem__(self, letter: str) -> np.ndarray:
        try:
            return self.map[letter]
        except KeyError:
            raise MissingAssignment(letter) from None


def as_assignment(g: GateAssignment | dict[str, np.ndarray]) -> GateAssignment:
    if isinstance(g, GateAssignment):
        return g
    mats = {k: np.asarray(v, dtype=complex) for k, v in g.items()}
    dim = next(iter(mats.values())).shape[0] if mats else 1
    return GateAssignment(dim, mats)


def gamma(word: Word, g: GateAssignment | dict) -> np.ndarray:
    """Product matrix of a word, first letter applied first."""
    g = as_assignment(g)
    out = np.eye(g.dim, dtype=complex)
    for letter in word:
        out = g[letter] @ out
    return out


def quantum_matrix(t: SemanticsTable, g: GateAssignment | dict) -> np.ndarray:
    """The linear map of a table on C^[a] (x) C^dim.

    Basis order on each side: configurations by position, V before H,
    tensored with the computational basis of C^dim.
    """
    g = as_assignment(g)
    d = g.dim
    ins = configurations(t.in_type)
    outs = configurations(t.out_type)
    col_of = {c: i for i, c in enumerate(ins)}
    row_of = {c: i for i, c in enumerate(outs)}
    m = np.zeros((len(outs) * d, len(ins) * d), dtype=complex)
    for c, (c2, w) in t.entries.items():
        r, col = row_of[c2], col_of[c]
        m[r * d : (r + 1) * d, col * d : (col + 1) * d] = gamma(w, g)
    return m


def isometry_defect(m: np.ndarray) -> float:
    """Max-norm distance of M†M from the identity."""
    if m.shape[1] == 0:
        return 0.0
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[1]))))


# ---------------------------------------------------------------------------
# interpretation (applying a homomorphism to every gate)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixLabel:
    """A matrix standing where an oracle letter normally does.

    Stored as nested tuples so interpreted gates stay hashable; the
    evaluator treats labels as opaque letters, so the action table of
    an interpreted diagram carries tuples of labels as its words.
    """

    data: tuple[tuple[complex, ...], ...]

    @staticmethod
    def of(m: np.ndarray) -> "MatrixLabel":
        return MatrixLabel(tuple(tuple(complex(x) for x in row) for row in np.asarray(m)))

    @property
    def matrix(self) -> np.ndarray:
        return np.array(self.data, dtype=complex)


def interpret(d: Term, g: GateAssignment | dict) -> Term:
    """Replace each gate word by the single matrix it denotes.

    The result has the same shape as d and satisfies the commutation
    property: its table agrees with d's configuration-wise, with each
    word replaced by its product matrix.
    """
    g = as_assignment(g)

    def gen(x: Gen) -> Gen:
        if x.kind in GATE_KINDS:
            return Gen(x.kind, (MatrixLabel.of(gamma(x.word, g)),))
        return x

    return fold(d, gen, Seq, Par, Trace, Empty())
