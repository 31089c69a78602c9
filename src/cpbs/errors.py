"""Exception types raised by the coloured-PBS toolkit.

Type errors in term formation use the builtin TypeError and parse
errors in the text format use the builtin SyntaxError; everything else
lives here.
"""

from __future__ import annotations


class CpbsError(Exception):
    """Base class for library-specific failures."""


class InvalidConfiguration(CpbsError):
    """A start configuration is not admitted by the diagram input type."""


class NotBijective(CpbsError):
    """A requested synthesis needs a bijective configuration action."""


class TypeMismatch(CpbsError):
    """Two diagrams being compared do not share input and output types."""


class StaleInstance(CpbsError):
    """A match instance no longer applies to the rewritten diagram."""


class DerivationFailed(CpbsError):
    """Replaying a derived rule did not reproduce its right-hand side."""


class HasGates(CpbsError):
    """A gate-free construction was given a table or diagram with gates."""


class NotQueryOptimal(CpbsError):
    """An input was required to already meet its query lower bounds."""


class PreconditionViolated(CpbsError):
    """An explicit size or shape precondition does not hold."""


class NotFound(CpbsError):
    """Exhaustive search finished without a witness inside the budget."""


class BudgetExceeded(CpbsError):
    """An instance is larger than the supported brute-force budget."""


class NotEulerian(CpbsError):
    """The multigraph has no Eulerian circuit (odd degree or disconnected)."""


class LengthMismatch(CpbsError):
    """A word list and a permutation disagree in length."""


class InvalidDecomposition(CpbsError):
    """A claimed cycle decomposition does not partition the edge set."""


class MissingAssignment(CpbsError):
    """A gate letter has no matrix in the given assignment."""

    def __init__(self, letter: str) -> None:
        super().__init__(f"no matrix assigned to oracle letter {letter!r}")
        self.letter = letter
