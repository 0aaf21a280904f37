"""Exception hierarchy shared by the whole package."""

from __future__ import annotations


class HomcohError(Exception):
    """Base class for all package errors."""


class UsageError(HomcohError):
    """Caller passed structurally invalid data (dimension mismatch etc.)."""


class ArityLimitError(UsageError):
    """Requested cochain arity exceeds the HOMCOH_MAX_ARITY guard."""


class ParseError(HomcohError):
    """Input file or rational literal could not be parsed."""


class MorphismViolation(HomcohError):
    """A map required to be multiplicative is not; carries a witness pair."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class InvalidMorphism(HomcohError):
    """An operation required a valid morphism and got an invalid one."""


class InvalidAlgebra(HomcohError):
    """An operation required a valid algebra and got an invalid one."""


class NotACocycle(HomcohError):
    """A cochain expected to be a cocycle is not (inconsistent input)."""


class ObstructionMismatch(HomcohError):
    """The bracket-form obstruction disagrees with the order-by-order
    coefficient of the deformation equation; signals a sign-convention
    bug and is never absorbed silently."""
