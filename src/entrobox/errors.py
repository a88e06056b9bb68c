"""Exception types raised by entrobox validation and reshaping routines.

Everything derives from :class:`EntroboxError`, which itself derives from
``ValueError`` so that generic callers can catch one base class. The CLI
maps any :class:`EntroboxError` raised while ingesting input to exit code 2.
"""

from __future__ import annotations

__all__ = [
    "EntroboxError",
    "NegativeProbabilityError",
    "ProbabilitySumError",
    "ShrinkForbiddenError",
    "ShapeMismatchError",
    "BadAxisError",
    "BadOrderError",
    "NotHermitianError",
    "NotPositiveError",
    "BadTraceError",
    "NotUnitaryError",
    "DimMismatchError",
    "BadAngleError",
]


class EntroboxError(ValueError):
    """Base class for validation and shape errors raised by this package."""


class NegativeProbabilityError(EntroboxError):
    """A probability component is more negative than the clipping tolerance."""


class ProbabilitySumError(EntroboxError):
    """A probability vector's sum is too far from 1 to renormalize silently."""


class ShrinkForbiddenError(EntroboxError):
    """Padding was asked to produce fewer components than the input has."""


class ShapeMismatchError(EntroboxError):
    """A requested factorization is incompatible with the object's dimension."""


class BadAxisError(EntroboxError):
    """A marginal or reduction asked to keep axes that do not exist."""


class BadOrderError(EntroboxError):
    """A Tsallis entropic order q outside the admissible range (q > 0)."""


class NotHermitianError(EntroboxError):
    """A candidate density matrix is not Hermitian within tolerance."""


class NotPositiveError(EntroboxError):
    """A candidate density matrix has an eigenvalue below -1e-8."""


class BadTraceError(EntroboxError):
    """A candidate density matrix's trace is too far from 1 to renormalize."""


class NotUnitaryError(EntroboxError):
    """A candidate unitary matrix fails the U^dag U = I check."""


class DimMismatchError(EntroboxError):
    """Two objects that must share a dimension do not."""


class BadAngleError(EntroboxError):
    """A spherical angle lies outside its admissible range."""
