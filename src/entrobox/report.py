"""Report records shared by the inequality checks.

Every check in the package produces an :class:`InequalityReport` with the
same orientation convention: the inequality under test is ``lhs <= rhs`` and
``gap = rhs - lhs``, so a nonnegative gap means the inequality holds. Gaps
are allowed to dip to ``-tolerance`` before a check is marked failed, which
absorbs eigensolver and summation noise without hiding real violations.

Every check travels in one record, :class:`CheckColumns`, from the kernel
that computes it over a stack of states to the report: one entry per state
in each column, under the one name the check is known by. A report is built
in one place, :func:`make_report`, which :meth:`CheckColumns.report` calls
for one row of an inequality or an identity (:func:`_identity`) alike, so a
report object is built only where one is wanted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# Absolute floor applied to inequality gaps throughout the package.
GAP_TOLERANCE = 1e-9

# Absolute tolerance for identities that must hold to numerical precision.
IDENTITY_TOLERANCE = 1e-12


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one named inequality check on one state.

    Attributes
    ----------
    name:
        Stable identifier of the check, e.g. ``"subadd-2x4"``.
    lhs, rhs:
        The two sides of ``lhs <= rhs``.
    gap:
        ``rhs - lhs``.
    tolerance:
        Absolute floor: the check passes iff ``gap >= -tolerance``.
    passed:
        Whether the check passed.
    entropies:
        Every entropy value entering the check, keyed by role.
    provenance:
        Human-readable origin of the state tested (sampler, seed, trial).
    flags:
        Conventions applied while evaluating, e.g. zero-block replacements.
    """

    name: str
    lhs: float
    rhs: float
    gap: float
    tolerance: float
    passed: bool
    entropies: dict[str, float] = field(default_factory=dict)
    provenance: str = ""
    flags: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        """Plain-dict form used by the CLI's JSON reports."""
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "gap": self.gap,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "entropies": dict(self.entropies),
            "provenance": self.provenance,
            "flags": list(self.flags),
        }


def make_report(
    name: str,
    lhs: float,
    rhs: float,
    tolerance: float,
    entropies: dict[str, float],
    provenance: str = "",
    flags: tuple[str, ...] = (),
    identity: bool = False,
) -> InequalityReport:
    """Build a report, deriving ``gap`` and ``passed`` from the two sides.

    An inequality's gap is ``rhs - lhs``; an identity's (``identity=True``)
    is ``-|lhs - rhs|``. Either passes iff ``gap >= -tolerance``.
    """
    gap = -abs(lhs - rhs) if identity else rhs - lhs
    return InequalityReport(
        name=name,
        lhs=lhs,
        rhs=rhs,
        gap=gap,
        tolerance=tolerance,
        passed=bool(gap >= -tolerance),
        entropies=entropies,
        provenance=provenance,
        flags=flags,
    )


class CheckColumns(NamedTuple):
    """One named check over a stack of n states, as columns.

    ``name`` is the one id the check is known by, in a suite's table and in
    each of its reports. ``lhs``, ``rhs`` and every entry of ``entropies``
    are arrays (n,). An inequality's gap is ``rhs - lhs``; an identity's
    (``identity=True``) is ``-|lhs - rhs|``, so "gap >= -tolerance" is the
    test for both. Each entry of ``flags`` is a boolean column saying which
    rows carry that flag, and each entry of ``counts`` an integer column of
    work done per row, which a suite sums over its rows.
    """

    name: str
    lhs: np.ndarray
    rhs: np.ndarray
    entropies: dict[str, np.ndarray]
    tolerance: float
    identity: bool = False
    flags: dict[str, np.ndarray] | None = None
    counts: dict[str, np.ndarray] | None = None

    def gaps(self) -> np.ndarray:
        """The gap of every row, computed as its report computes it."""
        if self.identity:
            return -np.abs(self.lhs - self.rhs)
        return self.rhs - self.lhs

    def report(self, i: int, provenance: str = "") -> InequalityReport:
        """The report of row ``i``, built by :func:`make_report`."""
        return make_report(
            self.name,
            float(self.lhs[i]),
            float(self.rhs[i]),
            self.tolerance,
            {role: float(column[i]) for role, column in self.entropies.items()},
            provenance,
            tuple(flag for flag, rows in (self.flags or {}).items() if rows[i]),
            self.identity,
        )


def _identity(name: str, lhs: np.ndarray, rhs: np.ndarray, tol: float) -> CheckColumns:
    """Equalities |lhs - rhs| <= tol, with the two sides as the entropies.

    The gap is -(|lhs - rhs|), so "gap >= -tol" is the equality test and
    the aggregate's min_gap shows the worst deviation.
    """
    return CheckColumns(name, lhs, rhs, {"lhs": lhs, "rhs": rhs}, tol, identity=True)
