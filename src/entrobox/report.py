"""Report records shared by the inequality checks.

Every check in the package produces an :class:`InequalityReport` with the
same orientation convention: the inequality under test is ``lhs <= rhs`` and
``gap = rhs - lhs``, so a nonnegative gap means the inequality holds. Gaps
are allowed to dip to ``-tolerance`` before a check is marked failed, which
absorbs eigensolver and summation noise without hiding real violations.

Every kernel gives the checks of one call as one :class:`CheckBlock`,
under the ids the report shows: their sides and gaps as (checks x rows)
arrays, and a mark on each check that is an identity, whose gap is
``-|lhs - rhs|`` and whose tolerance is its own. :func:`_block` is the one
place a block's gaps and floors are made. A suite reads a block's gaps
alone; :meth:`CheckBlock.columns` builds one check as its
:class:`CheckColumns`, one entry per state in each column, only for a check
with a failing row or for a single-state call (:func:`_first`). A report
is built in one place, :func:`make_report`, which
:meth:`CheckColumns.report` calls for one row of an inequality or an
identity alike, so a report object is built only where one is wanted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

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
    """One named check over a stack of n states, as columns: the view of one
    check of a :class:`CheckBlock` that :meth:`CheckBlock.columns` builds.

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
        return -np.abs(self.lhs - self.rhs) if self.identity else self.rhs - self.lhs

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




class CheckBlock(NamedTuple):
    """Every check of one kernel call over a list of stacks of states, as one
    gap array, under the ids its report rows take.

    Check c is named ``names[c]``, passes a row iff its gap is at least its
    floor ``floors[c, 0]`` (its tolerance, negated), and covers the first
    ``rows[c]`` states of stack ``stacks[c]``. Its sides are rows c of
    ``lhs`` and ``rhs`` (checks x m), and row c of ``gaps`` holds its gaps,
    ``rhs - lhs``, or ``-|lhs - rhs|`` when c is an identity, a key of
    ``identities``. Past its rows, a check's sides and gaps repeat its last
    state's, which leaves the first of its least and of its greatest gaps
    where it is. ``details(c)`` gives the entropies and flags (or None) of
    check c, one entry per row of its own; an identity has none, its
    entropies being its two sides. ``counts``, when a
    check counts work, is each check's counts.
    """

    names: tuple[str, ...]
    gaps: np.ndarray
    floors: np.ndarray
    rows: np.ndarray
    stacks: Sequence[int]
    lhs: np.ndarray
    rhs: np.ndarray
    identities: dict[int, float]
    details: Callable[[int], tuple[dict[str, np.ndarray], dict[str, np.ndarray] | None]]
    counts: tuple[dict[str, np.ndarray] | None, ...] | None = None

    def columns(self, c: int) -> CheckColumns:
        """Check c as its :class:`CheckColumns`, over its own rows: built
        only for a check that a failing row or a single-state call reads."""
        n = self.rows[c]
        lhs, rhs = self.lhs[c, :n], self.rhs[c, :n]
        if c in self.identities:
            entropies = {"lhs": lhs, "rhs": rhs}
            return CheckColumns(self.names[c], lhs, rhs, entropies, self.identities[c], True)
        entropies, flags = self.details(c)
        return CheckColumns(
            self.names[c],
            lhs,
            rhs,
            entropies,
            float(-self.floors[c, 0]),
            flags=flags,
            counts=self.counts and self.counts[c],
        )


def _filled(array: np.ndarray, m: int, axis: int = 0) -> np.ndarray:
    """``array`` with its last entry along ``axis`` repeated until it holds
    ``m`` there: a stack of states filled to a longer one's length, or each
    check's gaps past its rows."""
    n = array.shape[axis]
    if n == m:
        return array
    return np.concatenate((array, np.repeat(array.take([n - 1], axis), m - n, axis)), axis)


def _block(
    names: tuple[str, ...],
    lhs: np.ndarray,
    rhs: np.ndarray,
    tolerance,
    details: Callable,
    identities: dict[int, float] | None = None,
    rows: np.ndarray | None = None,
    stacks: Sequence[int] | None = None,
    counts: tuple | None = None,
) -> CheckBlock:
    """The :class:`CheckBlock` of the checks ``names``, each comparing its
    row of ``lhs`` and of ``rhs`` (checks x m): the one place a block's gaps
    and floors are made. Every check takes ``tolerance`` (a value, or one
    per check), except an identity, which takes its own, ``identities[c]``:
    its gap -|lhs - rhs| is ``rhs - lhs`` with its sign cleared and then
    set, bit for bit. By default every check covers all m states of stack 0.
    """
    gaps = rhs - lhs
    floors = np.empty((len(names), 1))
    floors[:, 0] = np.negative(tolerance)
    identities = identities or {}
    for c, own in identities.items():
        gaps[c] = -np.abs(gaps[c])
        floors[c] = -own
    if rows is None:
        rows = np.array([lhs.shape[1]] * len(names))
        stacks = (0,) * len(names)
    return CheckBlock(names, gaps, floors, rows, stacks, lhs, rhs, identities, details, counts)


def _first(block: CheckBlock, provenance: str = "", check: int = 0) -> InequalityReport:
    """The report of the first row of check ``check`` of ``block``: what a
    single-state call returns."""
    return block.columns(check).report(0, provenance)
