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
report object is built only where one is wanted. A kernel gives the checks
of one call as a :class:`CheckBlock`: their gaps as one array, each check's
columns built only on demand.
"""

from __future__ import annotations

import functools
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
        return _gaps(self.lhs, self.rhs, self.identity)

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


def _gaps(lhs: np.ndarray, rhs: np.ndarray, identity: bool) -> np.ndarray:
    """The gap of every row: ``rhs - lhs``, an identity's ``-|lhs - rhs|``."""
    return -np.abs(lhs - rhs) if identity else rhs - lhs


def _identity(name: str, lhs: np.ndarray, rhs: np.ndarray, tol: float) -> CheckColumns:
    """Equalities |lhs - rhs| <= tol, with the two sides as the entropies.

    The gap is -(|lhs - rhs|), so "gap >= -tol" is the equality test and
    the aggregate's min_gap shows the worst deviation.
    """
    return CheckColumns(name, lhs, rhs, {"lhs": lhs, "rhs": rhs}, tol, identity=True)


class CheckBlock(NamedTuple):
    """Every check of one kernel call over a list of stacks of states, as one
    gap array.

    Check c is named ``names[c]``, passes a row iff its gap is at least its
    floor ``floors[c, 0]`` (its tolerance, negated), and covers the first
    ``rows[c]`` states of stack ``stacks[c]``: row c of ``gaps`` (checks x
    m) holds their gaps, computed as the check's :class:`CheckColumns`
    computes them, and past them its last gap repeated, which leaves the
    first of its least and of its greatest gaps where it is.
    ``columns(c)`` builds check c as its :class:`CheckColumns` on demand, so
    that a suite builds one only for a check with a failing row. ``counts``,
    when a check counts work, is each check's ``counts``.
    """

    names: tuple[str, ...]
    gaps: np.ndarray
    floors: np.ndarray
    rows: np.ndarray
    stacks: Sequence[int]
    columns: Callable[[int], CheckColumns]
    counts: tuple[dict[str, np.ndarray] | None, ...] | None = None

    def all_columns(self) -> list[CheckColumns]:
        """Every check, as its columns."""
        return [self.columns(c) for c in range(len(self.names))]


def _filled(array: np.ndarray, m: int, axis: int = 0) -> np.ndarray:
    """``array`` with its last entry along ``axis`` repeated until it holds
    ``m`` there: a stack of states filled to a longer one's length, or each
    check's gaps past its rows."""
    n = array.shape[axis]
    if n == m:
        return array
    return np.concatenate((array, np.repeat(array.take([n - 1], axis), m - n, axis)), axis)


class _Check(NamedTuple):
    """A check of :func:`_block`: the stack it reads, its id, its gaps and
    tolerance, how to build its :class:`CheckColumns`, and its counts."""

    stack: int
    name: str
    gaps: np.ndarray
    tolerance: float
    build: Callable[[], CheckColumns]
    counts: dict[str, np.ndarray] | None = None


def _block(checks: list[_Check]) -> CheckBlock:
    """The block of ``checks``."""
    stacks, names, gaps, tolerances, builds, counts = zip(*checks)
    rows = np.array([len(g) for g in gaps])
    m = rows.max()
    return CheckBlock(
        names,
        np.stack([_filled(g, m) for g in gaps]),
        -np.array(tolerances, dtype=float)[:, None],
        rows,
        stacks,
        lambda c: builds[c](),
        counts if any(c is not None for c in counts) else None,
    )


def _lazy(name, lhs, rhs, entropies, tolerance, identity=False) -> _Check:
    """A check on stack 0, built as ``CheckColumns(name, lhs, rhs,
    entropies, tolerance, identity)`` on demand."""
    build = functools.partial(CheckColumns, name, lhs, rhs, entropies, tolerance, identity)
    return _Check(0, name, _gaps(lhs, rhs, identity), tolerance, build)


def _lazy_identity(name: str, lhs: np.ndarray, rhs: np.ndarray, tol: float) -> _Check:
    """:func:`_identity` as a check on stack 0, built on demand."""
    return _lazy(name, lhs, rhs, {"lhs": lhs, "rhs": rhs}, tol, identity=True)


def _block_of(stacks: list[list[CheckColumns]]) -> CheckBlock:
    """The block of checks already built as columns, stack by stack."""
    return _block(
        [
            _Check(j, c.name, c.gaps(), c.tolerance, lambda c=c: c, c.counts)
            for j, checks in enumerate(stacks)
            for c in checks
        ]
    )
