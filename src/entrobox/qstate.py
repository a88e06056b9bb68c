"""Density matrices, zero-padding, subsystem reductions, and the quantum
entropy inequalities for a single system without physical parts.

The classical simplex trick has an exact matrix analog: a d x d density
matrix, padded with zero rows and columns until d factors as N1 * N2 (or
N1 * N2 * N3), is reread as the state of artificial subsystems through the
same row-major index bijection applied to rows and columns jointly. Summing
paired sub-indices produces reduced states (the partial-trace analog), and
von Neumann entropy of those reductions obeys subadditivity and strong
subadditivity even though no physical subsystems exist.

Every check is computed by one private kernel over a stack of matrices, an
``(n, d, d)`` array, with reductions done by one batched ``einsum`` and
entropies by one stacked ``eigvalsh`` pass per matrix size: the quantum
tables of a chunk stack every spectrum they need, the joint one included,
and diagonalize each size once. A kernel returns its check as columns
(:class:`CheckColumns`). Each public single-matrix function is its
kernel run on a batch of one, so a state's result does not depend on the
batch it was checked in.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadAxisError,
    BadTraceError,
    NotHermitianError,
    NotPositiveError,
    ShapeMismatchError,
    ShrinkForbiddenError,
)
from .report import GAP_TOLERANCE, CheckColumns, InequalityReport
from .simplex import EntropyValue, _factors, _freeze, _shannon_rows

__all__ = [
    "DensityMatrix",
    "Spectrum",
    "ReductionPlan",
    "validate_density",
    "pad_density",
    "reduce",
    "spectrum",
    "von_neumann",
    "quantum_subadditivity",
    "quantum_strong_subadditivity",
    "qutrit_reductions",
]

# Eigenvalues no lower than this are treated as numerical zeros.
_EIG_FLOOR = -1e-8


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """An immutable density matrix.

    Construct via :func:`validate_density` for raw external data; direct
    construction is for matrices already known to be valid (reductions,
    samplers). ``ref`` is a stable content hash used to tie derived
    objects, e.g. tomograms, back to their source state.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.matrix, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ShapeMismatchError(f"density matrix must be square, got {arr.shape}")
        _freeze(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def ref(self) -> str:
        return _content_ref(self.matrix)

    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal().real.copy()


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues of a density matrix, descending, clipped, renormalized."""

    eigenvalues: np.ndarray

    def __post_init__(self) -> None:
        _freeze(self, "eigenvalues", np.asarray(self.eigenvalues, dtype=float))


@dataclass(frozen=True)
class ReductionPlan:
    """How to reread a matrix as subsystems and which ones to keep.

    ``factors`` is the subsystem split (2 or 3 factors, each >= 2) whose
    product must cover the matrix dimension after padding; ``kept`` names
    the surviving subsystems, 1-based. Allowed: (1,) and (2,) for two
    factors; (1, 2), (2, 3) and (2,) for three.
    """

    factors: tuple[int, ...]
    kept: tuple[int, ...]

    _ALLOWED = {2: {(1,), (2,)}, 3: {(1, 2), (2, 3), (2,)}}

    def __post_init__(self) -> None:
        factors = _factors(self.factors, None, 0)
        kept = tuple(int(k) for k in self.kept)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "kept", kept)
        if kept not in self._ALLOWED[len(factors)]:
            raise BadAxisError(
                f"cannot keep {kept} out of {len(factors)} subsystems"
            )

    @property
    def kept_dim(self) -> int:
        return math.prod(self.factors[k - 1] for k in self.kept)


def _content_ref(matrix: np.ndarray) -> str:
    """Stable content hash of a complex d x d matrix (:attr:`DensityMatrix.ref`)."""
    digest = hashlib.sha1(np.ascontiguousarray(matrix).tobytes())
    return f"dm{matrix.shape[0]}-{digest.hexdigest()[:12]}"


def _checked_eigvalsh(mats: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (n, d) of a stack of Hermitian matrices; the
    first matrix with an eigenvalue below the floor is rejected."""
    vals = np.linalg.eigvalsh(mats)
    low = vals.min(axis=1)
    bad = np.flatnonzero(low < _EIG_FLOOR)
    if bad.size:
        raise NotPositiveError(f"eigenvalue {low[bad[0]]:.3e} is below {_EIG_FLOOR:.1e}")
    return vals


def validate_density(raw, tol: float = 1e-10) -> DensityMatrix:
    """Validate raw data as a density matrix.

    Hermiticity defects up to ``tol`` are symmetrized away via
    (rho + rho^dag) / 2; the trace may sit within 1e-6 of 1 and is
    renormalized exactly; eigenvalues down to -1e-8 are tolerated (they
    are clipped later wherever a spectrum is consumed).
    """
    try:
        arr = np.asarray(raw, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise NotHermitianError(f"not a numeric matrix: {exc}") from exc
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ShapeMismatchError(f"density matrix must be square, got {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise NotHermitianError("density matrix has non-finite entries")
    defect = float(np.abs(arr - arr.conj().T).max())
    if defect > tol:
        raise NotHermitianError(f"Hermiticity defect {defect:.3e} exceeds {tol:.1e}")
    arr = (arr + arr.conj().T) / 2.0
    trace = float(arr.trace().real)
    if abs(trace - 1.0) > 1e-6:
        raise BadTraceError(f"trace is {trace!r}, not 1")
    arr = arr / trace
    _checked_eigvalsh(arr[None])
    return DensityMatrix(arr)


def pad_density(rho: DensityMatrix, new_dim: int) -> DensityMatrix:
    """Embed ``rho`` as the top-left block of a ``new_dim`` matrix.

    The appended rows and columns are zero, so the spectrum gains only
    zero eigenvalues and every entropy is unchanged.
    """
    if new_dim < rho.dim:
        raise ShrinkForbiddenError(f"cannot pad dim {rho.dim} down to {new_dim}")
    if new_dim == rho.dim:
        return rho
    return DensityMatrix(_padded_rows(rho.matrix[None], new_dim)[0])


def _padded_rows(mats: np.ndarray, size: int) -> np.ndarray:
    """A stack of matrices (n, d, d), each embedded as the top-left block of
    ``size`` x ``size`` zeros; the stack itself when d == ``size``."""
    n, d = mats.shape[:2]
    if size == d:
        return mats
    out = np.zeros((n, size, size), dtype=complex)
    out[:, :d, :d] = mats
    return out


def _reduce_rows(mats: np.ndarray, factors: tuple[int, ...], kept: tuple[int, ...]) -> np.ndarray:
    """:func:`reduce` of each matrix of a stack (n, d, d), as one einsum,
    for ``factors`` and ``kept`` the caller has checked."""
    n = mats.shape[0]
    k = len(factors)
    tensor = _padded_rows(mats, math.prod(factors)).reshape((n,) + factors + factors)
    row = "abc"[:k]
    col = list("def"[:k])
    for axis in range(1, k + 1):
        if axis not in kept:
            col[axis - 1] = row[axis - 1]
    out_axes = "".join(row[i - 1] for i in kept) + "".join(col[i - 1] for i in kept)
    reduced = np.einsum(f"z{row}{''.join(col)}->z{out_axes}", tensor)
    d = math.prod(factors[i - 1] for i in kept)
    return reduced.reshape(n, d, d)


def reduce(rho: DensityMatrix, plan: ReductionPlan) -> DensityMatrix:
    """Reduced state of the kept subsystems under the row-major rereading.

    Rows and columns are split into sub-indices by ``plan.factors``; the
    dropped sub-indices are summed where row and column agree. For a true
    tensor-product state this is the partial trace; here it is applied to
    a single indivisible system. Trace is preserved exactly and positivity
    to numerical precision.
    """
    factors = _factors(plan.factors, None, rho.dim)
    return DensityMatrix(_reduce_rows(rho.matrix[None], factors, plan.kept)[0])


def _spectra(mats: np.ndarray) -> np.ndarray:
    """:func:`spectrum` of each matrix of a stack, as rows (n, d)."""
    vals = np.clip(_checked_eigvalsh(mats)[:, ::-1], 0.0, None)
    return vals / vals.sum(axis=1, keepdims=True)


def spectrum(rho: DensityMatrix) -> Spectrum:
    """Eigenvalues in descending order, clipped at zero and renormalized.

    Negative eigenvalues above the -1e-8 floor are numerical noise and are
    clipped to 0; below the floor the matrix is rejected outright.
    """
    return Spectrum(_spectra(rho.matrix[None])[0])


def _entropy_rows(mats: np.ndarray) -> np.ndarray:
    """Von Neumann entropy of each matrix of a stack."""
    return _shannon_rows(_spectra(mats))


def von_neumann(rho: DensityMatrix) -> EntropyValue:
    """Von Neumann entropy -Tr(rho ln rho) in nats, via the spectrum."""
    return EntropyValue(float(_entropy_rows(rho.matrix[None])[0]), "von_neumann")


# The reductions each table check takes, by role, for 2 and 3 factors.
_TABLE_ROLES = {
    2: {"part1": (1,), "part2": (2,)},
    3: {"pair12": (1, 2), "pair23": (2, 3), "part2": (2,)},
}


def _entropy_rows_by_size(stacks: list[np.ndarray]) -> list[np.ndarray]:
    """:func:`_entropy_rows` of each of a list of equally long stacks, with
    all stacks of one matrix size taken in one stacked pass. A bad matrix
    is rejected as the stack-by-stack loop rejects it: the first one in
    list order."""
    n = len(stacks[0])
    groups: dict[int, list[int]] = {}
    for i, stack in enumerate(stacks):
        groups.setdefault(stack.shape[1], []).append(i)
    out: list[np.ndarray] = [None] * len(stacks)
    try:
        for members in groups.values():
            flat = _entropy_rows(np.concatenate([stacks[i] for i in members]))
            for j, i in enumerate(members):
                out[i] = flat[j * n : (j + 1) * n]
    except NotPositiveError:
        for stack in stacks:
            _entropy_rows(stack)
        raise
    return out


def _q_table_columns(mats: np.ndarray, shapes, tolerance: float) -> list[CheckColumns]:
    """:func:`quantum_subadditivity` (2 factors) or
    :func:`quantum_strong_subadditivity` (3 factors) of each matrix of a
    stack, for each of the checked ``shapes`` in turn. The joint entropy is
    taken once, and every spectrum of one matrix size in one pass."""
    stacks = [mats]
    for shape in shapes:
        stacks += [_reduce_rows(mats, shape, kept) for kept in _TABLE_ROLES[len(shape)].values()]
    entropies = iter(_entropy_rows_by_size(stacks))
    s_joint = next(entropies)
    checks = []
    for shape in shapes:
        s = {role: next(entropies) for role in _TABLE_ROLES[len(shape)]}
        if len(shape) == 2:
            name, lhs, rhs = "q-subadd", s_joint, s["part1"] + s["part2"]
        else:
            name = "q-strong-subadd"
            lhs, rhs = s_joint + s["part2"], s["pair12"] + s["pair23"]
        name += "-" + "x".join(map(str, shape))
        checks.append(CheckColumns(name, lhs, rhs, {"joint": s_joint, **s}, tolerance))
    return checks


def quantum_subadditivity(
    rho: DensityMatrix,
    factors: tuple[int, int],
    tolerance: float = GAP_TOLERANCE,
    provenance: str = "",
) -> InequalityReport:
    """Check S(rho1) + S(rho2) >= S(rho) for the 2-factor rereading.

    ``rho`` is padded to the product of ``factors`` if needed; padding
    leaves S(rho) unchanged.
    """
    shape = _factors(factors, 2, rho.dim)
    return _q_table_columns(rho.matrix[None], [shape], tolerance)[0].report(0, provenance)


def quantum_strong_subadditivity(
    rho: DensityMatrix,
    factors: tuple[int, int, int],
    tolerance: float = GAP_TOLERANCE,
    provenance: str = "",
) -> InequalityReport:
    """Check S(R12) + S(R23) >= S(rho) + S(R2) for the 3-factor rereading."""
    shape = _factors(factors, 3, rho.dim)
    return _q_table_columns(rho.matrix[None], [shape], tolerance)[0].report(0, provenance)


def qutrit_reductions(rho: DensityMatrix) -> tuple[DensityMatrix, DensityMatrix]:
    """The two artificial qubit states hidden in a qutrit.

    The qutrit is padded to 4 x 4 and reread as two qubits; both single
    qubit reductions are returned. Their entropies bound the qutrit's own:
    S(rho) <= S(rho1) + S(rho2).
    """
    if rho.dim != 3:
        raise ShapeMismatchError(f"expected a qutrit, got dim {rho.dim}")
    padded = pad_density(rho, 4)
    return (
        reduce(padded, ReductionPlan((2, 2), (1,))),
        reduce(padded, ReductionPlan((2, 2), (2,))),
    )
