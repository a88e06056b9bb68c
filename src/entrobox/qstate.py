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
``(n, d, d)`` array, with every reduction it needs taken by one gather and
one per-cell sum over the flattened matrices, on the cached index plan of
:mod:`.simplex` (a vector marginal is the diagonal of a reduction's cell
map), and entropies by one stacked ``eigvalsh`` pass per matrix size: the
quantum tables of a list of stacks take every reduction of every stack in
one gather over their flattened matrices laid side by side, and every
spectrum they need, the joint ones included, diagonalizing each size once
and writing each size's entropies straight into the rows of the step's
entropy array. The tables take their reductions, sides and ids from the
rule table of :mod:`.simplex`, with a ``q-`` prefix, and give all of
their checks as one block (:class:`CheckBlock`). Each public single-matrix function is its
kernel run on a batch of one, read as the first row of the block's first
check, so a state's result does not depend on the batch it was checked in.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadTraceError,
    NotHermitianError,
    NotPositiveError,
    ShapeMismatchError,
    ShrinkForbiddenError,
)
from .report import GAP_TOLERANCE, CheckBlock, InequalityReport, _filled, _first
from .simplex import (
    EntropyValue,
    _cell_plan,
    _CellPlan,
    _cells,
    _factors,
    _FLOAT_MAX,
    _freeze,
    _plan_block,
    _public_kept,
    _shannon_rows,
    _side_by_side_rows,
    _step_plan,
    _StepPlan,
    _table_plan,
)

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
    the surviving subsystems, 1-based: either part of subadditivity for two
    factors, either pair or the middle of strong subadditivity for three.
    """

    factors: tuple[int, ...]
    kept: tuple[int, ...]

    def __post_init__(self) -> None:
        factors = _factors(self.factors, None, 0)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "kept", _public_kept(len(factors), self.kept))

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
    low = np.minimum.reduce(vals, axis=1)
    fine = low >= _EIG_FLOOR
    if not fine.all():
        bad = np.flatnonzero(~fine)[0]
        raise NotPositiveError(f"eigenvalue {low[bad]:.3e} is below {_EIG_FLOOR:.1e}")
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
    # One pass finds entries that are not finite, and entries so large that
    # the sums below could overflow; no density matrix comes near those.
    top = float(np.abs(arr.view(float)).max())
    if not math.isfinite(top):
        raise NotHermitianError("density matrix has non-finite entries")
    if not top <= _FLOAT_MAX / (4 * len(arr)):
        raise NotHermitianError(f"density matrix entry {top:.3e} is too large to validate")
    defect = float(np.abs(arr - arr.conj().T).max())
    if not defect <= tol:
        raise NotHermitianError(f"Hermiticity defect {defect:.3e} exceeds {tol:.1e}")
    arr = (arr + arr.conj().T) / 2.0
    trace = float(arr.trace().real)
    if not abs(trace - 1.0) <= 1e-6:
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
    ``size`` x ``size`` zeros, ``size`` > d."""
    n, d = mats.shape[:2]
    out = np.zeros((n, size, size), dtype=complex)
    out[:, :d, :d] = mats
    return out


def _reductions(mats: np.ndarray, plan: _CellPlan) -> list[np.ndarray]:
    """The reduced states (n, K, K) of each matrix of a stack (n, d, d), one
    stack for each reduction of ``plan``; every cell of every reduction
    comes from one gather and one per-cell sum over the flattened
    matrices."""
    n, d = mats.shape[:2]
    return _reduced(_cells(mats.reshape(n, d * d), plan), plan)


def _reduced(cells: np.ndarray, plan: _CellPlan) -> list[np.ndarray]:
    """The reduced states (n, K, K) of each reduction of ``plan``, from its
    cells (n, cells)."""
    n = len(cells)
    return [
        cells[:, first + 1 : first + 1 + k * k].reshape(n, k, k)
        for first, k in zip(plan.firsts.tolist(), plan.dims)
    ]


def _reduce_rows(mats: np.ndarray, factors: tuple[int, ...], kept: tuple[int, ...]) -> np.ndarray:
    """:func:`reduce` of each matrix of a stack (n, d, d), for ``factors``
    and ``kept`` the caller has checked."""
    return _reductions(mats, _cell_plan(mats.shape[1], [(factors, kept)], True))[0]


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
    vals = np.maximum(_checked_eigvalsh(mats)[:, ::-1], 0.0)
    return vals / np.add.reduce(vals, axis=1, keepdims=True)


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


def _entropy_rows_by_size(stacks: list[np.ndarray]) -> np.ndarray:
    """:func:`_entropy_rows` of each of a list of stacks of m matrices, as
    the rows (stacks + 1, m) of one array, a row of zeros last. All stacks
    of one matrix size are taken in one stacked pass, whose entropies are
    written into their rows. A bad matrix is rejected as the stack-by-stack
    loop rejects it: the first one in list order."""
    groups: dict[int, list[int]] = {}
    for i, stack in enumerate(stacks):
        groups.setdefault(stack.shape[1], []).append(i)
    e = np.zeros((len(stacks) + 1, len(stacks[0])))
    try:
        for members in groups.values():
            if len(members) == 1:  # a size with one stack takes it as is, uncopied
                e[members[0]] = _entropy_rows(stacks[members[0]])
            else:
                flat = _entropy_rows(np.concatenate([stacks[i] for i in members]))
                e[members] = flat.reshape(len(members), -1)
    except NotPositiveError:
        for stack in stacks:
            _entropy_rows(stack)
        raise
    return e


def _q_table_block(stacks: list[np.ndarray], plan: _StepPlan, tolerance: float) -> CheckBlock:
    """The quantum table checks of ``plan`` (a :func:`~.simplex._step_plan`
    of matrices) on its stacks of matrices (n, d, d), as one block: for each
    matrix, :func:`quantum_subadditivity` of a 2-factor shape and
    :func:`quantum_strong_subadditivity` of a 3-factor one. Every reduction
    of every stack comes from one gather, each joint entropy is taken once,
    every spectrum of one matrix size, over all the stacks, in one pass, and
    every side of every check is summed at once."""
    lengths = [len(mats) for mats in stacks]
    m = max(lengths)
    stacks = [_filled(mats, m) for mats in stacks]
    flat = _side_by_side_rows([mats.reshape(m, -1) for mats in stacks], m)
    reduced = iter(_reduced(_cells(flat, plan.cells), plan.cells))
    # stack by stack, the matrices themselves, then their reductions
    matrices = [
        x for mats, k in zip(stacks, plan.reductions) for x in (mats, *itertools.islice(reduced, k))
    ]
    return _plan_block(plan, _entropy_rows_by_size(matrices), lengths, tolerance)


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
    plan = _step_plan(((rho.dim, (shape,), "", None),), True)
    return _first(_q_table_block([rho.matrix[None]], plan, tolerance), provenance)


def quantum_strong_subadditivity(
    rho: DensityMatrix,
    factors: tuple[int, int, int],
    tolerance: float = GAP_TOLERANCE,
    provenance: str = "",
) -> InequalityReport:
    """Check S(R12) + S(R23) >= S(rho) + S(R2) for the 3-factor rereading."""
    shape = _factors(factors, 3, rho.dim)
    plan = _step_plan(((rho.dim, (shape,), "", None),), True)
    return _first(_q_table_block([rho.matrix[None]], plan, tolerance), provenance)


def qutrit_reductions(rho: DensityMatrix) -> tuple[DensityMatrix, DensityMatrix]:
    """The two artificial qubit states hidden in a qutrit.

    The qutrit is padded to 4 x 4 and reread as two qubits; both single
    qubit reductions are returned. Their entropies bound the qutrit's own:
    S(rho) <= S(rho1) + S(rho2).
    """
    if rho.dim != 3:
        raise ShapeMismatchError(f"expected a qutrit, got dim {rho.dim}")
    # the two parts of the 2 x 2 table check, from one gather
    parts = _reductions(pad_density(rho, 4).matrix[None], _table_plan(4, ((2, 2),), True)[0])
    return DensityMatrix(parts[0][0]), DensityMatrix(parts[1][0])
