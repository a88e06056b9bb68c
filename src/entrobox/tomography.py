"""Unitary-basis probability readouts of a density matrix, entropy
minimization over bases, and the discord-type correlation measure for a
single indivisible system.

For a unitary u the vector w = diag(u rho u^dag) is a genuine probability
distribution: the statistics of measuring rho in the rotated basis. Its
Shannon entropy is never below the von Neumann entropy of rho, with
equality exactly when u diagonalizes rho, so minimizing over u recovers
the spectral entropy. Reading joint/marginal tomograms of the artificial
two-qubit split of a 4 x 4 matrix yields a mutual information, and its
deficit against the von Neumann mutual information is the discord-type
measure computed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import xlogy

from ._neldermead import minimize_batch
from .errors import (
    BadAngleError,
    DimMismatchError,
    NotHermitianError,
    NotPositiveError,
    NotUnitaryError,
    ShapeMismatchError,
)
from .ensembles import haar
from .qstate import DensityMatrix, ReductionPlan, pad_density, reduce, von_neumann
from .simplex import EntropyValue, ProbVec, _freeze, _shannon_raw

__all__ = [
    "UnitaryMatrix",
    "UnitaryChart",
    "Tomogram",
    "DiscordReport",
    "validate_unitary",
    "chart_to_unitary",
    "eigenbasis_unitary",
    "tomogram",
    "tomographic_entropy",
    "minimize_tomographic_entropy",
    "minimize_entropy_batch",
    "marginal_tomograms",
    "tomographic_information",
    "discord",
    "discord_unitary_sweep",
    "spin_tomogram_axis",
]

# Spectra with neighbors closer than this count as degenerate: the
# eigenbasis is then not unique and downstream reports carry a flag.
_DEGENERACY_GAP = 1e-10


@dataclass(frozen=True, eq=False)
class UnitaryMatrix:
    """An immutable unitary matrix.

    Construct via :func:`validate_unitary` for raw external data; direct
    construction is for matrices unitary by construction.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.matrix, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ShapeMismatchError(f"unitary must be square, got {arr.shape}")
        _freeze(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class UnitaryChart:
    """A point in the exponential chart on the unitary group.

    ``parameters`` has d**2 real entries: the d diagonal values of a
    Hermitian generator, then an interleaved (re, im) pair per strict
    upper-triangle entry in row-major order. The zero vector charts the
    identity, and every unitary is exp(i H) for some Hermitian H, so the
    chart is surjective.

    The readout-entropy minimizer searches only the zero-diagonal slice of
    this chart (the last d**2 - d parameters, the diagonal fixed at 0),
    since a readout does not change under left diagonal phases.
    """

    dim: int
    parameters: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.parameters, dtype=float).reshape(-1)
        if arr.size != self.dim * self.dim:
            raise ShapeMismatchError(
                f"chart for dim {self.dim} needs {self.dim**2} parameters, "
                f"got {arr.size}"
            )
        _freeze(self, "parameters", arr)


@dataclass(frozen=True, eq=False)
class Tomogram:
    """Measurement statistics of a state in a rotated basis."""

    probabilities: ProbVec
    unitary: UnitaryMatrix
    state_ref: str = ""


@dataclass(frozen=True)
class DiscordReport:
    """Quantum-classical correlation accounting for one 4 x 4 state.

    ``information`` is the mutual information of the joint tomogram read
    in the eigenbases of the two reductions; ``discord`` is the deficit of
    that classical information against the von Neumann mutual information
    S1 + S2 - S. ``chain`` records the gaps of the entropy chain
    S1 + S2 >= H12 >= S as (first, second, outer) differences.
    """

    s: float
    s1: float
    s2: float
    h12: float
    information: float
    discord: float
    chain: tuple[float, float, float]
    flags: tuple[str, ...] = ()
    state_ref: str = ""
    provenance: str = ""

    def to_dict(self) -> dict:
        return {
            "s": self.s,
            "s1": self.s1,
            "s2": self.s2,
            "h12": self.h12,
            "information": self.information,
            "discord": self.discord,
            "chain": list(self.chain),
            "flags": list(self.flags),
            "state_ref": self.state_ref,
            "provenance": self.provenance,
        }


def validate_unitary(raw, tol: float = 1e-10) -> UnitaryMatrix:
    """Validate raw data as a unitary matrix (max |U^dag U - I| <= tol)."""
    arr = np.asarray(raw, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ShapeMismatchError(f"unitary must be square, got {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise NotUnitaryError("unitary has non-finite entries")
    defect = float(np.abs(arr.conj().T @ arr - np.eye(arr.shape[0])).max())
    if defect > tol:
        raise NotUnitaryError(f"unitarity defect {defect:.3e} exceeds {tol:.1e}")
    return UnitaryMatrix(arr)


@lru_cache(maxsize=None)
def _pair_indices(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat positions in a d x d matrix of the diagonal, then of the strict
    upper triangle in row-major order and of its transposed entries."""
    rows, cols = np.triu_indices(dim, k=1)
    return np.arange(dim) * (dim + 1), rows * dim + cols, cols * dim + rows


def _assemble_generators(points: np.ndarray, dim: int) -> np.ndarray:
    """Hermitian generators (m, d, d) from chart parameters (m, d**2), or
    from points of the chart's zero-diagonal slice (m, d**2 - d)."""
    m = points.shape[0]
    h = np.zeros((m, dim * dim), dtype=complex)
    diag, upper, lower = _pair_indices(dim)
    k = points.shape[1] - dim * (dim - 1)
    if k:
        h[:, diag] = points[:, :k]
    off = points[:, k::2] + 1j * points[:, k + 1 :: 2]
    h[:, upper] = off
    h[:, lower] = off.conj()
    return h.reshape(m, dim, dim)


def _chart_unitaries(points: np.ndarray, dim: int) -> np.ndarray:
    """exp(i H) for a batch of chart (or zero-diagonal slice) points, via
    the eigenbasis of H."""
    w, v = np.linalg.eigh(_assemble_generators(points, dim))
    return (v * np.exp(1j * w)[:, None, :]) @ np.swapaxes(v.conj(), 1, 2)


def chart_to_unitary(chart: UnitaryChart) -> UnitaryMatrix:
    """The unitary exp(i H) charted by the given parameters."""
    u = _chart_unitaries(chart.parameters[None, :], chart.dim)[0]
    return UnitaryMatrix(u)


def eigenbasis_unitary(rho: DensityMatrix) -> tuple[UnitaryMatrix, bool]:
    """The basis rotation that diagonalizes ``rho``, plus a degeneracy flag.

    Returns u with diag(u rho u^dag) equal to the descending spectrum.
    Ties are broken by fixing each eigenvector's first nonvanishing
    component to be real positive; for a degenerate spectrum the basis is
    still legitimate but not unique, which the flag reports.
    """
    w, v = np.linalg.eigh(rho.matrix)
    w = w[::-1]
    v = v[:, ::-1]
    degenerate = bool(w.size > 1 and np.min(np.abs(np.diff(w))) < _DEGENERACY_GAP)
    pivot_rows = np.argmax(np.abs(v) > 1e-12, axis=0)
    pivots = v[pivot_rows, np.arange(v.shape[1])]
    phases = np.where(np.abs(pivots) > 0, pivots / np.abs(pivots), 1.0)
    v = v * phases.conj()
    return UnitaryMatrix(v.conj().T), degenerate


def _readout(rho: DensityMatrix, u: UnitaryMatrix) -> np.ndarray:
    """The checked, renormalized readout behind :func:`tomogram`, without
    the state hash that ties a public :class:`Tomogram` to its source."""
    if u.dim != rho.dim:
        raise DimMismatchError(f"unitary dim {u.dim} != state dim {rho.dim}")
    diag = np.einsum("ij,jk,ik->i", u.matrix, rho.matrix, u.matrix.conj())
    if float(np.abs(diag.imag).max()) > 1e-12:
        raise NotHermitianError("basis readout has a complex diagonal")
    w = diag.real
    if float(w.min()) < -1e-12:
        raise NotPositiveError(f"basis readout has negative weight {w.min():.3e}")
    w = np.clip(w, 0.0, None)
    return w / w.sum()


def tomogram(rho: DensityMatrix, u: UnitaryMatrix, state_ref: str = "") -> Tomogram:
    """Measurement distribution w = diag(u rho u^dag) of ``rho`` in basis ``u``.

    The diagonal must be real up to 1e-12 and nonnegative up to -1e-12;
    tiny negatives are clipped and the vector renormalized.
    """
    return Tomogram(
        probabilities=ProbVec(_readout(rho, u)),
        unitary=u,
        state_ref=state_ref or rho.ref,
    )


def tomographic_entropy(rho: DensityMatrix, u: UnitaryMatrix) -> EntropyValue:
    """Shannon entropy of the basis readout; >= von Neumann entropy of rho."""
    return EntropyValue(_shannon_raw(_readout(rho, u)), "shannon")


def _readout_entropies(points: np.ndarray, rhos: np.ndarray, dim: int) -> np.ndarray:
    """Batched objective: entropy of the readout charted by each row of
    zero-diagonal slice points."""
    u = _chart_unitaries(points, dim)
    t = u @ rhos
    probs = np.einsum("bij,bij->bi", t, u.conj()).real
    np.maximum(probs, 0.0, out=probs)
    return -xlogy(probs, probs).sum(axis=1)


def _restart_points(dim: int, restarts: int, seed) -> np.ndarray:
    """Start points per restart in the zero-diagonal slice of the chart:
    the identity first, then seeded uniform points."""
    n = dim * (dim - 1)
    x0 = np.zeros((restarts, n))
    children = np.random.SeedSequence(seed).spawn(restarts)
    for r in range(1, restarts):
        rng = np.random.default_rng(children[r])
        x0[r] = rng.uniform(-math.pi, math.pi, n)
    return x0


def minimize_entropy_batch(
    states: list[DensityMatrix],
    restarts: int = 8,
    budget: int = 5000,
    seeds: list[int] | None = None,
) -> list[tuple[UnitaryMatrix, EntropyValue]]:
    """Minimize the readout entropy for many states in one batched search.

    The search runs over the zero-diagonal slice of :class:`UnitaryChart`:
    d**2 - d parameters, the off-diagonal (re, im) pairs of the generator.
    The readout diag(u rho u^dag) does not change when u is multiplied on
    the left by a diagonal phase matrix, so it varies along only d**2 - d
    of the group's d**2 dimensions; the search fixes the generator's
    diagonal at 0 instead of exploring d flat directions.

    All states' searches run as one batch: each state gets ``restarts``
    independent searches (the first from the identity, the rest from seeded
    uniform points) capped at ``budget`` objective evaluations apiece, and
    the best of them wins; there is no second, polishing search. Results
    are identical to calling :func:`minimize_tomographic_entropy` per state
    with the matching seed.
    """
    if not states:
        return []
    dim = states[0].dim
    if any(s.dim != dim for s in states):
        raise DimMismatchError("states in a batch must share a dimension")
    if seeds is None:
        seeds = list(range(len(states)))
    if len(seeds) != len(states):
        raise ShapeMismatchError("need one seed per state")
    if dim == 1:
        # One basis up to a phase: the readout is (1,) and nothing is searched.
        u = UnitaryMatrix(np.eye(1))
        return [(u, tomographic_entropy(s, u)) for s in states]
    x0 = np.vstack([_restart_points(dim, restarts, s) for s in seeds])
    rhos = np.repeat(np.stack([s.matrix for s in states]), restarts, axis=0)

    def objective(points: np.ndarray, slots: np.ndarray) -> np.ndarray:
        return _readout_entropies(points, rhos[slots], dim)

    found = minimize_batch(objective, x0, step=0.6, budget=budget, fatol=1e-10, xatol=1e-6)
    best = np.argmin(found.fun.reshape(len(states), restarts), axis=1)
    best_x = found.x[np.arange(len(states)) * restarts + best]
    unitaries = [UnitaryMatrix(u) for u in _chart_unitaries(best_x, dim)]
    return [(u, tomographic_entropy(s, u)) for s, u in zip(states, unitaries)]


def minimize_tomographic_entropy(
    rho: DensityMatrix,
    restarts: int = 8,
    budget: int = 5000,
    seed: int = 0,
) -> tuple[UnitaryMatrix, EntropyValue]:
    """Search for the basis minimizing the readout entropy of ``rho``.

    Derivative-free simplex search over the zero-diagonal generators of
    the unitary chart (d**2 - d parameters): one batched search of
    ``restarts`` starts (the identity, then seeded random points), the best
    of which wins, with no polishing search after it.
    The minimum over all bases is the von Neumann entropy, attained at the
    eigenbasis; :func:`eigenbasis_unitary` exposes that exact answer for
    comparison.
    """
    [(u, value)] = minimize_entropy_batch(
        [rho], restarts=restarts, budget=budget, seeds=[seed]
    )
    return u, value


def marginal_tomograms(
    rho: DensityMatrix, u1: UnitaryMatrix, u2: UnitaryMatrix
) -> tuple[ProbVec, ProbVec]:
    """Readouts of the two artificial qubit reductions of a 4 x 4 state.

    Equal to the classical marginals of the joint readout under u1 (x) u2;
    the equality is asserted here because it ties the quantum reduction to
    the classical marginal, and any mismatch means an indexing bug.
    """
    if rho.dim != 4:
        raise ShapeMismatchError(f"expected a 4 x 4 state, got dim {rho.dim}")
    if u1.dim != 2 or u2.dim != 2:
        raise DimMismatchError("marginal readouts need 2 x 2 unitaries")
    r1 = reduce(rho, ReductionPlan((2, 2), (1,)))
    r2 = reduce(rho, ReductionPlan((2, 2), (2,)))
    w1 = ProbVec(_readout(r1, u1))
    w2 = ProbVec(_readout(r2, u2))

    table = _readout(rho, UnitaryMatrix(np.kron(u1.matrix, u2.matrix))).reshape(2, 2)
    defect = max(
        float(np.abs(w1.values - table.sum(axis=1)).max()),
        float(np.abs(w2.values - table.sum(axis=0)).max()),
    )
    if defect > 1e-10:
        raise DimMismatchError(
            f"reduction readouts disagree with joint marginals by {defect:.3e}"
        )
    return w1, w2


def tomographic_information(
    rho: DensityMatrix, u1: UnitaryMatrix, u2: UnitaryMatrix
) -> float:
    """Mutual information of the joint readout under the local basis pair.

    I(u1, u2) = H(w1) + H(w2) - H(w12) for the artificial two-qubit split;
    nonnegative by subadditivity of the joint readout.
    """
    if rho.dim != 4:
        raise ShapeMismatchError(f"expected a 4 x 4 state, got dim {rho.dim}")
    if u1.dim != 2 or u2.dim != 2:
        raise DimMismatchError("local readouts need 2 x 2 unitaries")
    joint = _readout(rho, UnitaryMatrix(np.kron(u1.matrix, u2.matrix)))
    return _joint_information(joint)[1]


def _joint_information(joint: np.ndarray) -> tuple[float, float]:
    """(H12, H1 + H2 - H12) of a 4-outcome readout read as a 2 x 2 table."""
    table = joint.reshape(2, 2)
    h12 = _shannon_raw(joint)
    h1 = _shannon_raw(table.sum(axis=1))
    h2 = _shannon_raw(table.sum(axis=0))
    return h12, h1 + h2 - h12


def discord(rho: DensityMatrix, provenance: str = "") -> DiscordReport:
    """Discord-type correlation measure of the artificial two-qubit split.

    The joint readout is taken in the eigenbases of the two reductions, so
    the marginal readout entropies coincide with the reduction entropies
    and the deficit (S1 + S2 - S) - I reduces to H12 - S >= 0. Qutrit
    input is padded to 4 x 4 first, which leaves every entropy unchanged.
    """
    flags: list[str] = []
    if rho.dim == 3:
        rho = pad_density(rho, 4)
        flags.append("padded-qutrit")
    if rho.dim != 4:
        raise ShapeMismatchError(f"expected a 4 x 4 or 3 x 3 state, got {rho.dim}")

    r1 = reduce(rho, ReductionPlan((2, 2), (1,)))
    r2 = reduce(rho, ReductionPlan((2, 2), (2,)))
    u1, deg1 = eigenbasis_unitary(r1)
    u2, deg2 = eigenbasis_unitary(r2)
    if deg1:
        flags.append("degenerate-reduction-1")
    if deg2:
        flags.append("degenerate-reduction-2")

    s = float(von_neumann(rho))
    s1 = float(von_neumann(r1))
    s2 = float(von_neumann(r2))
    ref = rho.ref
    joint = tomogram(rho, UnitaryMatrix(np.kron(u1.matrix, u2.matrix)), state_ref=ref)
    h12, information = _joint_information(joint.probabilities.values)
    deficit = (s1 + s2 - s) - information
    return DiscordReport(
        s=s,
        s1=s1,
        s2=s2,
        h12=h12,
        information=information,
        discord=deficit,
        chain=(s1 + s2 - h12, h12 - s, s1 + s2 - s),
        flags=tuple(flags),
        state_ref=ref,
        provenance=provenance,
    )


def discord_unitary_sweep(
    rho: DensityMatrix, samples: int = 64, seed: int = 0
) -> dict:
    """Diagnostic: how the basis-pair choice moves the discord deficit.

    Samples Haar-random local basis pairs alongside the eigenbasis pair
    and reports the smallest deficit seen. The reported discord is always
    the eigenbasis value; this sweep only gauges how tight that choice is.
    """
    base = discord(rho)
    if rho.dim == 3:
        rho = pad_density(rho, 4)
    total = base.s1 + base.s2 - base.s
    best = base.discord
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        u1 = UnitaryMatrix(haar(2, rng))
        u2 = UnitaryMatrix(haar(2, rng))
        candidate = total - tomographic_information(rho, u1, u2)
        if candidate < best:
            best = candidate
    return {
        "discord_eigenbasis": base.discord,
        "discord_min_sampled": float(best),
        "samples": samples,
        "state_ref": base.state_ref,
    }


@lru_cache(maxsize=None)
def _spin_basis(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin operators for d = 2j + 1 in the ascending-m basis.

    Returns (m values, eigenvalues of Jy, eigenvectors of Jy); Jz is
    diagonal with the m values.
    """
    j = (dim - 1) / 2.0
    m = -j + np.arange(dim)
    raise_amp = np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1))
    j_plus = np.zeros((dim, dim), dtype=complex)
    j_plus[np.arange(1, dim), np.arange(dim - 1)] = raise_amp
    j_y = (j_plus - j_plus.conj().T) / 2j
    w, v = np.linalg.eigh(j_y)
    return m, w, v


def spin_tomogram_axis(rho: DensityMatrix, theta: float, phi: float) -> Tomogram:
    """Spin readout along the axis with polar angles (theta, phi).

    The basis rotation is exp(-i phi Jz) exp(-i theta Jy) for the spin
    j = (d - 1) / 2, built on the ascending-m basis. Kept to d <= 4
    (spins 1/2, 1, 3/2).
    """
    if rho.dim > 4:
        raise DimMismatchError(f"axis readout supports dim <= 4, got {rho.dim}")
    theta = float(theta)
    phi = float(phi)
    if not (0.0 <= theta <= math.pi):
        raise BadAngleError(f"theta must lie in [0, pi], got {theta!r}")
    if not (0.0 <= phi < 2.0 * math.pi):
        raise BadAngleError(f"phi must lie in [0, 2 pi), got {phi!r}")
    m, w, v = _spin_basis(rho.dim)
    rot_y = (v * np.exp(-1j * theta * w)[None, :]) @ v.conj().T
    u = UnitaryMatrix(np.exp(-1j * phi * m)[:, None] * rot_y)
    return Tomogram(
        probabilities=ProbVec(_readout(rho, u)),
        unitary=u,
        state_ref=rho.ref,
    )
