"""Unitary-basis probability readouts of a density matrix, entropy
minimization over bases, and the discord-type correlation measure for a
single indivisible system.

For a unitary u the vector w = diag(u rho u^dag) is a genuine probability
distribution: the statistics of measuring rho in the rotated basis. Its
Shannon entropy is never below the von Neumann entropy of rho, with
equality exactly when u diagonalizes rho, so minimizing over u recovers
the spectral entropy. The search for that minimum runs over zero-diagonal
Hermitian generators H of u = exp(i H); no chart of the unitary group is
public. Reading joint/marginal tomograms of the artificial two-qubit
split of a 4 x 4 matrix yields a mutual information, the subadditivity
gap H(w1) + H(w2) - H(w12) of the joint readout read as a 2 x 2 table;
its deficit against the von Neumann mutual information is the
discord-type measure computed here.

Readouts, eigenbases, the readout-minimum check and the discord measure
are each one private kernel over a stack of matrices (n, d, d); each
public single-state function is its kernel run on a batch of one. The
checks come out as :class:`CheckColumns`, the discord family's too: its
``discord-nonneg`` check carries every entropy and flag a
:class:`DiscordReport` is read from.
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
from .qstate import (
    DensityMatrix,
    ReductionPlan,
    _content_ref,
    _entropy_rows,
    _padded_rows,
    _reduce_rows,
    reduce,
)
from .report import GAP_TOLERANCE, CheckColumns
from .simplex import EntropyValue, ProbVec, _freeze, _shannon_rows, _subadd_columns

__all__ = [
    "UnitaryMatrix",
    "Tomogram",
    "DiscordReport",
    "validate_unitary",
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
    u = UnitaryMatrix(raw)
    if not np.all(np.isfinite(u.matrix.view(float))):
        raise NotUnitaryError("unitary has non-finite entries")
    defect = float(np.abs(u.matrix.conj().T @ u.matrix - np.eye(u.dim)).max())
    if defect > tol:
        raise NotUnitaryError(f"unitarity defect {defect:.3e} exceeds {tol:.1e}")
    return u


@lru_cache(maxsize=None)
def _generator_map(dim: int) -> np.ndarray:
    """The real linear map (d**2 - d, 2 d**2) from a search point, an
    interleaved (re, im) pair per strict upper-triangle entry in row-major
    order, to the interleaved (re, im) entries of its zero-diagonal
    Hermitian generator."""
    rows, cols = np.triu_indices(dim, k=1)
    upper, lower = rows * dim + cols, cols * dim + rows  # flat positions
    gen = np.zeros((upper.size, 2, dim * dim, 2))
    pairs = np.arange(upper.size)
    gen[pairs, 0, upper, 0] = 1.0
    gen[pairs, 0, lower, 0] = 1.0
    gen[pairs, 1, upper, 1] = 1.0
    gen[pairs, 1, lower, 1] = -1.0
    gen = gen.reshape(2 * upper.size, 2 * dim * dim)
    gen.flags.writeable = False
    return gen


def _assemble_generators(points: np.ndarray, dim: int) -> np.ndarray:
    """The zero-diagonal Hermitian generators (m, d, d) of search points
    (m, d**2 - d). Every entry of the map is 0 or +-1, so each generator
    entry is its parameter exactly."""
    h = points @ _generator_map(dim)
    return h.view(complex).reshape(len(points), dim, dim)


def _chart_unitaries(points: np.ndarray, dim: int) -> np.ndarray:
    """exp(i H) for the generator H of each search point, via the
    eigenbasis of H."""
    w, v = np.linalg.eigh(_assemble_generators(points, dim))
    return (v * np.exp(1j * w)[:, None, :]) @ np.swapaxes(v.conj(), 1, 2)


def _eigenbases(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`eigenbasis_unitary` of each matrix of a stack: the unitaries
    (n, d, d) and a degeneracy flag per matrix."""
    w, v = np.linalg.eigh(mats)
    w = w[:, ::-1]
    v = v[:, :, ::-1]
    degenerate = np.zeros(len(w), dtype=bool)
    if w.shape[1] > 1:
        degenerate = np.min(np.abs(np.diff(w, axis=1)), axis=1) < _DEGENERACY_GAP
    pivot_rows = np.argmax(np.abs(v) > 1e-12, axis=1)
    pivots = np.take_along_axis(v, pivot_rows[:, None, :], axis=1)[:, 0, :]
    phases = np.where(np.abs(pivots) > 0, pivots / np.abs(pivots), 1.0)
    v = v * phases.conj()[:, None, :]
    return np.swapaxes(v.conj(), 1, 2), degenerate


def eigenbasis_unitary(rho: DensityMatrix) -> tuple[UnitaryMatrix, bool]:
    """The basis rotation that diagonalizes ``rho``, plus a degeneracy flag.

    Returns u with diag(u rho u^dag) equal to the descending spectrum.
    Ties are broken by fixing each eigenvector's first nonvanishing
    component to be real positive; for a degenerate spectrum the basis is
    still legitimate but not unique, which the flag reports.
    """
    us, degenerate = _eigenbases(rho.matrix[None])
    return UnitaryMatrix(us[0]), bool(degenerate[0])


def _readouts(mats: np.ndarray, us: np.ndarray) -> np.ndarray:
    """The checked, renormalized readouts diag(u rho u^dag) (n, d) of a
    stack of states, each in its own basis; the first bad readout is
    rejected. No state hash is taken."""
    if us.shape[1] != mats.shape[1]:
        raise DimMismatchError(f"unitary dim {us.shape[1]} != state dim {mats.shape[1]}")
    diag = np.einsum("zij,zjk,zik->zi", us, mats, us.conj())
    if float(np.abs(diag.imag).max()) > 1e-12:
        raise NotHermitianError("basis readout has a complex diagonal")
    w = diag.real
    low = w.min(axis=1)
    bad = np.flatnonzero(low < -1e-12)
    if bad.size:
        raise NotPositiveError(f"basis readout has negative weight {low[bad[0]]:.3e}")
    w = np.clip(w, 0.0, None)
    return w / w.sum(axis=1, keepdims=True)


def _readout(rho: DensityMatrix, u: UnitaryMatrix) -> np.ndarray:
    """:func:`_readouts` of one state."""
    return _readouts(rho.matrix[None], u.matrix[None])[0]


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
    return EntropyValue(float(_shannon_rows(_readout(rho, u))), "shannon")


def _readout_entropies(points: np.ndarray, rhos: np.ndarray, dim: int) -> np.ndarray:
    """Batched objective: entropy of the readout in the basis of each
    search point."""
    u = _chart_unitaries(points, dim)
    t = u @ rhos
    probs = np.einsum("bij,bij->bi", t, u.conj()).real
    np.maximum(probs, 0.0, out=probs)
    return -xlogy(probs, probs).sum(axis=1)


def _restart_points(dim: int, restarts: int, seed) -> np.ndarray:
    """Search points to start each restart from: the identity first, then
    seeded uniform points."""
    n = dim * (dim - 1)
    x0 = np.zeros((restarts, n))
    children = np.random.SeedSequence(seed).spawn(restarts)
    for r in range(1, restarts):
        rng = np.random.default_rng(children[r])
        x0[r] = rng.uniform(-math.pi, math.pi, n)
    return x0


class _Minima(list):
    """The (unitary, entropy) pair per state of one readout search, as a
    list, with what the search did per state: ``nfev``, the objective
    evaluations summed over the state's restarts, and ``converged``,
    whether its winning restart's simplex collapsed rather than running
    out of budget."""

    def __init__(self, pairs, nfev: list[int], converged: list[bool]) -> None:
        super().__init__(pairs)
        self.nfev = nfev
        self.converged = converged


def minimize_entropy_batch(
    states: list[DensityMatrix],
    restarts: int = 8,
    budget: int = 5000,
    seeds: list[int] | None = None,
) -> list[tuple[UnitaryMatrix, EntropyValue]]:
    """Minimize the readout entropy for many states in one batched search.

    A point of the search is a zero-diagonal Hermitian generator H of
    u = exp(i H): d**2 - d parameters, an interleaved (re, im) pair per
    strict upper-triangle entry of H in row-major order. The readout
    diag(u rho u^dag) does not change when u is multiplied on the left by a
    diagonal phase matrix, so it varies along only d**2 - d of the group's
    d**2 dimensions; the search fixes the generator's diagonal at 0 instead
    of exploring d flat directions.

    All states' searches run as one batch: each state gets ``restarts``
    independent searches (the first from the identity, the rest from seeded
    uniform points) capped at ``budget`` objective evaluations apiece, and
    the best of them wins; there is no second, polishing search. Results
    are identical to calling :func:`minimize_tomographic_entropy` per state
    with the matching seed. The returned list also carries, per state, the
    objective evaluations over all its restarts (``nfev``) and whether the
    winning restart converged (``converged``).
    """
    if restarts < 1:
        raise ShapeMismatchError(f"restarts must be at least 1, got {restarts}")
    if not states:
        return _Minima([], [], [])
    dim = states[0].dim
    if any(s.dim != dim for s in states):
        raise DimMismatchError("states in a batch must share a dimension")
    if seeds is None:
        seeds = list(range(len(states)))
    if len(seeds) != len(states):
        raise ShapeMismatchError("need one seed per state")
    mats = np.stack([s.matrix for s in states])
    if dim == 1:
        # One basis up to a phase: the readout is (1,) and nothing is searched.
        us = np.ones((len(states), 1, 1), dtype=complex)
        nfev, converged = [0] * len(states), [True] * len(states)
    else:
        x0 = np.vstack([_restart_points(dim, restarts, s) for s in seeds])
        rhos = np.repeat(mats, restarts, axis=0)

        def objective(points: np.ndarray, slots: np.ndarray) -> np.ndarray:
            return _readout_entropies(points, rhos[slots], dim)

        found = minimize_batch(objective, x0, step=0.6, budget=budget, fatol=1e-10, xatol=1e-6)
        best = np.arange(len(states)) * restarts + np.argmin(
            found.fun.reshape(len(states), restarts), axis=1
        )
        us = _chart_unitaries(found.x[best], dim)
        nfev = found.nfev.reshape(len(states), restarts).sum(axis=1).tolist()
        converged = found.converged[best].tolist()
    values = _shannon_rows(_readouts(mats, us)).tolist()
    pairs = [(UnitaryMatrix(u), EntropyValue(h, "shannon")) for u, h in zip(us, values)]
    return _Minima(pairs, nfev, converged)


def _readout_min_columns(
    mats: np.ndarray, seeds: list[int], tolerance: float
) -> tuple[CheckColumns, CheckColumns]:
    """The basis-readout bound on each state of a stack, checked by one
    batched search of :func:`minimize_entropy_batch` at its default
    restarts and budget: the found minimum sits on the von Neumann entropy
    from above (``readout-min-above``), and within 1e-6 of it
    (``readout-min-close``). Both count what each state's search did: its
    ``nfev`` over all restarts, and whether its winning restart ran out of
    budget (``unconverged``)."""
    found = minimize_entropy_batch([DensityMatrix(m) for m in mats], seeds=seeds)
    s = _entropy_rows(mats)
    h = np.array([float(h_min) for _, h_min in found])
    err = h - s
    counts = {
        "nfev": np.array(found.nfev, dtype=int),
        "unconverged": ~np.array(found.converged, dtype=bool),
    }
    above = CheckColumns(
        "readout-min-above", s, h, {"minimum_readout": h, "von_neumann": s}, tolerance, counts=counts
    )
    close = CheckColumns(
        "readout-min-close", err, np.full(len(mats), 1e-6), {"error": err}, 0.0, counts=counts
    )
    return above, close


def minimize_tomographic_entropy(
    rho: DensityMatrix,
    restarts: int = 8,
    budget: int = 5000,
    seed: int = 0,
) -> tuple[UnitaryMatrix, EntropyValue]:
    """Search for the basis minimizing the readout entropy of ``rho``.

    Derivative-free simplex search over the zero-diagonal Hermitian
    generators of u = exp(i H) (d**2 - d parameters): one batched search of
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


def _joint_readout(rho: DensityMatrix, u1: UnitaryMatrix, u2: UnitaryMatrix) -> np.ndarray:
    """The readout of a 4 x 4 state in the local basis pair u1 (x) u2."""
    if rho.dim != 4:
        raise ShapeMismatchError(f"expected a 4 x 4 state, got dim {rho.dim}")
    if u1.dim != 2 or u2.dim != 2:
        raise DimMismatchError("local readouts need 2 x 2 unitaries")
    return _readouts(rho.matrix[None], _kron_rows(u1.matrix[None], u2.matrix[None]))[0]


def marginal_tomograms(
    rho: DensityMatrix, u1: UnitaryMatrix, u2: UnitaryMatrix
) -> tuple[ProbVec, ProbVec]:
    """Readouts of the two artificial qubit reductions of a 4 x 4 state.

    Equal to the classical marginals of the joint readout under u1 (x) u2;
    the equality is asserted here because it ties the quantum reduction to
    the classical marginal, and any mismatch means an indexing bug.
    """
    table = _joint_readout(rho, u1, u2).reshape(2, 2)
    w1 = ProbVec(_readout(reduce(rho, ReductionPlan((2, 2), (1,))), u1))
    w2 = ProbVec(_readout(reduce(rho, ReductionPlan((2, 2), (2,))), u2))
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

    I(u1, u2) = H(w1) + H(w2) - H(w12) for the artificial two-qubit split:
    the subadditivity gap of the joint readout read as a 2 x 2 table, so
    nonnegative.
    """
    joint = _joint_readout(rho, u1, u2)[None]
    return float(_subadd_columns(joint, (2, 2), GAP_TOLERANCE).gaps()[0])


def _kron_rows(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """u1 (x) u2 for each pair of a stack of 2 x 2 unitaries, entry by entry
    as np.kron forms it."""
    return (u1[:, :, None, :, None] * u2[:, None, :, None, :]).reshape(-1, 4, 4)


def _discord_columns(
    mats: np.ndarray, tolerance: float
) -> tuple[tuple[CheckColumns, CheckColumns, CheckColumns], np.ndarray]:
    """:func:`discord` of each matrix of a stack of 4 x 4 or 3 x 3 states,
    as the family's three checks, and the states as read (a qutrit padded):
    ``discord-nonneg``, the deficit (S1 + S2 - S) - I >= 0 with every
    entropy and flag of a :class:`DiscordReport`, then ``chain-upper`` and
    ``chain-lower``, the chain S1 + S2 >= H12 >= S. A qutrit's check ids
    carry the prefix ``qutrit-``, next to its ``padded-qutrit`` flag.
    """
    n, dim = mats.shape[:2]
    if dim == 3:
        mats = _padded_rows(mats, 4)
    elif dim != 4:
        raise ShapeMismatchError(f"expected a 4 x 4 or 3 x 3 state, got {dim}")
    prefix = "qutrit-" if dim == 3 else ""

    # both reductions, stacked: one eigenbasis pass and one entropy pass
    parts = np.concatenate([_reduce_rows(mats, (2, 2), (1,)), _reduce_rows(mats, (2, 2), (2,))])
    us, degenerate = _eigenbases(parts)
    u1, u2, deg1, deg2 = us[:n], us[n:], degenerate[:n], degenerate[n:]
    s = _entropy_rows(mats)
    s_parts = _entropy_rows(parts)
    s1, s2 = s_parts[:n], s_parts[n:]
    joint = _subadd_columns(_readouts(mats, _kron_rows(u1, u2)), (2, 2), tolerance)
    h12, information = joint.lhs, joint.gaps()
    flags = {
        "padded-qutrit": np.full(n, dim == 3),
        "degenerate-reduction-1": deg1,
        "degenerate-reduction-2": deg2,
    }
    entropies = {"s": s, "s1": s1, "s2": s2, "h12": h12, "information": information}
    deficit = (s1 + s2 - s) - information
    nonneg = CheckColumns(
        f"{prefix}discord-nonneg", np.zeros(n), deficit, entropies, tolerance, flags=flags
    )
    upper = CheckColumns(
        f"{prefix}chain-upper", h12, s1 + s2, {"h12": h12, "s1": s1, "s2": s2}, tolerance
    )
    lower = CheckColumns(f"{prefix}chain-lower", s, h12, {"h12": h12, "s": s}, tolerance)
    return (nonneg, upper, lower), mats


def _discord_report(
    nonneg: CheckColumns, i: int, state: np.ndarray, provenance: str = ""
) -> DiscordReport:
    """The :class:`DiscordReport` of row ``i`` of a ``discord-nonneg``
    check, whose state as read is ``state``."""
    e = {role: float(column[i]) for role, column in nonneg.entropies.items()}
    return DiscordReport(
        **e,
        discord=float(nonneg.rhs[i]),
        chain=(e["s1"] + e["s2"] - e["h12"], e["h12"] - e["s"], e["s1"] + e["s2"] - e["s"]),
        flags=tuple(flag for flag, rows in nonneg.flags.items() if rows[i]),
        state_ref=_content_ref(state),
        provenance=provenance,
    )


def discord(rho: DensityMatrix, provenance: str = "") -> DiscordReport:
    """Discord-type correlation measure of the artificial two-qubit split.

    The joint readout is taken in the eigenbases of the two reductions, so
    the marginal readout entropies coincide with the reduction entropies
    and the deficit (S1 + S2 - S) - I reduces to H12 - S >= 0. Qutrit
    input is padded to 4 x 4 first, which leaves every entropy unchanged.
    """
    (nonneg, _, _), states = _discord_columns(rho.matrix[None], GAP_TOLERANCE)
    return _discord_report(nonneg, 0, states[0], provenance)


def discord_unitary_sweep(
    rho: DensityMatrix, samples: int = 64, seed: int = 0
) -> dict:
    """Diagnostic: how the basis-pair choice moves the discord deficit.

    Samples Haar-random local basis pairs alongside the eigenbasis pair
    and reports the smallest deficit seen. The reported discord is always
    the eigenbasis value; this sweep only gauges how tight that choice is.
    """
    (nonneg, _, _), states = _discord_columns(rho.matrix[None], GAP_TOLERANCE)
    base = _discord_report(nonneg, 0, states[0])
    total = base.s1 + base.s2 - base.s
    best = base.discord
    rng = np.random.default_rng(seed)
    if samples > 0:
        # Every pair drawn in the order of a per-sample loop, then all read
        # at once.
        pairs = np.stack([(haar(2, rng), haar(2, rng)) for _ in range(samples)])
        kron = _kron_rows(pairs[:, 0], pairs[:, 1])
        joints = _readouts(np.repeat(states, samples, axis=0), kron)
        information = _subadd_columns(joints, (2, 2), GAP_TOLERANCE).gaps()
        # the first strictly smaller candidate wins, as in a loop
        best = min(best, *(total - information).tolist())
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


def _axis_unitary(dim: int, theta: float, phi: float) -> np.ndarray:
    """The basis rotation of :func:`spin_tomogram_axis` for a d x d state."""
    if dim > 4:
        raise DimMismatchError(f"axis readout supports dim <= 4, got {dim}")
    theta = float(theta)
    phi = float(phi)
    if not (0.0 <= theta <= math.pi):
        raise BadAngleError(f"theta must lie in [0, pi], got {theta!r}")
    if not (0.0 <= phi < 2.0 * math.pi):
        raise BadAngleError(f"phi must lie in [0, 2 pi), got {phi!r}")
    m, w, v = _spin_basis(dim)
    rot_y = (v * np.exp(-1j * theta * w)[None, :]) @ v.conj().T
    return np.exp(-1j * phi * m)[:, None] * rot_y


def spin_tomogram_axis(rho: DensityMatrix, theta: float, phi: float) -> Tomogram:
    """Spin readout along the axis with polar angles (theta, phi).

    The basis rotation is exp(-i phi Jz) exp(-i theta Jy) for the spin
    j = (d - 1) / 2, built on the ascending-m basis. Kept to d <= 4
    (spins 1/2, 1, 3/2).
    """
    return tomogram(rho, UnitaryMatrix(_axis_unitary(rho.dim, theta, phi)))
