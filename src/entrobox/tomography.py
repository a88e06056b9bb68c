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

Readouts, eigenbases, the readout bound, the readout minimum, the
spin-axis readouts (every state's rotation built in one stacked product)
and the discord measure are each one private kernel over a stack of
matrices (n, d, d), whose checks come out as one block
(:class:`CheckBlock`) under their final ids; each public single-state
function is its kernel run on a batch of one, read as the first row of the
block's first check. The discord family's ``discord-nonneg`` check carries
every entropy and flag a :class:`DiscordReport` is read from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
    _content_ref,
    _entropy_rows,
    _padded_rows,
    _reductions,
)
from .report import GAP_TOLERANCE, CheckBlock, CheckColumns, _block, _filled, _first
from .simplex import (
    EntropyValue,
    ProbVec,
    _chain_block,
    _FLOAT_MAX,
    _freeze,
    _shannon_rows,
    _sides,
    _step_plan,
    _table_block,
    _table_entropies,
    _table_plan,
)

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

# A readout of a 4 x 4 state read as a 2 x 2 table: its subadditivity gap is
# the readout's mutual information.
_PAIR = ((4, ((2, 2),), "", None),)


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
    # One pass finds entries that are not finite, and entries so large that
    # U^dag U could overflow; no unitary comes near those.
    top = float(np.abs(u.matrix.view(float)).max())
    if not math.isfinite(top):
        raise NotUnitaryError("unitary has non-finite entries")
    if not top <= math.sqrt(_FLOAT_MAX / (4 * u.dim)):
        raise NotUnitaryError(f"unitary entry {top:.3e} is too large to validate")
    defect = float(np.abs(u.matrix.conj().T @ u.matrix - np.eye(u.dim)).max())
    if not defect <= tol:
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
    n, d = w.shape
    if d > 1:
        gaps = np.abs(w[:, 1:] - w[:, :-1])
        degenerate = np.minimum.reduce(gaps, axis=1) < _DEGENERACY_GAP
    else:
        degenerate = np.zeros(n, dtype=bool)
    # each column's first entry above 1e-12 in size
    pivot_rows = (np.abs(v) > 1e-12).argmax(axis=1)
    pivots = v[np.arange(n)[:, None], pivot_rows, np.arange(d)]
    size = np.abs(pivots)
    phases = np.where(size > 0, pivots / size, 1.0)
    v = v * phases.conj()[:, None, :]
    return v.conj().swapaxes(1, 2), degenerate


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
    if not np.maximum.reduce(np.abs(diag.imag), axis=None) <= 1e-12:
        raise NotHermitianError("basis readout has a complex diagonal")
    w = diag.real
    low = np.minimum.reduce(w, axis=1)
    fine = low >= -1e-12
    if not fine.all():
        bad = np.flatnonzero(~fine)[0]
        raise NotPositiveError(f"basis readout has negative weight {low[bad]:.3e}")
    w = np.maximum(w, 0.0)
    return w / np.add.reduce(w, axis=1, keepdims=True)


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
    return _shannon_rows(probs)


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
    if dim > 1 and budget < dim * (dim - 1) + 1:
        raise DimMismatchError(
            f"a readout search at dim {dim} starts from {dim * (dim - 1) + 1} points, "
            f"more than its budget of {budget} evaluations"
        )
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


def _readout_bound_block(mats: np.ndarray, us: np.ndarray, tolerance: float) -> CheckBlock:
    """``dimN-readout-bound`` on each state of a stack of d x d states, N
    being d, read in its own basis of ``us``: the readout entropy is never
    below the von Neumann entropy."""
    readout = _shannon_rows(_readouts(mats, us))
    entropy = _entropy_rows(mats)
    entropies = {"readout": readout, "von_neumann": entropy}
    name = f"dim{mats.shape[1]}-readout-bound"
    return _block((name,), entropy[None], readout[None], tolerance, lambda c: (entropies, None))


def _readout_min_block(
    mats: np.ndarray, seeds: list[int], tolerance: float, prefix: str = ""
) -> CheckBlock:
    """The basis-readout bound on each state of a stack, checked by one
    batched search of :func:`minimize_entropy_batch` at its default
    restarts and budget: the found minimum sits on the von Neumann entropy
    from above (``readout-min-above``), and within 1e-6 of it, to a
    tolerance of 0 (``readout-min-close``), each id prefixed by ``prefix``.
    Both count what each state's search did: its ``nfev`` over all
    restarts, and whether its winning restart ran out of budget
    (``unconverged``)."""
    found = minimize_entropy_batch([DensityMatrix(m) for m in mats], seeds=seeds)
    s = _entropy_rows(mats)
    h = np.array([float(h_min) for _, h_min in found])
    err = h - s
    counts = {
        "nfev": np.array(found.nfev, dtype=int),
        "unconverged": ~np.array(found.converged, dtype=bool),
    }
    details = ({"minimum_readout": h, "von_neumann": s}, {"error": err})
    return _block(
        (prefix + "readout-min-above", prefix + "readout-min-close"),
        np.stack([s, err]),
        np.stack([h, np.full(len(mats), 1e-6)]),
        (tolerance, 0.0),
        lambda c: (details[c], None),
        counts=(counts, counts),
    )


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
    # the two parts of the 2 x 2 table check, from one gather
    parts = _reductions(rho.matrix[None], _table_plan(4, ((2, 2),), True)[0])
    w1, w2 = (ProbVec(_readouts(r, u.matrix[None])[0]) for r, u in zip(parts, (u1, u2)))
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
    return _first(_table_block([joint], _step_plan(_PAIR, False), GAP_TOLERANCE)).gap


def _kron_rows(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """u1 (x) u2 for each pair of a stack of 2 x 2 unitaries, entry by entry
    as np.kron forms it."""
    return (u1[:, :, None, :, None] * u2[:, None, :, None, :]).reshape(-1, 4, 4)


def _discord_block(
    stacks: list[np.ndarray], tolerance: float, diagonal=()
) -> tuple[CheckBlock, list[np.ndarray]]:
    """:func:`discord` of each matrix of each of a list of stacks of 4 x 4
    or 3 x 3 states, as one block of checks, and each stack's states as read
    (a qutrit padded). A stack's checks are ``discord-nonneg``, the deficit
    (S1 + S2 - S) - I >= 0 with every entropy and flag of a
    :class:`DiscordReport`, then ``chain-upper`` and ``chain-lower``, the
    chain S1 + S2 >= H12 >= S; a qutrit stack's check ids carry the prefix
    ``qutrit-``, next to its ``padded-qutrit`` flag. The stacks whose
    indices are in ``diagonal`` hold diagonal states, which carry no quantum
    correlations: the one check of each, ``discord-diagonal-zero``, is the
    identity of its deficit with 0, to 1e-10. All stacks are read in one
    pass over their concatenation, each filled to the longest."""
    read = []
    for mats in stacks:
        if mats.shape[1] == 3:
            mats = _padded_rows(mats, 4)
        elif mats.shape[1] != 4:
            raise ShapeMismatchError(f"expected a 4 x 4 or 3 x 3 state, got {mats.shape[1]}")
        read.append(mats)
    lengths = [len(mats) for mats in read]
    m = max(lengths)
    mats = read[0] if len(read) == 1 else np.concatenate([_filled(x, m) for x in read])
    n = len(mats)

    # both reductions of the (2, 2) table check from one gather, stacked:
    # one eigenbasis pass and one entropy pass
    parts = np.concatenate(_reductions(mats, _table_plan(4, ((2, 2),), True)[0]))
    us, degenerate = _eigenbases(parts)
    s = _entropy_rows(mats)
    s_parts = _entropy_rows(parts)
    s1, s2 = s_parts[:n], s_parts[n:]
    pair = _step_plan(_PAIR, False)
    readout, _ = _table_entropies([_readouts(mats, _kron_rows(us[:n], us[n:]))], pair)
    [table_lhs], [table_rhs] = _sides(pair, readout)
    h12, information = readout[dict(pair.roles[0])["joint"]], table_rhs - table_lhs
    deficit = (s1 + s2 - s) - information
    upper = s1 + s2

    kinds = tuple(
        "diagonal" if j in diagonal else "qutrit-" if stack.shape[1] == 3 else ""
        for j, stack in enumerate(stacks)
    )
    names, checks, sides, of, identities = _discord_layout(kinds)
    # deficit - 0.0 is the deficit, bit for bit
    terms = np.zeros((5, n))
    terms[1:] = h12, s, deficit, upper
    terms = terms.reshape(5, len(read), m)
    lhs, rhs = terms[sides, of]

    def details(c: int) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray] | None]:
        k, j = checks[c]
        rows = slice(j * m, j * m + lengths[j])
        e = {"s": s[rows], "s1": s1[rows], "s2": s2[rows], "h12": h12[rows]}
        if k == 1:
            return {"h12": e["h12"], "s1": e["s1"], "s2": e["s2"]}, None
        if k == 2:
            return {"h12": e["h12"], "s": e["s"]}, None
        flags = {
            "padded-qutrit": np.full(lengths[j], kinds[j] == "qutrit-"),
            "degenerate-reduction-1": degenerate[:n][rows],
            "degenerate-reduction-2": degenerate[n:][rows],
        }
        return {**e, "information": information[rows]}, flags

    identities = dict.fromkeys(identities, 1e-10)
    block = _block(names, lhs, rhs, tolerance, details, identities, np.array(lengths)[of], of)
    return block, [states[:length] for states, length in zip(read, lengths)]


# A suite asks for the same few layouts on every step.
@lru_cache(maxsize=256)
def _discord_layout(kinds: tuple[str, ...]) -> tuple:
    """The checks of :func:`_discord_block` on stacks of ``kinds``, each
    ``""``, ``"qutrit-"`` or ``"diagonal"``: each check's id and its (k, j),
    check k (discord-nonneg, chain-upper, chain-lower or the diagonal
    identity) of stack j; the terms (0, H12, S, the deficit, S1 + S2) that
    are each check's lhs and rhs, and its stack, as index arrays; and which
    checks are identities."""
    checks = tuple(
        (k, j) for j, kind in enumerate(kinds) for k in ((3,) if kind == "diagonal" else (0, 1, 2))
    )
    names = tuple(
        "discord-diagonal-zero" if k == 3 else kinds[j] + _DISCORD_CHECKS[k] for k, j in checks
    )
    which, of = (np.array(x) for x in zip(*checks))
    sides = np.array([(0, 1, 2, 3), (3, 4, 1, 0)])[:, which]
    identities = tuple(c for c, (k, _) in enumerate(checks) if k == 3)
    for array in (sides, of):
        array.flags.writeable = False
    return names, checks, sides, of, identities


_DISCORD_CHECKS = ("discord-nonneg", "chain-upper", "chain-lower")


def _discord_report(
    nonneg: CheckColumns, i: int, state: np.ndarray, provenance: str = ""
) -> DiscordReport:
    """The :class:`DiscordReport` of row ``i`` of the columns of a
    ``discord-nonneg`` check, whose state as read is ``state``: the values
    its :class:`InequalityReport` would carry, read straight from the
    columns."""
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
    block, [states] = _discord_block([rho.matrix[None]], GAP_TOLERANCE)
    return _discord_report(block.columns(0), 0, states[0], provenance)


def discord_unitary_sweep(
    rho: DensityMatrix, samples: int = 64, seed: int = 0
) -> dict:
    """Diagnostic: how the basis-pair choice moves the discord deficit.

    Samples Haar-random local basis pairs alongside the eigenbasis pair
    and reports the smallest deficit seen. The reported discord is always
    the eigenbasis value; this sweep only gauges how tight that choice is.
    """
    if samples < 0:
        raise ShapeMismatchError(f"samples must be at least 0, got {samples}")
    block, [states] = _discord_block([rho.matrix[None]], GAP_TOLERANCE)
    base = _discord_report(block.columns(0), 0, states[0])
    total = base.s1 + base.s2 - base.s
    best = base.discord
    rng = np.random.default_rng(seed)
    if samples > 0:
        # Pair k is draws 2k and 2k + 1, as a per-sample loop draws them: a
        # stack of draws equals the single draws in turn. All read at once.
        us = haar(2, rng, 2 * samples)
        kron = _kron_rows(us[0::2], us[1::2])
        joints = _readouts(np.repeat(states, samples, axis=0), kron)
        information = _table_block([joints], _step_plan(_PAIR, False), GAP_TOLERANCE).gaps[0]
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


def _axis_unitaries(dim: int, angles) -> np.ndarray:
    """The rotations (n, d, d) of :func:`spin_tomogram_axis` for a d x d
    state along each axis (theta, phi) of ``angles``, in one stacked product."""
    if dim > 4:
        raise DimMismatchError(f"axis readout supports dim <= 4, got {dim}")
    # axis by axis, so that a stack names the first bad axis as it fails alone
    for theta, phi in angles:
        if not (0.0 <= float(theta) <= math.pi):
            raise BadAngleError(f"theta must lie in [0, pi], got {float(theta)!r}")
        if not (0.0 <= float(phi) < 2.0 * math.pi):
            raise BadAngleError(f"phi must lie in [0, 2 pi), got {float(phi)!r}")
    theta, phi = np.array(angles, dtype=float).reshape(-1, 2).T
    m, w, v = _spin_basis(dim)
    rot_y = (v * np.exp(-1j * theta[:, None] * w)[:, None, :]) @ v.conj().T
    return np.exp(-1j * phi[:, None] * m)[:, :, None] * rot_y


def _axis_block(mats: np.ndarray, angles, tolerance: float) -> CheckBlock:
    """The table check and the chain identity of :func:`_chain_block`, as
    ``axis-subadd`` and ``axis-cond-chain``, on the readout of each 4 x 4
    state of a stack along its own spin axis of ``angles``."""
    w = _readouts(mats, _axis_unitaries(mats.shape[1], angles))
    return _chain_block(w, (), tolerance, ("axis-subadd", "axis-cond-chain"))


def spin_tomogram_axis(rho: DensityMatrix, theta: float, phi: float) -> Tomogram:
    """Spin readout along the axis with polar angles (theta, phi).

    The basis rotation is exp(-i phi Jz) exp(-i theta Jy) for the spin
    j = (d - 1) / 2, built on the ascending-m basis. Kept to d <= 4
    (spins 1/2, 1, 3/2).
    """
    return tomogram(rho, UnitaryMatrix(_axis_unitaries(rho.dim, [(theta, phi)])[0]))
