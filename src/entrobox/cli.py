"""Command-line front end: randomized check suites, ensemble generation,
and single-state evaluation.

Usage examples::

    entrobox check --suite classical --trials 10000 --seed 42
    entrobox check --suite quantum --dims 5,7 --output report.json
    entrobox check --suite discord --input diag4.json
    entrobox gen --kind ginibre --dim 4 --count 100 --seed 7 --output states/
    entrobox eval --check subadd --shape 2x4 --input vec7.json

Exit codes: 0 when every check passed, 1 when any inequality check failed,
2 when input could not be parsed or validated, out-of-range arguments
included (a negative ``--seed`` or ``--trials``, an empty ``--dims`` or
``--q``, a repeated ``--dims`` entry, any ``--dims`` for the discord
suite, whose states are fixed at 4 x 4 and 3 x 3, a ``--q`` order that
is not a finite value > 0, a ``--tolerance`` that is not a finite value
>= 0, an ``--input`` state that no job of the chosen suite takes, an
output that cannot be written, a state size above ``_MAX_ENTRIES``
entries or one that does not fit in memory).

Each named check is written once, and ``check`` and ``eval`` both run it.
A suite is a list of jobs, each drawing ``trials`` states from one sampler
at one dim; an ``--input`` state joins every job whose sampler could have
drawn it, and the table sweeps check it once at a dim they do not sweep.
A job's draws are stacked in chunks of a fixed size, and each check runs
once per chunk over all of its states, so memory does not grow with
``--trials``. A check gives its result as columns, one entry per state,
and the aggregate takes a whole chunk of them at once; a report object,
a provenance string and a serialized state are built only for an instance
that fails. Drawn states stay the sampler's arrays: no state object is
built for them, except in the readout search, which takes state objects.
A state's result does not depend on the batch it ran in: ``eval`` runs the
same kernels on a batch of one and builds the report of that one row.

Reports are deterministic: two runs with the same arguments produce
byte-identical JSON except for the ``wall_time_s`` field. Each job draws
from one generator, seeded by the master seed and the job's tag, and trial
k is the k-th state it draws; each chunk is drawn with one stacked call. A
state thus depends on (seed, tag, trial) alone, never on ``--trials``, the
chunk size or an ``--input``. The further draws a check takes per state (a
readout basis, a spin axis, a readout search's seed) come in the same
order from a second stream of the job; an input state's come from a third.
``gen`` follows the same rule: state i is the i-th draw of one generator
seeded by ``--seed``.

:func:`main` may be called repeatedly in one process, from several threads
too. It parses every call against one parser, built on first use and kept
for the life of the process; parsing builds a fresh namespace each time and
never changes the parser, and every argument default is immutable.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from . import __version__
from .ensembles import diagonal_density, dirichlet, ginibre, haar
from .errors import BadOrderError, EntroboxError, NotHermitianError, ShapeMismatchError
from .qstate import (
    DensityMatrix,
    _entropy_rows,
    _q_table_columns,
    quantum_strong_subadditivity,
    quantum_subadditivity,
    validate_density,
)
from .report import GAP_TOLERANCE, IDENTITY_TOLERANCE, CheckColumns, InequalityReport
from .simplex import (
    ProbVec,
    _conditional_rows,
    _shannon_rows,
    _split_rows,
    _strong_subadd_columns,
    _subadd_columns,
    _tsallis_chain_columns,
    _tsallis_rows,
    _zero_padded,
    admissible_shapes,
    strong_subadditivity_gap,
    subadditivity_gap,
    tsallis_monotonicity_check,
    validate_prob_vec,
)
from .tomography import (
    _axis_unitary,
    _discord_columns,
    _readout_min_columns,
    _readouts,
    discord,
    spin_tomogram_axis,
)

SUITES = ("classical", "quantum", "tomographic", "discord", "all")

_CLASSICAL_DIMS = list(range(4, 13))
_QUANTUM_DIMS = [3, 4, 5, 7]
_TOMOGRAPHIC_DIMS = [2, 3, 4]

# The entropy minimizer is far costlier per state than any other check, so
# the suite caps its state count independently of --trials.
_MINIMIZER_CAP = 100

# The most entries one state may hold, as a vector or as a matrix: far more
# than fits in memory, far fewer than numpy can index.
_MAX_ENTRIES = 2**40

State = ProbVec | DensityMatrix


@dataclass
class SuiteConfig:
    """Resolved configuration of one ``check`` run."""

    suite: str = "all"
    dims: list[int] | None = None
    trials: int = 1000
    seed: int = 0
    q_values: tuple[float, ...] = (0.5, 2.0, 3.0)
    tolerance: float = GAP_TOLERANCE
    input_path: str | None = None

    def __post_init__(self) -> None:
        if self.trials < 0:
            raise ShapeMismatchError(f"need trials >= 0, got {self.trials}")
        if self.dims is not None and self.suite == "discord":
            raise ShapeMismatchError("the discord suite takes no --dims")
        if self.dims is not None and not self.dims:
            raise ShapeMismatchError("need at least one dim, got an empty list")
        if self.dims and min(self.dims) < 2:
            raise ShapeMismatchError(f"need every dim >= 2, got {self.dims}")
        if self.dims and len(set(self.dims)) < len(self.dims):
            raise ShapeMismatchError(f"need distinct dims, got {self.dims}")
        if self.dims:
            _require_size(max(self.dims), matrix=self.suite != "classical")
        if not self.q_values:
            raise ShapeMismatchError("need at least one Tsallis order, got an empty list")
        if not all(math.isfinite(q) and q > 0 for q in self.q_values):
            raise BadOrderError(f"need finite Tsallis orders > 0, got {list(self.q_values)}")
        _require_seed(self.seed)
        _require_tolerance(self.tolerance)

    def resolved_dims(self, family: str) -> list[int]:
        if self.dims is not None:
            return list(self.dims)
        return {
            "classical": _CLASSICAL_DIMS,
            "quantum": _QUANTUM_DIMS,
            "tomographic": _TOMOGRAPHIC_DIMS,
        }[family]


def _require_seed(seed: int) -> None:
    if seed < 0:
        raise EntroboxError(f"need seed >= 0, got {seed}")


def _require_tolerance(tolerance: float) -> None:
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise EntroboxError(f"need a finite tolerance >= 0, got {tolerance}")


def _require_size(dim: int, matrix: bool) -> None:
    if (dim * dim if matrix else dim) > _MAX_ENTRIES:
        kind = "density matrix" if matrix else "probability vector"
        raise ShapeMismatchError(f"a {kind} of dim {dim} has more than 2**40 entries")


# ---------------------------------------------------------------------------
# state files


def ingest_prob_vec(path: str | Path) -> ProbVec:
    """Read a probability vector from a JSON array file."""
    data = _load_json(path)
    if not isinstance(data, list):
        raise ShapeMismatchError(f"{path}: expected a JSON array of probabilities")
    return _prob_vec_from_json(data, path)


def _prob_vec_from_json(data: list, path: str | Path) -> ProbVec:
    """Validate a parsed JSON array as a probability vector."""
    _reject_booleans(data, path)
    return validate_prob_vec(data)


def _reject_booleans(data, path: str | Path) -> None:
    """Refuse a JSON ``true`` or ``false`` anywhere in ``data``, which numpy
    would otherwise read as 1.0 or 0.0. It walks the arrays with a stack
    of its own, so no nesting depth can exhaust the interpreter's."""
    pending = [data]
    while pending:
        x = pending.pop()
        if isinstance(x, bool):
            raise ShapeMismatchError(f"{path}: a JSON boolean is not a number")
        if isinstance(x, list):
            pending.extend(x)


def ingest_density(path: str | Path) -> DensityMatrix:
    """Read a density matrix from JSON ({"dim": d, "re": [[..]], "im": [[..]]}).

    ``im`` may be omitted for real matrices.
    """
    return _density_from_json(_load_json(path), path)


def _density_from_json(data, path: str | Path) -> DensityMatrix:
    if not isinstance(data, dict) or "dim" not in data or "re" not in data:
        raise ShapeMismatchError(f"{path}: expected an object with 'dim' and 're'")
    dim = data["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ShapeMismatchError(f"{path}: 'dim' must be an integer, got {dim!r}")
    im_raw = data.get("im")
    _reject_booleans(data["re"], path)
    _reject_booleans(im_raw, path)
    try:
        re = np.asarray(data["re"], dtype=float)
        im = np.zeros_like(re) if im_raw is None else np.asarray(im_raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ShapeMismatchError(f"{path}: not a numeric matrix: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ShapeMismatchError(
            f"{path}: 're'/'im' must be {dim} x {dim} arrays"
        )
    # Refused before assembly: re + 1j * im multiplies an infinite entry by
    # zero, which warns.
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise NotHermitianError(f"{path}: 're'/'im' have non-finite entries")
    return validate_density(re + 1j * im)


def _ingest_any(path: str) -> State:
    data = _load_json(path)
    if isinstance(data, list):
        return _prob_vec_from_json(data, path)
    if isinstance(data, dict):
        return _density_from_json(data, path)
    raise ShapeMismatchError(f"{path}: expected a JSON array or object")


def _load_json(path: str | Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ShapeMismatchError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise ShapeMismatchError(f"{path}: JSON nested too deeply") from exc


def serialize_prob_vec(p: ProbVec) -> list[float]:
    return _serialize_array(p.values)


def serialize_density(rho: DensityMatrix) -> dict:
    return _serialize_array(rho.matrix)


def _serialize_array(state: np.ndarray):
    """The JSON form of a state given as its array: a vector (N,) or a
    matrix (d, d)."""
    if state.ndim == 1:
        return state.tolist()
    return {"dim": state.shape[0], "re": state.real.tolist(), "im": state.imag.tolist()}


def _array(state: State) -> np.ndarray:
    return state.values if isinstance(state, ProbVec) else state.matrix


def _state(array: np.ndarray) -> State:
    """The state object of a sampler's array, which it takes as valid."""
    return ProbVec(array) if array.ndim == 1 else DensityMatrix(array)


def _write(path: str | Path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise EntroboxError(f"cannot write {path}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# samplers


def _is_density(state: State, dim: int) -> bool:
    return isinstance(state, DensityMatrix) and state.dim == dim


def _is_diagonal_density(state: State, dim: int) -> bool:
    if not _is_density(state, dim):
        return False
    off = state.matrix - np.diag(state.matrix.diagonal())
    return float(np.abs(off).max()) < 1e-14


class _Sampler(NamedTuple):
    """A random state family: how to draw a stack of ``n`` (their arrays,
    vectors or matrices, stacked), how a drawn one is labelled, and whether
    a given state is one it could have drawn."""

    draw: Callable[[int, np.random.Generator, int], np.ndarray]
    provenance: str
    could_draw: Callable[[State, int], bool]


# Each draw looks up its ensemble function in this module at each call.
_DIRICHLET = _Sampler(
    lambda dim, rng, n: dirichlet(dim, rng, n),
    "dirichlet(dim={dim},seed={seed},trial={trial})",
    lambda state, dim: isinstance(state, ProbVec) and state.dim == dim,
)
_GINIBRE = _Sampler(
    lambda dim, rng, n: ginibre(dim, rng, n),
    "ginibre(dim={dim},seed={seed},trial={trial})",
    _is_density,
)
_DIAGONAL = _Sampler(
    lambda dim, rng, n: diagonal_density(dim, rng, n),
    "diagonal(dim={dim},seed={seed},trial={trial})",
    _is_diagonal_density,
)
# A Ginibre state read along a random axis: no input state carries an axis.
_AXIS = _GINIBRE._replace(could_draw=lambda state, dim: False)
# The one maximally mixed state, which needs no randomness.
_MIXED = _Sampler(
    lambda dim, rng, n: np.repeat(np.eye(dim, dtype=complex)[None] / dim, n, axis=0),
    "maximally-mixed-{dim}",
    lambda state, dim: False,
)

_ENSEMBLES = {"simplex": _DIRICHLET, "ginibre": _GINIBRE, "diagonal": _DIAGONAL}


def generate_ensemble(kind: str, dim: int, count: int, seed: int) -> Iterator[State]:
    """Return an iterator over ``count`` validated states of the requested kind.

    Kinds: ``simplex`` (flat Dirichlet vectors), ``ginibre`` (full-rank
    random density matrices), ``diagonal`` (diagonal density matrices with
    Dirichlet weights). State ``i`` is the ``i``-th state drawn from one
    generator, ``default_rng(SeedSequence(seed))``, so it depends only on
    ``(seed, i)``: the first states of a larger ``count`` are the states of
    a smaller one. States are drawn in stacks of a fixed size. The arguments
    are checked by this call, before any state is drawn.
    """
    if kind not in _ENSEMBLES:
        raise ShapeMismatchError(f"unknown ensemble kind {kind!r}")
    if dim < 2 or count < 0:
        raise ShapeMismatchError("need dim >= 2 and count >= 0")
    _require_seed(seed)
    _require_size(dim, matrix=kind != "simplex")
    draw = _ENSEMBLES[kind].draw

    def states() -> Iterator[State]:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        for start in range(0, count, _CHUNK):
            yield from map(_state, draw(dim, rng, min(_CHUNK, count - start)))

    return states()


# ---------------------------------------------------------------------------
# checks, each written once for `check` and `eval`


def _identity(name: str, lhs: np.ndarray, rhs: np.ndarray, tol: float) -> CheckColumns:
    """Equalities |lhs - rhs| <= tol, with the two sides as the entropies.

    The gap is -(|lhs - rhs|), so "gap >= -tol" is the equality test and
    the aggregate's min_gap shows the worst deviation.
    """
    return CheckColumns(name, lhs, rhs, {"lhs": lhs, "rhs": rhs}, tol, identity=True)


def _cond_chain(rows: np.ndarray) -> CheckColumns:
    """The Shannon chain on each row of a stack of 4-vectors: the
    block-weighted entropies of its two conditional halves add up to
    H(V | V~)."""
    blocks, halves = _split_rows(rows)
    h = _shannon_rows(halves)
    weighted = blocks[:, 0] * h[:, 0] + blocks[:, 1] * h[:, 1]
    return _identity("cond-chain-identity", weighted, _conditional_rows(rows), IDENTITY_TOLERANCE)


# ---------------------------------------------------------------------------
# suites: jobs of sampled states, each check run once over a chunk of them

# States a job's checks take at once. The chunk size is fixed, so a suite's
# memory does not grow with --trials; it is at least _MINIMIZER_CAP, so each
# readout-min job stays one batched search.
_CHUNK = 128


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


class _Streams:
    """The generators of one job, each seeded on first use from the master
    seed and the job's tag: ``states`` draws its trial states in order, and
    ``extras`` the further draws its checks take for them, in the same
    order; ``input`` takes those for an input state."""

    def __init__(self, seed: int, tag: int) -> None:
        self.seed = seed
        self.tag = tag

    @functools.cached_property
    def states(self) -> np.random.Generator:
        return _rng(self.seed, self.tag)

    @functools.cached_property
    def extras(self) -> np.random.Generator:
        return _rng(self.seed, self.tag, 0)

    @functools.cached_property
    def input(self) -> np.random.Generator:
        return _rng(self.seed, self.tag, 1)


class _Chunk(NamedTuple):
    """Consecutive rows of one job, their states stacked as ``rows``:
    vectors (n, N) or matrices (n, d, d). The input state comes first when
    ``has_input``; the other rows are the trials in ``trials``."""

    job: _Job
    streams: _Streams
    has_input: bool
    trials: range
    rows: np.ndarray

    def provenance(self, i: int) -> str:
        """Where row ``i``'s state came from."""
        if self.has_input and i == 0:
            return "input"
        trial = self.trials[i - self.has_input]
        return self.job.sampler.provenance.format(
            dim=self.job.dim, seed=self.streams.seed, trial=trial
        )

    def extras(self, draw: Callable[[np.random.Generator, int], np.ndarray]) -> np.ndarray:
        """One further draw per row, stacked: ``draw(rng, n)`` draws ``n``.
        The trials take the next ones from the job's extra stream, the input
        its own."""
        parts = [draw(self.streams.input, 1)] if self.has_input else []
        if self.trials:
            parts.append(draw(self.streams.extras, len(self.trials)))
        return np.concatenate(parts)


# A job's checks: a chunk of its rows and the configuration in; out, for
# each check, its columns over the chunk's rows, named by the check's id,
# and the provenance of row i.
_Checks = Callable[[_Chunk, SuiteConfig], Iterable[tuple[CheckColumns, Callable[[int], str]]]]


class _Job(NamedTuple):
    """``trials`` states from ``sampler`` at ``dim``, seeded under ``tag``."""

    tag: int
    sampler: _Sampler
    dim: int
    checks: _Checks
    trials: int

    def takes(self, state: State | None) -> bool:
        return state is not None and self.sampler.could_draw(state, self.dim)


def _chunks(job: _Job, seed: int, input_state: State | None) -> Iterator[_Chunk]:
    """The job's rows, at most ``_CHUNK`` at a time: the input state first,
    when given, then the trials, where trial k is the k-th state the job's
    generator draws, whatever the chunking."""
    streams = _Streams(seed, job.tag)
    head = [] if input_state is None else [_array(input_state)[None]]
    start = 0
    while head or start < job.trials:
        trials = range(start, min(job.trials, start + _CHUNK - len(head)))
        parts = head + [job.sampler.draw(job.dim, streams.states, len(trials))] if trials else head
        yield _Chunk(job, streams, bool(head), trials, np.concatenate(parts))
        head, start = [], trials.stop


def _labelled(chunk: _Chunk, checks: Iterable[CheckColumns]):
    """(columns, provenance) for each check of a chunk whose rows are
    labelled by the chunk itself."""
    return [(columns, chunk.provenance) for columns in checks]


def _middle_bipartition(p8: np.ndarray) -> np.ndarray:
    """Reorder each 8-vector of a stack so its (2, 4) reading pairs the
    middle binary digit against the outer two; the complementary grouping
    of the cube."""
    return p8.reshape(-1, 2, 2, 2).transpose(0, 2, 1, 3).reshape(-1, 8)


def _seven_checks(chunk: _Chunk, config: SuiteConfig):
    rows, tol = chunk.rows, config.tolerance
    mid = _middle_bipartition(_zero_padded(rows, 8))
    return _labelled(
        chunk,
        [
            _strong_subadd_columns(rows, (2, 2, 2), tol)._replace(name="strong-subadd-7"),
            _subadd_columns(rows, (2, 4), tol)._replace(name="subadd-7-adjacent"),
            _subadd_columns(mid, (2, 4), tol)._replace(name="subadd-7-middle"),
        ],
    )


def _four_checks(chunk: _Chunk, config: SuiteConfig):
    rows, tol = chunk.rows, config.tolerance
    checks = [_subadd_columns(rows, (2, 2), tol)._replace(name="subadd-4"), _cond_chain(rows)]
    checks += [_tsallis_chain_columns(rows, q, tol) for q in config.q_values]
    h = _shannon_rows(rows)
    worst = np.maximum(
        np.abs(_tsallis_rows(rows, 1.0 + 1e-4) - h),
        np.abs(_tsallis_rows(rows, 1.0 - 1e-4) - h),
    )
    checks.append(_identity("tsallis-shannon-limit", worst, np.zeros(len(rows)), 1e-3))
    return _labelled(chunk, checks)


def _table_checks(chunk: _Chunk, config: SuiteConfig):
    # Subadditivity of every admissible 2-factor rereading of the states at
    # their own dim, then strong subadditivity of every 3-factor one.
    rows = chunk.rows
    dim, tol = rows.shape[1], config.tolerance
    shapes = admissible_shapes(dim, 2) + admissible_shapes(dim, 3)
    if rows.ndim == 3:
        checks = _q_table_columns(rows, shapes, tol)
    else:
        kernels = {2: _subadd_columns, 3: _strong_subadd_columns}
        checks = [kernels[len(shape)](rows, shape, tol) for shape in shapes]
    return _labelled(chunk, [c._replace(name=f"dim{dim}-{c.name}") for c in checks])


def _mixed_equality(chunk: _Chunk, config: SuiteConfig):
    # The maximally mixed state sits exactly on the subadditivity equality.
    [pair] = _q_table_columns(chunk.rows, [(2, 2)], config.tolerance)
    return _labelled(chunk, [_identity("q-subadd-mixed-equality", pair.lhs, pair.rhs, 1e-10)])


def _readout_bound(chunk: _Chunk, config: SuiteConfig):
    # Each state is read in a Haar-random basis, one extra draw per state.
    rows = chunk.rows
    dim = rows.shape[1]
    us = chunk.extras(lambda rng, n: haar(dim, rng, n))
    readout = _shannon_rows(_readouts(rows, us))
    entropy = _entropy_rows(rows)
    entropies = {"readout": readout, "von_neumann": entropy}
    bound = CheckColumns(f"dim{dim}-readout-bound", entropy, readout, entropies, config.tolerance)
    return _labelled(chunk, [bound])


def _axis_checks(chunk: _Chunk, config: SuiteConfig):
    # Subadditivity and the conditional chain hold along every measurement
    # direction of a spin-3/2 readout; each state's axis is one extra draw,
    # cos(theta) then phi, each uniform.
    rows = chunk.rows
    draws = chunk.extras(lambda rng, n: rng.uniform((-1.0, 0.0), (1.0, 2.0 * math.pi), (n, 2)))
    angles = [(math.acos(z), phi) for z, phi in draws.tolist()]
    us = np.stack([_axis_unitary(rows.shape[1], theta, phi) for theta, phi in angles])
    w = _readouts(rows, us)

    def provenance(i: int) -> str:
        theta, phi = angles[i]
        return f"{chunk.provenance(i)},axis(theta={theta:.6f},phi={phi:.6f})"

    return [
        (_subadd_columns(w, (2, 2), config.tolerance)._replace(name="axis-subadd"), provenance),
        (_cond_chain(w)._replace(name="axis-cond-chain"), provenance),
    ]


def _readout_min_checks(chunk: _Chunk, config: SuiteConfig):
    # Each state's search seed is one extra draw.
    seeds = chunk.extras(lambda rng, n: rng.integers(2**63, size=n)).tolist()
    checks = _readout_min_columns(chunk.rows, seeds, config.tolerance)
    dim = chunk.rows.shape[1]
    return _labelled(chunk, [c._replace(name=f"dim{dim}-{c.name}") for c in checks])


def _discord_checks(chunk: _Chunk, config: SuiteConfig):
    # Discord nonnegativity and the entropy chain S1 + S2 >= H12 >= S.
    return _labelled(chunk, _discord_columns(chunk.rows, config.tolerance)[0])


def _diagonal_discord(chunk: _Chunk, config: SuiteConfig):
    # Diagonal states carry no quantum correlations: discord must vanish.
    (nonneg, _, _), _ = _discord_columns(chunk.rows, config.tolerance)
    zero = np.zeros(len(chunk.rows))
    return _labelled(chunk, [_identity("discord-diagonal-zero", nonneg.rhs, zero, 1e-10)])


def _table_jobs(
    tag: int, sampler: _Sampler, dims: list[int], trials: int, input_state: State | None
) -> list[_Job]:
    """One table job per swept dim, and a trial-free one at the input's dim
    when the sweep does not cover it."""
    jobs = [_Job(tag + j, sampler, dim, _table_checks, trials) for j, dim in enumerate(dims)]
    off_dim = input_state is not None and input_state.dim not in dims
    if off_dim and sampler.could_draw(input_state, input_state.dim):
        jobs.append(_Job(tag, sampler, input_state.dim, _table_checks, 0))
    return jobs


def _jobs(config: SuiteConfig, input_state: State | None) -> list[_Job]:
    """Every job of the configured suite, in report order."""
    n = config.trials
    tomographic = config.resolved_dims("tomographic")
    families = {
        "classical": [
            _Job(1, _DIRICHLET, 7, _seven_checks, n),
            _Job(2, _DIRICHLET, 4, _four_checks, n),
            *_table_jobs(10, _DIRICHLET, config.resolved_dims("classical"), n, input_state),
        ],
        "quantum": [
            _Job(0, _MIXED, 4, _mixed_equality, 1),
            *_table_jobs(100, _GINIBRE, config.resolved_dims("quantum"), n, input_state),
        ],
        "tomographic": [
            *(_Job(200 + j, _GINIBRE, dim, _readout_bound, n) for j, dim in enumerate(tomographic)),
            _Job(230, _AXIS, 4, _axis_checks, n),
            *(
                _Job(240 + j, _GINIBRE, dim, _readout_min_checks, min(n, _MINIMIZER_CAP))
                for j, dim in enumerate(tomographic)
            ),
        ],
        "discord": [
            _Job(300, _GINIBRE, 4, _discord_checks, n),
            _Job(301, _DIAGONAL, 4, _diagonal_discord, n),
            _Job(302, _GINIBRE, 3, _discord_checks, n),
        ],
    }
    if config.suite == "all":
        return [job for jobs in families.values() for job in jobs]
    return families[config.suite]


@dataclass
class _Agg:
    """Streaming aggregate of one named check across trials, taken one
    chunk of columns at a time."""

    count: int = 0
    failures: int = 0
    min_gap: float = math.inf
    max_gap: float = -math.inf
    total: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)
    failing: list[dict] = field(default_factory=list)

    def add(
        self, columns: CheckColumns, states: np.ndarray, provenance: Callable[[int], str]
    ) -> None:
        """Take a chunk's rows of one check; ``states`` are the rows' states
        and ``provenance(i)`` names row i's origin. A report, provenance and
        serialized state are built only for a row that fails."""
        values = columns.gaps().tolist()
        self.count += len(values)
        # Row by row in draw order, as the rows would be taken one at a
        # time: the first of equal extremes stays (a -0.0 keeps its sign)
        # and the total is rounded after each row.
        self.min_gap = min(self.min_gap, *values)
        self.max_gap = max(self.max_gap, *values)
        for gap in values:
            self.total += gap
        for role, column in (columns.counts or {}).items():
            self.counts[role] = self.counts.get(role, 0) + int(column.sum())
        floor = -columns.tolerance
        for i in [i for i, gap in enumerate(values) if not gap >= floor]:
            rep = columns.report(i, provenance(i))
            self.failures += 1
            self.failing.append(
                {
                    "check": rep.name,
                    "provenance": rep.provenance,
                    "gap": rep.gap,
                    "report": rep.to_dict(),
                    "state": _serialize_array(states[i]),
                }
            )

    def row(self, name: str) -> dict:
        return {
            "id": name,
            "count": self.count,
            "failures": self.failures,
            "min_gap": self.min_gap,
            "max_gap": self.max_gap,
            "mean_gap": self.total / self.count if self.count else 0.0,
            **self.counts,
        }


def run_suite(config: SuiteConfig) -> dict:
    """Run the configured randomized check suite and return the report.

    Raises :class:`EntroboxError` when an input state is given and no job of
    the suite takes it.
    """
    t0 = time.perf_counter()
    input_state = _ingest_any(config.input_path) if config.input_path else None
    jobs = _jobs(config, input_state)
    if input_state is not None and not any(job.takes(input_state) for job in jobs):
        kind = "probability vector" if isinstance(input_state, ProbVec) else "density matrix"
        raise ShapeMismatchError(
            f"{config.input_path}: the {config.suite!r} suite checks no "
            f"{kind} of dim {input_state.dim}"
        )

    aggs: dict[str, _Agg] = {}
    for job in jobs:
        for chunk in _chunks(job, config.seed, input_state if job.takes(input_state) else None):
            for columns, provenance in job.checks(chunk, config):
                agg = aggs.get(columns.name)
                if agg is None:
                    agg = aggs[columns.name] = _Agg()
                agg.add(columns, chunk.rows, provenance)

    rows = [agg.row(name) for name, agg in aggs.items()]
    return {
        "version": __version__,
        "config": {
            "suite": config.suite,
            "dims": config.dims,
            "trials": config.trials,
            "seed": config.seed,
            "q_values": list(config.q_values),
            "tolerance": config.tolerance,
            "input": config.input_path,
        },
        "checks": rows,
        "failing_instances": [f for agg in aggs.values() for f in agg.failing],
        "all_passed": all(row["failures"] == 0 for row in rows),
        "wall_time_s": time.perf_counter() - t0,
    }


# ---------------------------------------------------------------------------
# single-state evaluation


def _shape(text: str | None, state: State, factors: int) -> tuple[int, ...]:
    """The ``--shape`` factorization of ``state``, or else the first
    admissible one."""
    if text is None:
        return admissible_shapes(state.dim, factors)[0]
    try:
        shape = tuple(int(x) for x in text.lower().split("x"))
    except ValueError as exc:
        raise ShapeMismatchError(f"bad shape {text!r}") from exc
    if len(shape) != factors:
        raise ShapeMismatchError(f"shape {text!r} must have {factors} factors")
    if min(shape) >= 2:  # a smaller factor is the check's to refuse
        _require_size(math.prod(shape), matrix=isinstance(state, DensityMatrix))
    return shape


def _eval_discord(rho: DensityMatrix, args: argparse.Namespace) -> dict:
    rep = discord(rho, "input")
    return {**rep.to_dict(), "passed": bool(rep.discord >= -args.tolerance)}


def _eval_axis_subadd(rho: DensityMatrix, args: argparse.Namespace) -> InequalityReport:
    w = spin_tomogram_axis(rho, args.theta, args.phi).probabilities
    return subadditivity_gap(w, (2, 2), args.tolerance, "input")


def _eval_readout_min(rho: DensityMatrix, args: argparse.Namespace) -> dict:
    # Passes only when the found minimum is both above S and within 1e-6 of it.
    above, close = _readout_min_columns(rho.matrix[None], [args.seed], args.tolerance)
    above_rep, close_rep = above.report(0, "input"), close.report(0, "input")
    return {
        **above_rep.to_dict(),
        "error": close_rep.entropies["error"],
        "nfev": int(above.counts["nfev"][0]),
        "converged": not above.counts["unconverged"][0],
        "passed": above_rep.passed and close_rep.passed,
    }


def _at_shape(check: str, factors: int):
    """Evaluate the library check named ``check`` at the ``--shape``
    factorization, looked up by name at each call."""

    def evaluate(state: State, args: argparse.Namespace) -> InequalityReport:
        shape = _shape(args.shape, state, factors)
        return globals()[check](state, shape, args.tolerance, "input")

    return evaluate


# eval check -> (state type its file holds, evaluation of that state). The
# evaluations look up the library functions they call at each call.
_EVALUATIONS = {
    "subadd": (ProbVec, _at_shape("subadditivity_gap", 2)),
    "strong-subadd": (ProbVec, _at_shape("strong_subadditivity_gap", 3)),
    "cond-chain": (ProbVec, lambda p, args: _cond_chain(p.values[None]).report(0, "input")),
    "tsallis-chain": (
        ProbVec,
        lambda p, args: tsallis_monotonicity_check(p, args.q, args.tolerance, "input"),
    ),
    "q-subadd": (DensityMatrix, _at_shape("quantum_subadditivity", 2)),
    "q-strong-subadd": (DensityMatrix, _at_shape("quantum_strong_subadditivity", 3)),
    "discord": (DensityMatrix, _eval_discord),
    "readout-min": (DensityMatrix, _eval_readout_min),
    "axis-subadd": (DensityMatrix, _eval_axis_subadd),
}

EVAL_CHECKS = tuple(_EVALUATIONS)


def eval_single(check: str, args: argparse.Namespace) -> tuple[dict, bool]:
    """Evaluate one named check on one state file."""
    _require_seed(args.seed)
    _require_tolerance(args.tolerance)
    if check not in _EVALUATIONS:
        raise ShapeMismatchError(f"unknown check {check!r}")
    kind, evaluate = _EVALUATIONS[check]
    state = ingest_prob_vec(args.input) if kind is ProbVec else ingest_density(args.input)
    result = evaluate(state, args)
    if isinstance(result, InequalityReport):
        return result.to_dict(), result.passed
    return result, result["passed"]


# ---------------------------------------------------------------------------
# argument parsing and entry point


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def build_parser() -> argparse.ArgumentParser:
    """Return a new parser for the ``entrobox`` command line."""
    parser = argparse.ArgumentParser(
        prog="entrobox",
        description="Randomized verification of entropic inequalities for "
        "classical and quantum states of a single system.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run a randomized check suite")
    check.add_argument("--suite", choices=SUITES, default="all")
    check.add_argument(
        "--dims",
        type=_int_list,
        default=None,
        help="comma-separated dimensions for the table sweeps (defaults per suite)",
    )
    check.add_argument("--trials", type=int, default=1000)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument(
        "--q",
        dest="q_values",
        type=_float_list,
        default=(0.5, 2.0, 3.0),
        help="comma-separated Tsallis orders",
    )
    check.add_argument("--tolerance", type=float, default=GAP_TOLERANCE)
    check.add_argument("--input", default=None, help="optional single state JSON")
    check.add_argument("--output", default=None, help="write the JSON report here")

    gen = sub.add_parser("gen", help="emit a random ensemble to JSON files")
    gen.add_argument("--kind", choices=tuple(_ENSEMBLES), required=True)
    gen.add_argument("--dim", type=int, required=True)
    gen.add_argument("--count", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", required=True, help="output directory")

    ev = sub.add_parser("eval", help="evaluate one named check on one state")
    ev.add_argument("--check", choices=EVAL_CHECKS, required=True)
    ev.add_argument("--input", required=True, help="state JSON file")
    ev.add_argument("--shape", default=None, help="factorization, e.g. 2x4 or 2x2x2")
    ev.add_argument("--q", type=float, default=2.0)
    ev.add_argument("--theta", type=float, default=0.0)
    ev.add_argument("--phi", type=float, default=0.0)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--tolerance", type=float, default=GAP_TOLERANCE)
    ev.add_argument("--output", default=None)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    return build_parser()


def _emit(payload: dict, output: str | None) -> str | None:
    """Write ``payload`` as JSON to ``output``, or return the JSON text for
    stdout when there is no output file."""
    text = json.dumps(payload, indent=2)
    if not output:
        return text
    _write(output, text + "\n")
    return None


# Each command returns its exit code and the text it prints on stdout.


def _cmd_check(args: argparse.Namespace) -> tuple[int, str | None]:
    config = SuiteConfig(
        suite=args.suite,
        dims=args.dims,
        trials=args.trials,
        seed=args.seed,
        q_values=tuple(args.q_values),
        tolerance=args.tolerance,
        input_path=args.input,
    )
    report = run_suite(config)
    text = _emit(report, args.output)
    if args.output:
        total = sum(row["count"] for row in report["checks"])
        failed = sum(row["failures"] for row in report["checks"])
        status = "passed" if report["all_passed"] else "FAILED"
        text = (
            f"{status}: {len(report['checks'])} checks, {total} instances, "
            f"{failed} failures -> {args.output}"
        )
    return (0 if report["all_passed"] else 1), text


def _cmd_gen(args: argparse.Namespace) -> tuple[int, str | None]:
    states = generate_ensemble(args.kind, args.dim, args.count, args.seed)
    out_dir = Path(args.output)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise EntroboxError(f"cannot create directory {out_dir}: {exc.strerror or exc}") from exc
    for i, state in enumerate(states):
        path = out_dir / f"{args.kind}{args.dim}-{i:04d}.json"
        _write(path, json.dumps(_serialize_array(_array(state)), indent=2) + "\n")
    return 0, f"wrote {args.count} states to {out_dir}"


def _cmd_eval(args: argparse.Namespace) -> tuple[int, str | None]:
    payload, passed = eval_single(args.check, args)
    return (0 if passed else 1), _emit(payload, args.output)


_COMMANDS = {"check": _cmd_check, "gen": _cmd_gen, "eval": _cmd_eval}


def main(argv: list[str] | None = None) -> int:
    """Run one ``entrobox`` command line and return its exit code."""
    args = _shared_parser().parse_args(argv)
    try:
        code, text = _COMMANDS[args.command](args)
    except EntroboxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a size under the ceiling that does not fit
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return 2
    if text is not None:
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader closed stdout: the text is lost, the exit code
            # stands. Python flushes stdout again at exit, so point it at
            # the null device first.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
