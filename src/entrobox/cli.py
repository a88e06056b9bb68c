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
``--q``, a ``--q`` order that is not a finite value > 0, a ``--tolerance``
that is not a finite value >= 0, an ``--input`` state that no job of the
chosen suite takes, an output that cannot be written).

Each named check is written once, and ``check`` and ``eval`` both run it.
A suite is a list of jobs, each drawing ``trials`` states from one sampler
at one dim; an ``--input`` state joins every job whose sampler could have
drawn it, and the table sweeps check it once at a dim they do not sweep.

Reports are deterministic: two runs with the same arguments produce
byte-identical JSON except for the ``wall_time_s`` field. Per-trial states
are derived from the master seed, the job's tag and the trial index alone.

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
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from . import __version__
from .ensembles import diagonal_density, dirichlet, ginibre, haar
from .errors import BadOrderError, EntroboxError, ShapeMismatchError
from .qstate import (
    DensityMatrix,
    quantum_strong_subadditivity,
    quantum_subadditivity,
    validate_density,
    von_neumann,
)
from .report import GAP_TOLERANCE, IDENTITY_TOLERANCE, InequalityReport, make_report
from .simplex import (
    ProbVec,
    admissible_shapes,
    conditional_entropy,
    conditional_pair,
    shannon,
    strong_subadditivity_gap,
    subadditivity_gap,
    tsallis,
    tsallis_monotonicity_check,
    validate_prob_vec,
)
from .tomography import (
    DiscordReport,
    UnitaryMatrix,
    discord,
    minimize_entropy_batch,
    spin_tomogram_axis,
    tomographic_entropy,
)

SUITES = ("classical", "quantum", "tomographic", "discord", "all")

_CLASSICAL_DIMS = list(range(4, 13))
_QUANTUM_DIMS = [3, 4, 5, 7]
_TOMOGRAPHIC_DIMS = [2, 3, 4]

# The entropy minimizer is far costlier per state than any other check, so
# the suite caps its state count independently of --trials.
_MINIMIZER_CAP = 100
_MINIMIZER_RESTARTS = 8
_MINIMIZER_BUDGET = 5000

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
        if self.dims is not None and not self.dims:
            raise ShapeMismatchError("need at least one dim, got an empty list")
        if self.dims and min(self.dims) < 2:
            raise ShapeMismatchError(f"need every dim >= 2, got {self.dims}")
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


# ---------------------------------------------------------------------------
# state files


def ingest_prob_vec(path: str | Path) -> ProbVec:
    """Read a probability vector from a JSON array file."""
    data = _load_json(path)
    if not isinstance(data, list):
        raise ShapeMismatchError(f"{path}: expected a JSON array of probabilities")
    return validate_prob_vec(data)


def ingest_density(path: str | Path) -> DensityMatrix:
    """Read a density matrix from JSON ({"dim": d, "re": [[..]], "im": [[..]]}).

    ``im`` may be omitted for real matrices.
    """
    return _density_from_json(_load_json(path), path)


def _density_from_json(data, path: str | Path) -> DensityMatrix:
    if not isinstance(data, dict) or "dim" not in data or "re" not in data:
        raise ShapeMismatchError(f"{path}: expected an object with 'dim' and 're'")
    try:
        dim = int(data["dim"])
        re = np.asarray(data["re"], dtype=float)
        im_raw = data.get("im")
        im = np.zeros_like(re) if im_raw is None else np.asarray(im_raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ShapeMismatchError(f"{path}: not a numeric matrix: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ShapeMismatchError(
            f"{path}: 're'/'im' must be {dim} x {dim} arrays"
        )
    return validate_density(re + 1j * im)


def _ingest_any(path: str) -> State:
    data = _load_json(path)
    if isinstance(data, list):
        return validate_prob_vec(data)
    if isinstance(data, dict):
        return _density_from_json(data, path)
    raise ShapeMismatchError(f"{path}: expected a JSON array or object")


def _load_json(path: str | Path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ShapeMismatchError(f"{path}: {exc}") from exc


def serialize_prob_vec(p: ProbVec) -> list[float]:
    return [float(x) for x in p.values]


def serialize_density(rho: DensityMatrix) -> dict:
    return {
        "dim": rho.dim,
        "re": rho.matrix.real.tolist(),
        "im": rho.matrix.imag.tolist(),
    }


def _serialize(state: State):
    if isinstance(state, ProbVec):
        return serialize_prob_vec(state)
    return serialize_density(state)


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
    """A random state family: how to draw one, how a drawn one is labelled,
    and whether a given state is one it could have drawn."""

    draw: Callable[[int, np.random.Generator], State]
    provenance: str
    could_draw: Callable[[State, int], bool]


_DIRICHLET = _Sampler(
    lambda dim, rng: ProbVec(dirichlet(dim, rng)),
    "dirichlet(dim={dim},seed={seed},trial={trial})",
    lambda state, dim: isinstance(state, ProbVec) and state.dim == dim,
)
_GINIBRE = _Sampler(
    lambda dim, rng: DensityMatrix(ginibre(dim, rng)),
    "ginibre(dim={dim},seed={seed},trial={trial})",
    _is_density,
)
_DIAGONAL = _Sampler(
    lambda dim, rng: DensityMatrix(diagonal_density(dim, rng)),
    "diagonal(dim={dim},seed={seed},trial={trial})",
    _is_diagonal_density,
)
# A Ginibre state read along a random axis: no input state carries an axis.
_AXIS = _GINIBRE._replace(could_draw=lambda state, dim: False)
# The one maximally mixed state, which needs no randomness.
_MIXED = _Sampler(
    lambda dim, rng: DensityMatrix(np.eye(dim, dtype=complex) / dim),
    "maximally-mixed-{dim}",
    lambda state, dim: False,
)

_ENSEMBLES = {"simplex": _DIRICHLET, "ginibre": _GINIBRE, "diagonal": _DIAGONAL}


def generate_ensemble(kind: str, dim: int, count: int, seed: int) -> Iterator[State]:
    """Return an iterator over ``count`` validated states of the requested kind.

    Kinds: ``simplex`` (flat Dirichlet vectors), ``ginibre`` (full-rank
    random density matrices), ``diagonal`` (diagonal density matrices with
    Dirichlet weights). State ``i`` depends only on ``(seed, i)``. The
    arguments are checked by this call, before any state is drawn.
    """
    if kind not in _ENSEMBLES:
        raise ShapeMismatchError(f"unknown ensemble kind {kind!r}")
    if dim < 2 or count < 0:
        raise ShapeMismatchError("need dim >= 2 and count >= 0")
    _require_seed(seed)
    draw = _ENSEMBLES[kind].draw
    return (
        draw(dim, np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,))))
        for i in range(count)
    )


# ---------------------------------------------------------------------------
# checks, each written once for `check` and `eval`


def _identity_report(
    name: str, lhs: float, rhs: float, tol: float, provenance: str
) -> InequalityReport:
    """An equality |lhs - rhs| <= tol cast in the gap convention.

    The report's gap is -(|lhs - rhs|), so "gap >= -tol" is the equality
    test and the aggregate's min_gap shows the worst deviation.
    """
    diff = abs(lhs - rhs)
    return InequalityReport(
        name=name,
        lhs=lhs,
        rhs=rhs,
        gap=-diff,
        tolerance=tol,
        passed=bool(diff <= tol),
        entropies={"lhs": lhs, "rhs": rhs},
        provenance=provenance,
    )


def _cond_chain(p: ProbVec, provenance: str) -> InequalityReport:
    """The Shannon chain on a 4-vector: the block-weighted entropies of its
    two conditional halves add up to H(V | V~)."""
    split = conditional_pair(p)
    v = p.values
    weighted = float(
        (v[0] + v[1]) * shannon(split.v).value + (v[2] + v[3]) * shannon(split.v_tilde).value
    )
    return _identity_report(
        "cond-chain-identity",
        weighted,
        float(conditional_entropy(p)),
        IDENTITY_TOLERANCE,
        provenance,
    )


def _discord_nonneg(rep: DiscordReport, tol: float) -> InequalityReport:
    """The discord deficit is nonnegative."""
    return make_report(
        name="discord-nonneg",
        lhs=0.0,
        rhs=rep.discord,
        tolerance=tol,
        entropies={
            "s": rep.s,
            "s1": rep.s1,
            "s2": rep.s2,
            "h12": rep.h12,
            "information": rep.information,
        },
        provenance=rep.provenance,
        flags=rep.flags,
    )


def _readout_min(
    states: list[DensityMatrix], seeds: list[int], provenances: list[str], tol: float
) -> list[tuple[InequalityReport, InequalityReport]]:
    """One batched search for each state's minimum readout entropy, and per
    state two checks: the minimum sits on the von Neumann entropy from above,
    and within 1e-6 of it."""
    found = minimize_entropy_batch(
        states, restarts=_MINIMIZER_RESTARTS, budget=_MINIMIZER_BUDGET, seeds=seeds
    )
    out = []
    for rho, (_, h_min), prov in zip(states, found, provenances):
        s = float(von_neumann(rho))
        h = float(h_min)
        err = h - s
        above = make_report(
            name="readout-min-above",
            lhs=s,
            rhs=h,
            tolerance=tol,
            entropies={"minimum_readout": h, "von_neumann": s},
            provenance=prov,
        )
        close = make_report(
            name="readout-min-close",
            lhs=err,
            rhs=1e-6,
            tolerance=0.0,
            entropies={"error": err},
            provenance=prov,
        )
        out.append((above, close))
    return out


# ---------------------------------------------------------------------------
# suites: jobs of sampled states, each state run through the job's checks


class _Draw(NamedTuple):
    """One state a job checks, the generator it was drawn from (left where
    the draw stopped) and the seed sequence that seeds its readout search."""

    state: State
    provenance: str
    rng: np.random.Generator
    seed_seq: np.random.SeedSequence


# A job's checks: its draws and the configuration in, (check id, report,
# state) triples out, in draw order.
_Checks = Callable[
    [Iterable[_Draw], SuiteConfig], Iterable[tuple[str, InequalityReport, State]]
]


class _Job(NamedTuple):
    """``trials`` states from ``sampler`` at ``dim``, seeded under ``tag``."""

    tag: int
    sampler: _Sampler
    dim: int
    checks: _Checks
    trials: int

    def takes(self, state: State | None) -> bool:
        return state is not None and self.sampler.could_draw(state, self.dim)


def _draws(job: _Job, seed: int, input_state: State | None) -> Iterator[_Draw]:
    # The input borrows trial 0's generator; the job's own sequence seeds its
    # readout search.
    if input_state is not None:
        yield _Draw(
            input_state,
            "input",
            np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(job.tag, 0))),
            np.random.SeedSequence(seed, spawn_key=(job.tag,)),
        )
    for k in range(job.trials):
        ss = np.random.SeedSequence(seed, spawn_key=(job.tag, k))
        rng = np.random.default_rng(ss)
        state = job.sampler.draw(job.dim, rng)
        prov = job.sampler.provenance.format(dim=job.dim, seed=seed, trial=k)
        yield _Draw(state, prov, rng, ss)


def _per_state(
    check: Callable[[_Draw, SuiteConfig], list[tuple[str, InequalityReport]]],
) -> _Checks:
    """Lift a check of one drawn state to a job's checks."""

    def run(draws: Iterable[_Draw], config: SuiteConfig):
        for d in draws:
            for name, rep in check(d, config):
                yield name, rep, d.state

    return run


def _middle_bipartition(p8: np.ndarray) -> np.ndarray:
    """Reorder an 8-vector so its (2, 4) reading pairs the middle binary
    digit against the outer two; the complementary grouping of the cube."""
    return p8.reshape(2, 2, 2).transpose(1, 0, 2).reshape(8)


@_per_state
def _seven_checks(d: _Draw, config: SuiteConfig):
    p, prov, tol = d.state, d.provenance, config.tolerance
    padded = np.zeros(8)
    padded[:7] = p.values
    mid = ProbVec(_middle_bipartition(padded))
    return [
        ("strong-subadd-7", strong_subadditivity_gap(p, (2, 2, 2), tol, prov)),
        ("subadd-7-adjacent", subadditivity_gap(p, (2, 4), tol, prov)),
        ("subadd-7-middle", subadditivity_gap(mid, (2, 4), tol, prov)),
    ]


@_per_state
def _four_checks(d: _Draw, config: SuiteConfig):
    p, prov, tol = d.state, d.provenance, config.tolerance
    out = [
        ("subadd-4", subadditivity_gap(p, (2, 2), tol, prov)),
        ("cond-chain-identity", _cond_chain(p, prov)),
    ]
    for q in config.q_values:
        rep = tsallis_monotonicity_check(p, q, tol, prov)
        out.append((rep.name, rep))
    h = float(shannon(p))
    worst = max(
        abs(float(tsallis(p, 1.0 + 1e-4)) - h),
        abs(float(tsallis(p, 1.0 - 1e-4)) - h),
    )
    out.append(
        ("tsallis-shannon-limit", _identity_report("tsallis-shannon-limit", worst, 0.0, 1e-3, prov))
    )
    return out


@_per_state
def _table_checks(d: _Draw, config: SuiteConfig):
    # Subadditivity of every admissible 2-factor rereading of the state at its
    # own dim, then strong subadditivity of every 3-factor one.
    if isinstance(d.state, ProbVec):
        pair, triple = subadditivity_gap, strong_subadditivity_gap
    else:
        pair, triple = quantum_subadditivity, quantum_strong_subadditivity
    dim, tol = d.state.dim, config.tolerance
    reps = [pair(d.state, shape, tol, d.provenance) for shape in admissible_shapes(dim, 2)]
    reps += [triple(d.state, shape, tol, d.provenance) for shape in admissible_shapes(dim, 3)]
    return [(f"dim{dim}-{rep.name}", rep) for rep in reps]


@_per_state
def _mixed_equality(d: _Draw, config: SuiteConfig):
    # The maximally mixed state sits exactly on the subadditivity equality.
    rep = quantum_subadditivity(d.state, (2, 2), config.tolerance, d.provenance)
    name = "q-subadd-mixed-equality"
    return [(name, _identity_report(name, rep.lhs, rep.rhs, 1e-10, d.provenance))]


@_per_state
def _readout_bound(d: _Draw, config: SuiteConfig):
    rho, dim = d.state, d.state.dim
    u = UnitaryMatrix(haar(dim, d.rng))
    h = float(tomographic_entropy(rho, u))
    s = float(von_neumann(rho))
    rep = make_report(
        name=f"dim{dim}-readout-bound",
        lhs=s,
        rhs=h,
        tolerance=config.tolerance,
        entropies={"readout": h, "von_neumann": s},
        provenance=d.provenance,
    )
    return [(rep.name, rep)]


@_per_state
def _axis_checks(d: _Draw, config: SuiteConfig):
    # Subadditivity and the conditional chain hold along every measurement
    # direction of a spin-3/2 readout.
    theta = math.acos(d.rng.uniform(-1.0, 1.0))
    phi = d.rng.uniform(0.0, 2.0 * math.pi)
    prov = f"{d.provenance},axis(theta={theta:.6f},phi={phi:.6f})"
    w = spin_tomogram_axis(d.state, theta, phi).probabilities
    return [
        ("axis-subadd", subadditivity_gap(w, (2, 2), config.tolerance, prov)),
        ("axis-cond-chain", _cond_chain(w, prov)),
    ]


def _readout_min_checks(draws: Iterable[_Draw], config: SuiteConfig):
    draws = list(draws)
    found = _readout_min(
        [d.state for d in draws],
        [int(d.seed_seq.generate_state(1)[0]) for d in draws],
        [d.provenance for d in draws],
        config.tolerance,
    )
    return [
        (f"dim{d.state.dim}-{rep.name}", rep, d.state)
        for d, reps in zip(draws, found)
        for rep in reps
    ]


@_per_state
def _discord_checks(d: _Draw, config: SuiteConfig):
    # Discord nonnegativity and the entropy chain S1 + S2 >= H12 >= S. A
    # qutrit is padded to 4 x 4 first; its checks get ids of their own.
    tol, prov = config.tolerance, d.provenance
    prefix = "qutrit-" if d.state.dim == 3 else ""
    rep = discord(d.state, prov)
    upper = make_report(
        name=f"{prefix}chain-upper",
        lhs=rep.h12,
        rhs=rep.s1 + rep.s2,
        tolerance=tol,
        entropies={"h12": rep.h12, "s1": rep.s1, "s2": rep.s2},
        provenance=prov,
    )
    lower = make_report(
        name=f"{prefix}chain-lower",
        lhs=rep.s,
        rhs=rep.h12,
        tolerance=tol,
        entropies={"h12": rep.h12, "s": rep.s},
        provenance=prov,
    )
    return [
        (f"{prefix}discord-nonneg", _discord_nonneg(rep, tol)),
        (upper.name, upper),
        (lower.name, lower),
    ]


@_per_state
def _diagonal_discord(d: _Draw, config: SuiteConfig):
    # Diagonal states carry no quantum correlations: discord must vanish.
    value = discord(d.state, d.provenance).discord
    name = "discord-diagonal-zero"
    return [(name, _identity_report(name, value, 0.0, 1e-10, d.provenance))]


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
    """Streaming aggregate of one named check across trials."""

    count: int = 0
    failures: int = 0
    min_gap: float = math.inf
    max_gap: float = -math.inf
    total: float = 0.0
    failing: list[dict] = field(default_factory=list)

    def add(self, name: str, rep: InequalityReport, state: State) -> None:
        self.count += 1
        self.min_gap = min(self.min_gap, rep.gap)
        self.max_gap = max(self.max_gap, rep.gap)
        self.total += rep.gap
        if not rep.passed:
            self.failures += 1
            self.failing.append(
                {
                    "check": name,
                    "provenance": rep.provenance,
                    "gap": rep.gap,
                    "report": {**rep.to_dict(), "name": name},
                    "state": _serialize(state),
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
        draws = _draws(job, config.seed, input_state if job.takes(input_state) else None)
        for name, rep, state in job.checks(draws, config):
            agg = aggs.get(name)
            if agg is None:
                agg = aggs[name] = _Agg()
            agg.add(name, rep, state)

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


def _shape(text: str | None, dim: int, factors: int) -> tuple[int, ...]:
    """The ``--shape`` factorization, or else the first admissible one."""
    if text is None:
        return admissible_shapes(dim, factors)[0]
    try:
        shape = tuple(int(x) for x in text.lower().split("x"))
    except ValueError as exc:
        raise ShapeMismatchError(f"bad shape {text!r}") from exc
    if len(shape) != factors:
        raise ShapeMismatchError(f"shape {text!r} must have {factors} factors")
    return shape


def _eval_discord(rho: DensityMatrix, args: argparse.Namespace) -> dict:
    rep = discord(rho, "input")
    return {**rep.to_dict(), "passed": _discord_nonneg(rep, args.tolerance).passed}


def _eval_axis_subadd(rho: DensityMatrix, args: argparse.Namespace) -> InequalityReport:
    w = spin_tomogram_axis(rho, args.theta, args.phi).probabilities
    return subadditivity_gap(w, (2, 2), args.tolerance, "input")


def _eval_readout_min(rho: DensityMatrix, args: argparse.Namespace) -> dict:
    # Passes only when the found minimum is both above S and within 1e-6 of it.
    [(above, close)] = _readout_min([rho], [args.seed], ["input"], args.tolerance)
    return {
        **above.to_dict(),
        "error": close.entropies["error"],
        "passed": above.passed and close.passed,
    }


def _at_shape(check: str, factors: int):
    """Evaluate the library check named ``check`` at the ``--shape``
    factorization, looked up by name at each call."""

    def evaluate(state: State, args: argparse.Namespace) -> InequalityReport:
        shape = _shape(args.shape, state.dim, factors)
        return globals()[check](state, shape, args.tolerance, "input")

    return evaluate


# eval check -> (state type its file holds, evaluation of that state). The
# evaluations look up the library functions they call at each call.
_EVALUATIONS = {
    "subadd": (ProbVec, _at_shape("subadditivity_gap", 2)),
    "strong-subadd": (ProbVec, _at_shape("strong_subadditivity_gap", 3)),
    "cond-chain": (ProbVec, lambda p, args: _cond_chain(p, "input")),
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


def _emit(payload: dict, output: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if output:
        _write(output, text + "\n")
    else:
        print(text)


def _cmd_check(args: argparse.Namespace) -> int:
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
    _emit(report, args.output)
    if args.output:
        total = sum(row["count"] for row in report["checks"])
        failed = sum(row["failures"] for row in report["checks"])
        status = "passed" if report["all_passed"] else "FAILED"
        print(
            f"{status}: {len(report['checks'])} checks, {total} instances, "
            f"{failed} failures -> {args.output}"
        )
    return 0 if report["all_passed"] else 1


def _cmd_gen(args: argparse.Namespace) -> int:
    states = generate_ensemble(args.kind, args.dim, args.count, args.seed)
    out_dir = Path(args.output)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise EntroboxError(f"cannot create directory {out_dir}: {exc.strerror or exc}") from exc
    for i, state in enumerate(states):
        path = out_dir / f"{args.kind}{args.dim}-{i:04d}.json"
        _write(path, json.dumps(_serialize(state), indent=2) + "\n")
    print(f"wrote {args.count} states to {out_dir}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    payload, passed = eval_single(args.check, args)
    _emit(payload, args.output)
    return 0 if passed else 1


def main(argv: list[str] | None = None) -> int:
    """Run one ``entrobox`` command line and return its exit code."""
    args = _shared_parser().parse_args(argv)
    try:
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "gen":
            return _cmd_gen(args)
        return _cmd_eval(args)
    except EntroboxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
