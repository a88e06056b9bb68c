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
included (a negative ``--seed`` or ``--trials``, a ``--tolerance`` that is
not a finite value >= 0).

Reports are deterministic: two runs with the same arguments produce
byte-identical JSON except for the ``wall_time_s`` field. Per-trial states
are derived from the master seed and the trial index alone, so results do
not depend on chunking or thread count. The ``ENTROBOX_THREADS``
environment variable (a positive integer, default 1) sets the worker
threads used for trial evaluation. The pool changes no result, but it gives
no speed-up either: the per-trial checks are Python code that holds the
interpreter lock.

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np
from scipy.special import xlogy

from . import __version__
from .ensembles import diagonal_density, dirichlet, ginibre, haar
from .errors import EntroboxError, ShapeMismatchError
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
    threads: int = 1

    def __post_init__(self) -> None:
        if self.trials < 0:
            raise ShapeMismatchError(f"need trials >= 0, got {self.trials}")
        if self.dims and min(self.dims) < 2:
            raise ShapeMismatchError(f"need every dim >= 2, got {self.dims}")
        _require_seed(self.seed)
        _require_tolerance(self.tolerance)

    def resolved_dims(self, family: str) -> list[int]:
        if self.dims:
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
    data = _load_json(path)
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


def generate_ensemble(
    kind: str, dim: int, count: int, seed: int
) -> Iterator[ProbVec | DensityMatrix]:
    """Yield ``count`` validated states of the requested kind.

    Kinds: ``simplex`` (flat Dirichlet vectors), ``ginibre`` (full-rank
    random density matrices), ``diagonal`` (diagonal density matrices with
    Dirichlet weights). State ``i`` depends only on ``(seed, i)``.
    """
    if kind not in ("simplex", "ginibre", "diagonal"):
        raise ShapeMismatchError(f"unknown ensemble kind {kind!r}")
    if dim < 2 or count < 0:
        raise ShapeMismatchError("need dim >= 2 and count >= 0")
    _require_seed(seed)
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        if kind == "simplex":
            yield ProbVec(dirichlet(dim, rng))
        elif kind == "ginibre":
            yield DensityMatrix(ginibre(dim, rng))
        else:
            yield DensityMatrix(diagonal_density(dim, rng))


# ---------------------------------------------------------------------------
# suite machinery


@dataclass
class _Agg:
    """Streaming aggregate of one named check across trials."""

    count: int = 0
    failures: int = 0
    min_gap: float = math.inf
    max_gap: float = -math.inf
    total: float = 0.0
    failing: list[dict] = field(default_factory=list)

    def add(self, rep: InequalityReport, state_payload) -> None:
        self.count += 1
        self.min_gap = min(self.min_gap, rep.gap)
        self.max_gap = max(self.max_gap, rep.gap)
        self.total += rep.gap
        if not rep.passed:
            self.failures += 1
            self.failing.append(
                {
                    "check": rep.name,
                    "provenance": rep.provenance,
                    "gap": rep.gap,
                    "report": rep.to_dict(),
                    "state": state_payload() if callable(state_payload) else state_payload,
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


class _Suite:
    """Collects reports under stable check ids, in first-seen order."""

    def __init__(self) -> None:
        self.aggs: dict[str, _Agg] = {}

    def add(self, rep: InequalityReport, state_payload) -> None:
        agg = self.aggs.get(rep.name)
        if agg is None:
            agg = self.aggs[rep.name] = _Agg()
        agg.add(rep, state_payload)

    def merge_rows(self) -> list[dict]:
        return [agg.row(name) for name, agg in self.aggs.items()]

    def failing(self) -> list[dict]:
        out: list[dict] = []
        for agg in self.aggs.values():
            out.extend(agg.failing)
        return out


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


def _trial_seed_seq(master: int, tag: int, trial: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(master, spawn_key=(tag, trial))


def _chunked(n: int, size: int) -> list[range]:
    return [range(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _run_trials(
    suite: _Suite,
    trials: int,
    threads: int,
    make_reports: Callable[[int], list[tuple[InequalityReport, object]]],
    extra: list[tuple[InequalityReport, object]] | None = None,
) -> None:
    """Evaluate trials (optionally on a thread pool) and merge in order."""
    if extra:
        for rep, payload in extra:
            suite.add(rep, payload)
    chunks = _chunked(trials, 64)

    def eval_chunk(chunk: range) -> list[tuple[InequalityReport, object]]:
        out: list[tuple[InequalityReport, object]] = []
        for k in chunk:
            out.extend(make_reports(k))
        return out

    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(eval_chunk, chunks))
    else:
        results = [eval_chunk(c) for c in chunks]
    for block in results:
        for rep, payload in block:
            suite.add(rep, payload)


def _middle_bipartition(p8: np.ndarray) -> np.ndarray:
    """Reorder an 8-vector so its (2, 4) reading pairs the middle binary
    digit against the outer two; the complementary grouping of the cube."""
    return p8.reshape(2, 2, 2).transpose(1, 0, 2).reshape(8)


def _rename(rep: InequalityReport, name: str) -> InequalityReport:
    return InequalityReport(
        name=name,
        lhs=rep.lhs,
        rhs=rep.rhs,
        gap=rep.gap,
        tolerance=rep.tolerance,
        passed=rep.passed,
        entropies=rep.entropies,
        provenance=rep.provenance,
        flags=rep.flags,
    )


def _classical_suite(suite: _Suite, config: SuiteConfig, input_state) -> None:
    tol = config.tolerance

    def seven_checks(p: ProbVec, prov: str):
        out = []
        payload = lambda: serialize_prob_vec(p)  # noqa: E731
        out.append(
            (
                _rename(strong_subadditivity_gap(p, (2, 2, 2), tol, prov), "strong-subadd-7"),
                payload,
            )
        )
        out.append(
            (_rename(subadditivity_gap(p, (2, 4), tol, prov), "subadd-7-adjacent"), payload)
        )
        padded = np.zeros(8)
        padded[:7] = p.values
        mid = ProbVec(_middle_bipartition(padded))
        out.append(
            (_rename(subadditivity_gap(mid, (2, 4), tol, prov), "subadd-7-middle"), payload)
        )
        return out

    def four_checks(p: ProbVec, prov: str):
        out = []
        payload = lambda: serialize_prob_vec(p)  # noqa: E731
        out.append((_rename(subadditivity_gap(p, (2, 2), tol, prov), "subadd-4"), payload))

        split = conditional_pair(p)
        blocks = np.array([p.values[0] + p.values[1], p.values[2] + p.values[3]])
        weighted = float(
            blocks[0] * shannon(split.v).value + blocks[1] * shannon(split.v_tilde).value
        )
        out.append(
            (
                _identity_report(
                    "cond-chain-identity",
                    weighted,
                    float(conditional_entropy(p)),
                    IDENTITY_TOLERANCE,
                    prov,
                ),
                payload,
            )
        )
        for q in config.q_values:
            out.append(
                (
                    _rename(
                        tsallis_monotonicity_check(p, q, tol, prov),
                        f"tsallis-chain-q{q:g}",
                    ),
                    payload,
                )
            )
        h = float(shannon(p))
        worst = max(
            abs(float(tsallis(p, 1.0 + 1e-4)) - h),
            abs(float(tsallis(p, 1.0 - 1e-4)) - h),
        )
        out.append(
            (_identity_report("tsallis-shannon-limit", worst, 0.0, 1e-3, prov), payload)
        )
        return out

    def table_checks(p: ProbVec, dim: int, prov: str):
        out = []
        payload = lambda: serialize_prob_vec(p)  # noqa: E731
        for shape in admissible_shapes(dim, 2):
            rep = subadditivity_gap(p, shape, tol, prov)
            out.append((_rename(rep, f"dim{dim}-{rep.name}"), payload))
        for shape in admissible_shapes(dim, 3):
            rep = strong_subadditivity_gap(p, shape, tol, prov)
            out.append((_rename(rep, f"dim{dim}-{rep.name}"), payload))
        return out

    input_vec = input_state if isinstance(input_state, ProbVec) else None

    def fixed_dim_job(tag: int, dim: int, fn):
        extra = fn(input_vec, "input") if input_vec is not None and input_vec.dim == dim else None
        _run_trials(
            suite,
            config.trials,
            config.threads,
            lambda k: fn(
                ProbVec(dirichlet(dim, np.random.default_rng(_trial_seed_seq(config.seed, tag, k)))),
                f"dirichlet(dim={dim},seed={config.seed},trial={k})",
            ),
            extra=extra,
        )

    fixed_dim_job(1, 7, seven_checks)
    fixed_dim_job(2, 4, four_checks)
    sweep_dims = config.resolved_dims("classical")
    for j, dim in enumerate(sweep_dims):
        extra = None
        if input_vec is not None and input_vec.dim == dim:
            extra = table_checks(input_vec, dim, "input")
        _run_trials(
            suite,
            config.trials,
            config.threads,
            lambda k, dim=dim, j=j: table_checks(
                ProbVec(dirichlet(dim, np.random.default_rng(_trial_seed_seq(config.seed, 10 + j, k)))),
                dim,
                f"dirichlet(dim={dim},seed={config.seed},trial={k})",
            ),
            extra=extra,
        )
    if input_vec is not None and input_vec.dim not in sweep_dims:
        for rep, payload in table_checks(input_vec, input_vec.dim, "input"):
            suite.add(rep, payload)


def _quantum_suite(suite: _Suite, config: SuiteConfig, input_state) -> None:
    tol = config.tolerance

    def dim_checks(rho: DensityMatrix, dim: int, prov: str):
        out = []
        payload = lambda: serialize_density(rho)  # noqa: E731
        for shape in admissible_shapes(dim, 2):
            rep = quantum_subadditivity(rho, shape, tol, prov)
            out.append((_rename(rep, f"dim{dim}-{rep.name}"), payload))
        for shape in admissible_shapes(dim, 3):
            rep = quantum_strong_subadditivity(rho, shape, tol, prov)
            out.append((_rename(rep, f"dim{dim}-{rep.name}"), payload))
        return out

    input_rho = input_state if isinstance(input_state, DensityMatrix) else None

    # Maximally mixed 4 x 4 must sit exactly on the subadditivity equality.
    mixed = DensityMatrix(np.eye(4, dtype=complex) / 4.0)
    rep = quantum_subadditivity(mixed, (2, 2), tol, "maximally-mixed-4")
    suite.add(
        _identity_report(
            "q-subadd-mixed-equality", rep.lhs, rep.rhs, 1e-10, "maximally-mixed-4"
        ),
        lambda: serialize_density(mixed),
    )

    sweep_dims = config.resolved_dims("quantum")
    for j, dim in enumerate(sweep_dims):
        extra = None
        if input_rho is not None and input_rho.dim == dim:
            extra = dim_checks(input_rho, dim, "input")
        _run_trials(
            suite,
            config.trials,
            config.threads,
            lambda k, dim=dim, j=j: dim_checks(
                DensityMatrix(ginibre(dim, np.random.default_rng(_trial_seed_seq(config.seed, 100 + j, k)))),
                dim,
                f"ginibre(dim={dim},seed={config.seed},trial={k})",
            ),
            extra=extra,
        )
    if input_rho is not None and input_rho.dim not in sweep_dims:
        for rep, payload in dim_checks(input_rho, input_rho.dim, "input"):
            suite.add(rep, payload)


def _tomographic_suite(suite: _Suite, config: SuiteConfig, input_state) -> None:
    tol = config.tolerance
    input_rho = input_state if isinstance(input_state, DensityMatrix) else None

    def bound_checks(rho: DensityMatrix, dim: int, prov: str, rng=None):
        payload = lambda: serialize_density(rho)  # noqa: E731
        if rng is None:
            rng = np.random.default_rng(0)
        u = UnitaryMatrix(haar(dim, rng))
        h = float(tomographic_entropy(rho, u))
        s = float(von_neumann(rho))
        rep = make_report(
            name=f"dim{dim}-readout-bound",
            lhs=s,
            rhs=h,
            tolerance=tol,
            entropies={"readout": h, "von_neumann": s},
            provenance=prov,
        )
        return [(rep, payload)]

    for j, dim in enumerate(config.resolved_dims("tomographic")):
        extra = None
        if input_rho is not None and input_rho.dim == dim:
            extra = bound_checks(
                input_rho, dim, "input", np.random.default_rng(_trial_seed_seq(config.seed, 200 + j, 0))
            )

        def one(k: int, dim=dim, j=j):
            ss = _trial_seed_seq(config.seed, 200 + j, k)
            rng = np.random.default_rng(ss)
            rho = DensityMatrix(ginibre(dim, rng))
            return bound_checks(
                rho, dim, f"ginibre(dim={dim},seed={config.seed},trial={k})", rng
            )

        _run_trials(suite, config.trials, config.threads, one, extra=extra)

    # Axis readouts for spin 3/2: subadditivity and the conditional chain
    # identity must hold along every measurement direction.
    def axis_checks(k: int):
        ss = _trial_seed_seq(config.seed, 230, k)
        rng = np.random.default_rng(ss)
        rho = DensityMatrix(ginibre(4, rng))
        theta = math.acos(rng.uniform(-1.0, 1.0))
        phi = rng.uniform(0.0, 2.0 * math.pi)
        prov = f"ginibre(dim=4,seed={config.seed},trial={k}),axis(theta={theta:.6f},phi={phi:.6f})"
        payload = lambda: serialize_density(rho)  # noqa: E731
        w = spin_tomogram_axis(rho, theta, phi).probabilities
        out = [(_rename(subadditivity_gap(w, (2, 2), tol, prov), "axis-subadd"), payload)]
        split = conditional_pair(w)
        blocks = np.array([w.values[0] + w.values[1], w.values[2] + w.values[3]])
        weighted = float(
            blocks[0] * shannon(split.v).value + blocks[1] * shannon(split.v_tilde).value
        )
        out.append(
            (
                _identity_report(
                    "axis-cond-chain",
                    weighted,
                    float(conditional_entropy(w)),
                    IDENTITY_TOLERANCE,
                    prov,
                ),
                payload,
            )
        )
        return out

    _run_trials(suite, config.trials, config.threads, axis_checks)

    # Entropy minimization: the found minimum must sit on the von Neumann
    # entropy from above. Capped state count; batched in one search.
    for j, dim in enumerate(config.resolved_dims("tomographic")):
        n_states = min(config.trials, _MINIMIZER_CAP)
        if n_states == 0:
            continue
        states = []
        seeds = []
        provs = []
        for k in range(n_states):
            ss = _trial_seed_seq(config.seed, 240 + j, k)
            states.append(DensityMatrix(ginibre(dim, np.random.default_rng(ss))))
            seeds.append(int(ss.generate_state(1)[0]))
            provs.append(f"ginibre(dim={dim},seed={config.seed},trial={k})")
        if input_rho is not None and input_rho.dim == dim:
            states.insert(0, input_rho)
            seeds.insert(0, int(np.random.SeedSequence(config.seed, spawn_key=(240 + j,)).generate_state(1)[0]))
            provs.insert(0, "input")
        results = minimize_entropy_batch(
            states,
            restarts=_MINIMIZER_RESTARTS,
            budget=_MINIMIZER_BUDGET,
            seeds=seeds,
        )
        for rho, (u, h_min), prov in zip(states, results, provs):
            payload = lambda rho=rho: serialize_density(rho)  # noqa: E731
            s = float(von_neumann(rho))
            err = float(h_min) - s
            suite.add(
                make_report(
                    name=f"dim{dim}-readout-min-above",
                    lhs=s,
                    rhs=float(h_min),
                    tolerance=tol,
                    entropies={"minimum_readout": float(h_min), "von_neumann": s},
                    provenance=prov,
                ),
                payload,
            )
            suite.add(
                make_report(
                    name=f"dim{dim}-readout-min-close",
                    lhs=err,
                    rhs=1e-6,
                    tolerance=0.0,
                    entropies={"error": err},
                    provenance=prov,
                ),
                payload,
            )


def _discord_suite(suite: _Suite, config: SuiteConfig, input_state) -> None:
    tol = config.tolerance
    input_rho = input_state if isinstance(input_state, DensityMatrix) else None

    def discord_checks(rho: DensityMatrix, prefix: str, prov: str):
        payload = lambda: serialize_density(rho)  # noqa: E731
        rep = discord(rho, prov)
        out = [
            (
                InequalityReport(
                    name=f"{prefix}discord-nonneg",
                    lhs=0.0,
                    rhs=rep.discord,
                    gap=rep.discord,
                    tolerance=tol,
                    passed=bool(rep.discord >= -tol),
                    entropies={
                        "s": rep.s,
                        "s1": rep.s1,
                        "s2": rep.s2,
                        "h12": rep.h12,
                        "information": rep.information,
                    },
                    provenance=prov,
                    flags=rep.flags,
                ),
                payload,
            ),
            (
                make_report(
                    name=f"{prefix}chain-upper",
                    lhs=rep.h12,
                    rhs=rep.s1 + rep.s2,
                    tolerance=tol,
                    entropies={"h12": rep.h12, "s1": rep.s1, "s2": rep.s2},
                    provenance=prov,
                ),
                payload,
            ),
            (
                make_report(
                    name=f"{prefix}chain-lower",
                    lhs=rep.s,
                    rhs=rep.h12,
                    tolerance=tol,
                    entropies={"h12": rep.h12, "s": rep.s},
                    provenance=prov,
                ),
                payload,
            ),
        ]
        return out

    extra = None
    if input_rho is not None and input_rho.dim == 4:
        extra = discord_checks(input_rho, "", "input")
    _run_trials(
        suite,
        config.trials,
        config.threads,
        lambda k: discord_checks(
            DensityMatrix(ginibre(4, np.random.default_rng(_trial_seed_seq(config.seed, 300, k)))),
            "",
            f"ginibre(dim=4,seed={config.seed},trial={k})",
        ),
        extra=extra,
    )

    # Diagonal states carry no quantum correlations: discord must vanish.
    def diagonal_checks(k: int):
        rho = DensityMatrix(
            diagonal_density(4, np.random.default_rng(_trial_seed_seq(config.seed, 301, k)))
        )
        prov = f"diagonal(dim=4,seed={config.seed},trial={k})"
        rep = discord(rho, prov)
        payload = lambda: serialize_density(rho)  # noqa: E731
        return [
            (_identity_report("discord-diagonal-zero", rep.discord, 0.0, 1e-10, prov), payload)
        ]

    diag_extra = None
    if input_rho is not None and input_rho.dim == 4:
        off = input_rho.matrix - np.diag(input_rho.matrix.diagonal())
        if float(np.abs(off).max()) < 1e-14:
            rep = discord(input_rho, "input")
            diag_extra = [
                (
                    _identity_report(
                        "discord-diagonal-zero", rep.discord, 0.0, 1e-10, "input"
                    ),
                    lambda: serialize_density(input_rho),
                )
            ]
    _run_trials(suite, config.trials, config.threads, diagonal_checks, extra=diag_extra)

    # Qutrit path: pad to 4 x 4, reduce, same chain and nonnegativity.
    extra = None
    if input_rho is not None and input_rho.dim == 3:
        extra = discord_checks(input_rho, "qutrit-", "input")
    _run_trials(
        suite,
        config.trials,
        config.threads,
        lambda k: discord_checks(
            DensityMatrix(ginibre(3, np.random.default_rng(_trial_seed_seq(config.seed, 302, k)))),
            "qutrit-",
            f"ginibre(dim=3,seed={config.seed},trial={k})",
        ),
        extra=extra,
    )


def run_suite(config: SuiteConfig) -> dict:
    """Run the configured randomized check suite and return the report."""
    t0 = time.perf_counter()
    suite = _Suite()

    input_state = None
    if config.input_path:
        input_state = _ingest_any(config.input_path)

    families = (
        ("classical", "quantum", "tomographic", "discord")
        if config.suite == "all"
        else (config.suite,)
    )
    runners = {
        "classical": _classical_suite,
        "quantum": _quantum_suite,
        "tomographic": _tomographic_suite,
        "discord": _discord_suite,
    }
    for family in families:
        runners[family](suite, config, input_state)

    rows = suite.merge_rows()
    failing = suite.failing()
    report = {
        "version": __version__,
        "config": {
            "suite": config.suite,
            "dims": config.dims,
            "trials": config.trials,
            "seed": config.seed,
            "q_values": list(config.q_values),
            "tolerance": config.tolerance,
            "input": config.input_path,
            "threads": config.threads,
        },
        "checks": rows,
        "failing_instances": failing,
        "all_passed": all(row["failures"] == 0 for row in rows),
        "wall_time_s": time.perf_counter() - t0,
    }
    return report


def _ingest_any(path: str):
    data = _load_json(path)
    if isinstance(data, list):
        return validate_prob_vec(data)
    if isinstance(data, dict):
        return ingest_density(path)
    raise ShapeMismatchError(f"{path}: expected a JSON array or object")


# ---------------------------------------------------------------------------
# single-state evaluation


def _parse_shape(text: str | None, factors: int) -> tuple[int, ...] | None:
    if text is None:
        return None
    try:
        shape = tuple(int(x) for x in text.lower().split("x"))
    except ValueError as exc:
        raise ShapeMismatchError(f"bad shape {text!r}") from exc
    if len(shape) != factors:
        raise ShapeMismatchError(f"shape {text!r} must have {factors} factors")
    return shape


def eval_single(check: str, args: argparse.Namespace) -> tuple[dict, bool]:
    """Evaluate one named check on one state file."""
    _require_seed(args.seed)
    _require_tolerance(args.tolerance)
    if check in ("subadd", "strong-subadd", "cond-chain", "tsallis-chain"):
        p = ingest_prob_vec(args.input)
        if check == "subadd":
            shape = _parse_shape(args.shape, 2) or admissible_shapes(p.dim, 2)[0]
            rep = subadditivity_gap(p, shape, args.tolerance, "input")
            return rep.to_dict(), rep.passed
        if check == "strong-subadd":
            shape = _parse_shape(args.shape, 3) or admissible_shapes(p.dim, 3)[0]
            rep = strong_subadditivity_gap(p, shape, args.tolerance, "input")
            return rep.to_dict(), rep.passed
        if check == "cond-chain":
            split = conditional_pair(p)
            blocks = np.array([p.values[0] + p.values[1], p.values[2] + p.values[3]])
            weighted = float(
                blocks[0] * shannon(split.v).value
                + blocks[1] * shannon(split.v_tilde).value
            )
            rep = _identity_report(
                "cond-chain-identity",
                weighted,
                float(conditional_entropy(p)),
                IDENTITY_TOLERANCE,
                "input",
            )
            return rep.to_dict(), rep.passed
        rep = tsallis_monotonicity_check(p, args.q, args.tolerance, "input")
        return rep.to_dict(), rep.passed

    rho = ingest_density(args.input)
    if check == "q-subadd":
        shape = _parse_shape(args.shape, 2) or admissible_shapes(rho.dim, 2)[0]
        rep = quantum_subadditivity(rho, shape, args.tolerance, "input")
        return rep.to_dict(), rep.passed
    if check == "q-strong-subadd":
        shape = _parse_shape(args.shape, 3) or admissible_shapes(rho.dim, 3)[0]
        rep = quantum_strong_subadditivity(rho, shape, args.tolerance, "input")
        return rep.to_dict(), rep.passed
    if check == "discord":
        rep = discord(rho, "input")
        passed = rep.discord >= -args.tolerance
        payload = rep.to_dict()
        payload["passed"] = bool(passed)
        return payload, bool(passed)
    if check == "readout-min":
        [(u, h_min)] = minimize_entropy_batch(
            [rho],
            restarts=_MINIMIZER_RESTARTS,
            budget=_MINIMIZER_BUDGET,
            seeds=[args.seed],
        )
        s = float(von_neumann(rho))
        rep = make_report(
            name="readout-min-above",
            lhs=s,
            rhs=float(h_min),
            tolerance=args.tolerance,
            entropies={"minimum_readout": float(h_min), "von_neumann": s},
            provenance="input",
        )
        return rep.to_dict(), rep.passed
    if check == "axis-subadd":
        w = spin_tomogram_axis(rho, args.theta, args.phi).probabilities
        rep = subadditivity_gap(w, (2, 2), args.tolerance, "input")
        return rep.to_dict(), rep.passed
    raise ShapeMismatchError(f"unknown check {check!r}")


EVAL_CHECKS = (
    "subadd",
    "strong-subadd",
    "cond-chain",
    "tsallis-chain",
    "q-subadd",
    "q-strong-subadd",
    "discord",
    "readout-min",
    "axis-subadd",
)


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
    gen.add_argument("--kind", choices=("simplex", "ginibre", "diagonal"), required=True)
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


def _threads_from_env() -> int:
    raw = os.environ.get("ENTROBOX_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise EntroboxError(f"ENTROBOX_THREADS must be a positive integer, got {raw!r}")
    return threads


def _emit(payload: dict, output: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if output:
        Path(output).write_text(text + "\n")
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
        threads=_threads_from_env(),
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
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for i, state in enumerate(
        generate_ensemble(args.kind, args.dim, args.count, args.seed)
    ):
        payload = (
            serialize_prob_vec(state)
            if isinstance(state, ProbVec)
            else serialize_density(state)
        )
        path = out_dir / f"{args.kind}{args.dim}-{i:04d}.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        written.append(path.name)
    print(f"wrote {len(written)} states to {out_dir}")
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
