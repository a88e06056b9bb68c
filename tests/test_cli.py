"""Tests for JSON state files, ensemble generation, the randomized check
suites, single-state evaluation, and command-line exit codes."""

from __future__ import annotations

import functools
import io
import json
import math
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import entrobox.report
from entrobox import (
    DensityMatrix,
    InequalityReport,
    ProbVec,
    ShapeMismatchError,
    cli,
    conditional_entropy,
    conditional_pair,
    discord,
    minimize_tomographic_entropy,
    quantum_strong_subadditivity,
    quantum_subadditivity,
    shannon,
    spin_tomogram_axis,
    strong_subadditivity_gap,
    subadditivity_gap,
    tomographic_entropy,
    tomography,
    tsallis_monotonicity_check,
    validate_density,
)
from entrobox.cli import (
    SUITES,
    SuiteConfig,
    generate_ensemble,
    ingest_density,
    ingest_prob_vec,
    main,
    run_suite,
    serialize_density,
    serialize_prob_vec,
)
from entrobox.ensembles import dirichlet, ginibre
from entrobox.qstate import von_neumann
from entrobox.report import make_report
from entrobox.simplex import EntropyValue
from entrobox.tomography import UnitaryMatrix, _Minima

from _explicit import EXTRAS, STATES, draw_one, job_draws


def write_json(path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def strip_wall_time(report: dict) -> str:
    trimmed = dict(report)
    trimmed.pop("wall_time_s")
    return json.dumps(trimmed, sort_keys=True)


@pytest.fixture(scope="module")
def state_files(tmp_path_factory) -> dict[str, str]:
    """State files by key: ``v<n>`` probability vectors, ``rho<n>`` Ginibre
    density matrices and ``diag4`` a diagonal 4 x 4 density matrix."""
    folder = tmp_path_factory.mktemp("states")
    rng = np.random.default_rng(30)
    states = {f"v{n}": serialize_prob_vec(ProbVec(dirichlet(n, rng))) for n in (4, 7, 8, 14)}
    for n in (3, 4, 5, 8):
        states[f"rho{n}"] = serialize_density(validate_density(ginibre(n, rng)))
    diag = np.diag(dirichlet(4, rng)).astype(complex)
    states["diag4"] = serialize_density(validate_density(diag))
    return {key: write_json(folder / f"{key}.json", payload) for key, payload in states.items()}


@functools.cache
def _no_input_counts(suite: str) -> dict[str, int]:
    report = run_suite(SuiteConfig(suite=suite, trials=1, seed=31))
    return {row["id"]: row["count"] for row in report["checks"]}


def _matches(check_id: str, pattern: str) -> bool:
    if pattern.endswith("*"):
        return check_id.startswith(pattern[:-1])
    return check_id == pattern


# Per suite and input state: the check ids whose count the input raises by
# one, where a trailing "*" matches every id with that prefix. An id missing
# from the run without input is a one-off check at a dim the sweep skips.
INPUT_JOINS = [
    ("classical", "v7", {"strong-subadd-7", "subadd-7-adjacent", "subadd-7-middle", "dim7-*"}),
    (
        "classical",
        "v4",
        {
            "subadd-4",
            "cond-chain-identity",
            "tsallis-chain-q0.5",
            "tsallis-chain-q2",
            "tsallis-chain-q3",
            "tsallis-shannon-limit",
            "dim4-*",
        },
    ),
    ("classical", "v14", {"dim14-*"}),
    ("quantum", "rho4", {"dim4-*"}),
    ("quantum", "diag4", {"dim4-*"}),
    ("quantum", "rho8", {"dim8-*"}),
    ("tomographic", "rho3", {"dim3-readout-bound", "dim3-readout-min-above", "dim3-readout-min-close"}),
    ("tomographic", "rho4", {"dim4-readout-bound", "dim4-readout-min-above", "dim4-readout-min-close"}),
    ("discord", "rho4", {"discord-nonneg", "chain-upper", "chain-lower"}),
    ("discord", "diag4", {"discord-nonneg", "chain-upper", "chain-lower", "discord-diagonal-zero"}),
    ("discord", "rho3", {"qutrit-discord-nonneg", "qutrit-chain-upper", "qutrit-chain-lower"}),
    (
        "all",
        "diag4",
        {
            "dim4-q-*",
            "dim4-readout-*",
            "discord-nonneg",
            "chain-upper",
            "chain-lower",
            "discord-diagonal-zero",
        },
    ),
]

# eval argv, state key, suite and row id of the same check, and the eval
# output field that equals the row's min_gap.
SHARED_CHECKS = [
    (["--check", "subadd", "--shape", "2x4"], "v8", "classical", "dim8-subadd-2x4", "gap"),
    (
        ["--check", "strong-subadd", "--shape", "2x2x2"],
        "v8",
        "classical",
        "dim8-strong-subadd-2x2x2",
        "gap",
    ),
    (["--check", "cond-chain"], "v4", "classical", "cond-chain-identity", "gap"),
    (["--check", "tsallis-chain", "--q", "2"], "v4", "classical", "tsallis-chain-q2", "gap"),
    (["--check", "q-subadd", "--shape", "2x2"], "rho4", "quantum", "dim4-q-subadd-2x2", "gap"),
    (
        ["--check", "q-strong-subadd", "--shape", "2x2x2"],
        "rho8",
        "quantum",
        "dim8-q-strong-subadd-2x2x2",
        "gap",
    ),
    (["--check", "discord"], "rho4", "discord", "discord-nonneg", "discord"),
]


class TestStateFiles:
    def test_prob_vec_roundtrip(self, tmp_path):
        p = ProbVec(dirichlet(6, np.random.default_rng(0)))
        path = write_json(tmp_path / "p.json", serialize_prob_vec(p))
        back = ingest_prob_vec(path)
        assert_allclose(back.values, p.values, atol=1e-15)

    def test_density_roundtrip(self, tmp_path):
        rho = validate_density(ginibre(4, np.random.default_rng(1)))
        path = write_json(tmp_path / "rho.json", serialize_density(rho))
        back = ingest_density(path)
        assert_allclose(back.matrix, rho.matrix, atol=1e-15)

    def test_density_without_im_is_real(self, tmp_path):
        path = write_json(
            tmp_path / "rho.json", {"dim": 2, "re": [[0.5, 0.1], [0.1, 0.5]]}
        )
        rho = ingest_density(path)
        assert_allclose(rho.matrix.imag, 0.0, atol=0)

    def test_prob_vec_rejects_object(self, tmp_path):
        path = write_json(tmp_path / "p.json", {"dim": 2})
        with pytest.raises(ShapeMismatchError):
            ingest_prob_vec(path)

    def test_density_rejects_wrong_shape(self, tmp_path):
        path = write_json(tmp_path / "rho.json", {"dim": 3, "re": [[1.0]]})
        with pytest.raises(ShapeMismatchError):
            ingest_density(path)

    @pytest.mark.parametrize("dim", [2.7, 2.0, True, "2", None])
    def test_density_rejects_a_dim_that_is_not_an_integer(self, dim, tmp_path):
        path = write_json(tmp_path / "rho.json", {"dim": dim, "re": [[0.5, 0], [0, 0.5]]})
        with pytest.raises(ShapeMismatchError, match="'dim' must be an integer"):
            ingest_density(path)

    def test_prob_vec_rejects_nested_array(self, tmp_path):
        path = write_json(tmp_path / "p.json", [[0.5, 0.0], [0.0, 0.5]])
        with pytest.raises(ShapeMismatchError):
            ingest_prob_vec(path)

    def test_density_rejects_non_numeric(self, tmp_path):
        path = write_json(
            tmp_path / "rho.json", {"dim": 2, "re": [[0.5, "x"], [0.1, 0.5]]}
        )
        with pytest.raises(ShapeMismatchError):
            ingest_density(path)

    def test_unreadable_file_raises_package_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        with pytest.raises(ShapeMismatchError):
            ingest_prob_vec(str(bad))
        with pytest.raises(ShapeMismatchError):
            ingest_prob_vec(str(tmp_path / "missing.json"))


class TestGenerateEnsemble:
    def test_kinds_and_types(self):
        vecs = list(generate_ensemble("simplex", 5, 3, 0))
        assert all(isinstance(v, ProbVec) for v in vecs)
        rhos = list(generate_ensemble("ginibre", 4, 3, 0))
        assert all(isinstance(r, DensityMatrix) for r in rhos)
        diags = list(generate_ensemble("diagonal", 4, 2, 0))
        for rho in diags:
            off = rho.matrix - np.diag(rho.matrix.diagonal())
            assert float(np.abs(off).max()) == 0.0

    def test_state_depends_only_on_seed_and_index(self):
        # the states of a smaller count are the first states of a larger one
        for kind in ("simplex", "ginibre", "diagonal"):
            for short, long in [(3, 5), (cli._CHUNK, cli._CHUNK + 2)]:
                few = [cli._array(s) for s in generate_ensemble(kind, 3, short, seed=9)]
                many = [cli._array(s) for s in generate_ensemble(kind, 3, long, seed=9)]
                assert len(few) == short and len(many) == long
                for a, b in zip(few, many):
                    assert a.tobytes() == b.tobytes(), (kind, short, long)

    @pytest.mark.parametrize("kind", ["simplex", "ginibre", "diagonal"])
    def test_state_i_is_the_ith_draw_of_one_generator(self, kind):
        rng = np.random.default_rng(np.random.SeedSequence(9))
        oracle = "dirichlet" if kind == "simplex" else kind
        want = [draw_one(oracle, 3, rng) for _ in range(cli._CHUNK + 2)]
        got = [cli._array(s) for s in generate_ensemble(kind, 3, cli._CHUNK + 2, seed=9)]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ShapeMismatchError):
            list(generate_ensemble("cauchy", 4, 1, 0))

    def test_bad_sizes_rejected(self):
        with pytest.raises(ShapeMismatchError):
            list(generate_ensemble("simplex", 1, 1, 0))


class TestRunSuite:
    def test_report_structure_and_pass(self):
        report = run_suite(SuiteConfig(suite="classical", trials=5, seed=1))
        assert set(report) == {
            "version",
            "config",
            "checks",
            "failing_instances",
            "all_passed",
            "wall_time_s",
        }
        assert report["all_passed"]
        assert report["failing_instances"] == []
        ids = [row["id"] for row in report["checks"]]
        assert "strong-subadd-7" in ids
        assert "subadd-7-adjacent" in ids
        assert "subadd-7-middle" in ids
        assert "cond-chain-identity" in ids
        assert "tsallis-shannon-limit" in ids
        assert "dim12-subadd-3x4" in ids
        for row in report["checks"]:
            assert row["failures"] == 0
            assert row["count"] >= 5
            assert row["min_gap"] <= row["mean_gap"] <= row["max_gap"]

    def test_quantum_suite_ids(self):
        report = run_suite(SuiteConfig(suite="quantum", trials=3, seed=2))
        ids = [row["id"] for row in report["checks"]]
        assert "q-subadd-mixed-equality" in ids
        assert "dim4-q-subadd-2x2" in ids
        assert "dim7-q-strong-subadd-2x2x2" in ids
        assert report["all_passed"]

    def test_tomographic_suite_ids(self):
        report = run_suite(SuiteConfig(suite="tomographic", trials=2, seed=3))
        ids = [row["id"] for row in report["checks"]]
        for dim in (2, 3, 4):
            assert f"dim{dim}-readout-bound" in ids
            assert f"dim{dim}-readout-min-above" in ids
            assert f"dim{dim}-readout-min-close" in ids
        assert "axis-subadd" in ids
        assert "axis-cond-chain" in ids
        assert report["all_passed"]

    def test_readout_min_rows_count_the_searches(self, monkeypatch):
        # nfev sums every state's search over the job; unconverged counts
        # the states whose winning restart ran out of budget
        searches = []
        search = tomography.minimize_entropy_batch

        def recorded(states, **kwargs):
            searches.append(search(states, **kwargs))
            searches[-1].converged[0] = False  # as if the first ran out
            return searches[-1]

        monkeypatch.setattr(tomography, "minimize_entropy_batch", recorded)
        report = run_suite(SuiteConfig(suite="tomographic", trials=3, seed=3, dims=[2, 3]))
        rows = {row["id"]: row for row in report["checks"]}
        assert len(searches) == 2
        for dim, found in zip((2, 3), searches):
            for check in ("above", "close"):
                row = rows.pop(f"dim{dim}-readout-min-{check}")
                assert row["nfev"] == sum(found.nfev) > 0
                assert row["unconverged"] == found.converged.count(False) == 1
        for row in rows.values():
            assert set(row) == {"id", "count", "failures", "min_gap", "max_gap", "mean_gap"}

    def test_discord_suite_ids(self):
        report = run_suite(SuiteConfig(suite="discord", trials=3, seed=4))
        ids = [row["id"] for row in report["checks"]]
        for name in (
            "discord-nonneg",
            "chain-upper",
            "chain-lower",
            "discord-diagonal-zero",
            "qutrit-discord-nonneg",
        ):
            assert name in ids
        assert report["all_passed"]

    def test_deterministic_given_seed(self):
        config = dict(suite="discord", trials=4, seed=11)
        a = run_suite(SuiteConfig(**config))
        b = run_suite(SuiteConfig(**config))
        assert strip_wall_time(a) == strip_wall_time(b)

    def test_input_vector_joins_matching_dim(self, tmp_path):
        p = ProbVec(dirichlet(7, np.random.default_rng(5)))
        path = write_json(tmp_path / "p7.json", serialize_prob_vec(p))
        trials = 3
        report = run_suite(
            SuiteConfig(suite="classical", trials=trials, seed=6, input_path=path)
        )
        counts = {row["id"]: row["count"] for row in report["checks"]}
        assert counts["strong-subadd-7"] == trials + 1
        assert counts["subadd-7-adjacent"] == trials + 1
        assert counts["dim7-subadd-2x4"] == trials + 1
        assert counts["subadd-4"] == trials  # the 4-dim job is unaffected

    def test_input_density_joins_discord_suite(self, tmp_path):
        rng = np.random.default_rng(7)
        rho = validate_density(np.diag(dirichlet(4, rng)).astype(complex))
        path = write_json(tmp_path / "d4.json", serialize_density(rho))
        trials = 3
        report = run_suite(
            SuiteConfig(suite="discord", trials=trials, seed=8, input_path=path)
        )
        counts = {row["id"]: row["count"] for row in report["checks"]}
        assert counts["discord-nonneg"] == trials + 1
        assert counts["discord-diagonal-zero"] == trials + 1
        assert counts["qutrit-discord-nonneg"] == trials
        assert report["all_passed"]

    def test_input_off_dimension_gets_one_off_checks(self, tmp_path):
        p = ProbVec(dirichlet(14, np.random.default_rng(9)))
        path = write_json(tmp_path / "p14.json", serialize_prob_vec(p))
        report = run_suite(
            SuiteConfig(
                suite="classical", dims=[4], trials=2, seed=10, input_path=path
            )
        )
        counts = {row["id"]: row["count"] for row in report["checks"]}
        assert counts["dim14-subadd-2x7"] == 1


    @pytest.mark.parametrize(
        "suite, key, expected", INPUT_JOINS, ids=[f"{s}-{k}" for s, k, _ in INPUT_JOINS]
    )
    def test_input_joins_the_jobs_that_could_draw_it(self, suite, key, expected, state_files):
        base = _no_input_counts(suite)
        report = run_suite(
            SuiteConfig(suite=suite, trials=1, seed=31, input_path=state_files[key])
        )
        counts = {row["id"]: row["count"] for row in report["checks"]}
        assert set(base) <= set(counts)
        for check_id, count in counts.items():
            gained = any(_matches(check_id, pattern) for pattern in expected)
            assert count == base.get(check_id, 0) + gained, check_id
        for pattern in expected:
            assert any(_matches(check_id, pattern) for check_id in counts), pattern

    def test_input_joins_readout_min_without_trials(self, state_files):
        report = run_suite(
            SuiteConfig(suite="tomographic", trials=0, input_path=state_files["rho3"])
        )
        counts = {row["id"]: row["count"] for row in report["checks"]}
        assert counts == {
            "dim3-readout-bound": 1,
            "dim3-readout-min-above": 1,
            "dim3-readout-min-close": 1,
        }

    @pytest.mark.parametrize(
        "argv, key, suite, row_id, field",
        SHARED_CHECKS,
        ids=[argv[1] for argv, *_ in SHARED_CHECKS],
    )
    def test_eval_and_suite_agree_on_one_state(
        self, argv, key, suite, row_id, field, state_files, capsys
    ):
        assert main(["eval", *argv, "--input", state_files[key]]) == 0
        payload = json.loads(capsys.readouterr().out)
        report = run_suite(SuiteConfig(suite=suite, trials=0, input_path=state_files[key]))
        [row] = [row for row in report["checks"] if row["id"] == row_id]
        assert row["count"] == 1
        assert row["min_gap"] == payload[field]

def _forced_failure_report(suite: str, monkeypatch, **config) -> dict:
    """A suite report in which every inequality and every identity at the
    default identity tolerance fails: the tolerance check is swapped out, so
    a tolerance of -10 demands a gap of at least 10."""
    monkeypatch.setattr(cli, "_require_tolerance", lambda tolerance: None)
    monkeypatch.setattr(entrobox.simplex, "IDENTITY_TOLERANCE", -1.0)
    return run_suite(SuiteConfig(suite=suite, tolerance=-10.0, seed=23, **config))


def _extra_draw(kind: str, dim: int, provenance: str, tag: int):
    """The extra draw of the trial a sampler's provenance names, from the
    one-state-at-a-time oracle of job ``tag``."""
    seed, trial = (int(x) for x in re.search(r"seed=(\d+),trial=(\d+)", provenance).groups())
    return job_draws(kind, dim, seed, tag, EXTRAS, trial + 1)[trial]


def _job_tag(suite: str, check: str, dim: int, dims: list[int]) -> int:
    """The tag of the job whose states a failing row ``check`` at ``dim``
    came from, as the suite numbers its jobs."""
    if check.startswith("dim") and "readout" not in check:
        return {"classical": 10, "quantum": 100}[suite] + dims.index(dim)
    if suite == "classical":
        return 1 if dim == 7 else 2
    if suite == "discord":
        return 302 if dim == 3 else 300
    if check.startswith("axis-"):
        return 230
    return (240 if "readout-min" in check else 200) + dims.index(dim)


def _oracle_state(suite: str, check: str, provenance: str, dims: list[int]):
    """The serialized state the provenance of a failing row names, drawn by
    the one-state-at-a-time oracle."""
    kind, dim, seed, trial = re.match(
        r"(\w+)\(dim=(\d+),seed=(\d+),trial=(\d+)\)", provenance
    ).groups()
    dim, seed, trial = int(dim), int(seed), int(trial)
    tag = _job_tag(suite, check, dim, dims)
    state = job_draws(kind, dim, seed, tag, STATES, trial + 1)[trial]
    if state.ndim == 1:
        return state.tolist()
    return {"dim": dim, "re": state.real.tolist(), "im": state.imag.tolist()}


def _chain_report(name: str, w: np.ndarray, provenance: str) -> InequalityReport:
    """The conditional chain identity of a 4-vector from public functions."""
    p = ProbVec(w)
    split = conditional_pair(p)
    w = w.tolist()
    lhs = (w[0] + w[1]) * float(shannon(split.v)) + (w[2] + w[3]) * float(shannon(split.v_tilde))
    rhs = float(conditional_entropy(p))
    diff = abs(lhs - rhs)
    tol = entrobox.simplex.IDENTITY_TOLERANCE
    return InequalityReport(
        name, lhs, rhs, -diff, tol, diff <= tol, {"lhs": lhs, "rhs": rhs}, provenance
    )


def _public_report(check: str, state, tolerance: float, provenance: str) -> InequalityReport:
    """The report of failing suite instance ``check`` rebuilt by the
    public single-state function on its serialized state and provenance."""
    shape = tuple(int(x) for x in re.findall(r"\d+(?=x)|(?<=x)\d+", check))
    if check.startswith("dim") and "readout" not in check:
        check = check.split("-", 1)[1]
    if isinstance(state, list):
        p = ProbVec(np.array(state))
        if check == "subadd-4":
            return subadditivity_gap(p, (2, 2), tolerance, provenance)
        if check == "strong-subadd-7":
            return strong_subadditivity_gap(p, (2, 2, 2), tolerance, provenance)
        if check == "subadd-7-adjacent":
            return subadditivity_gap(p, (2, 4), tolerance, provenance)
        if check == "subadd-7-middle":
            # the parts of the 2 x 4 reading of the vector with its first two
            # binary digits swapped, and H(p) summed over the vector as drawn
            cube = np.append(p.values, 0.0).reshape(2, 2, 2).transpose(1, 0, 2)
            swapped = subadditivity_gap(ProbVec(cube.reshape(8)), (2, 4), tolerance, provenance)
            joint = strong_subadditivity_gap(p, (2, 2, 2)).entropies["joint"]
            entropies = {**swapped.entropies, "joint": joint}
            return make_report(check, joint, swapped.rhs, tolerance, entropies, provenance)
        if check.startswith("subadd-"):
            return subadditivity_gap(p, shape, tolerance, provenance)
        if check.startswith("strong-subadd-"):
            return strong_subadditivity_gap(p, shape, tolerance, provenance)
        if check.startswith("tsallis-chain-q"):
            return tsallis_monotonicity_check(p, float(check[15:]), tolerance, provenance)
        if check == "cond-chain-identity":
            return _chain_report(check, p.values, provenance)
        raise AssertionError(f"no public check for {check}")
    rho = DensityMatrix(np.array(state["re"]) + 1j * np.array(state["im"]))
    if check.startswith("q-subadd-"):
        return quantum_subadditivity(rho, shape, tolerance, provenance)
    if check.startswith("q-strong-subadd-"):
        return quantum_strong_subadditivity(rho, shape, tolerance, provenance)
    if check.endswith(("discord-nonneg", "chain-upper", "chain-lower")):
        rep = discord(rho, provenance)
        if check.endswith("discord-nonneg"):
            entropies = {"s": rep.s, "s1": rep.s1, "s2": rep.s2, "h12": rep.h12}
            entropies["information"] = rep.information
            return make_report(check, 0.0, rep.discord, tolerance, entropies, provenance, rep.flags)
        if check.endswith("chain-upper"):
            entropies = {"h12": rep.h12, "s1": rep.s1, "s2": rep.s2}
            return make_report(check, rep.h12, rep.s1 + rep.s2, tolerance, entropies, provenance)
        return make_report(check, rep.s, rep.h12, tolerance, {"h12": rep.h12, "s": rep.s}, provenance)
    s = float(von_neumann(rho))
    if check.endswith("readout-bound"):
        u = _extra_draw("haar", rho.dim, provenance, 200 + cli._TOMOGRAPHIC_DIMS.index(rho.dim))
        h = float(tomographic_entropy(rho, UnitaryMatrix(u)))
        return make_report(check, s, h, tolerance, {"readout": h, "von_neumann": s}, provenance)
    if check.startswith("axis-"):
        theta, phi = _extra_draw("axis", rho.dim, provenance, 230)
        assert provenance.endswith(f",axis(theta={theta:.6f},phi={phi:.6f})")
        w = spin_tomogram_axis(rho, theta, phi).probabilities
        if check == "axis-subadd":
            return subadditivity_gap(w, (2, 2), tolerance, provenance)
        return _chain_report(check, w.values, provenance)
    if "readout-min" in check:
        tag = 240 + cli._TOMOGRAPHIC_DIMS.index(rho.dim)
        _, h_min = minimize_tomographic_entropy(rho, seed=_extra_draw("seed", rho.dim, provenance, tag))
        h = float(h_min)
        if check.endswith("above"):
            entropies = {"minimum_readout": h, "von_neumann": s}
            return make_report(check, s, h, tolerance, entropies, provenance)
        return make_report(check, h - s, 1e-6, 0.0, {"error": h - s}, provenance)
    raise AssertionError(f"no public check for {check}")


class TestFailingInstances:
    """A failing instance's report, provenance and state are built from the
    check's columns only for that instance; each must agree with the public
    single-state function run on the serialized state."""

    @pytest.mark.parametrize(
        "suite, config, families",
        [
            (
                "classical",
                {"trials": 2, "dims": [4, 7, 12]},
                {"dim4-subadd-2x2", "dim12-strong-subadd-2x2x3", "subadd-7-middle",
                 "strong-subadd-7", "cond-chain-identity", "tsallis-chain-q2"},
            ),
            (
                "quantum",
                {"trials": 2, "dims": [4, 5]},
                {"dim4-q-subadd-2x2", "dim5-q-subadd-3x2", "dim5-q-strong-subadd-2x2x2"},
            ),
            (
                "discord",
                {"trials": 2},
                {"discord-nonneg", "chain-upper", "chain-lower", "qutrit-discord-nonneg"},
            ),
            (
                "tomographic",
                {"trials": 2, "dims": [2]},
                {"dim2-readout-bound", "axis-subadd", "axis-cond-chain",
                 "dim2-readout-min-above"},
            ),
        ],
    )
    def test_each_failing_instance_matches_the_public_function(
        self, suite, config, families, monkeypatch
    ):
        report = _forced_failure_report(suite, monkeypatch, **config)
        failing = report["failing_instances"]
        assert not report["all_passed"]
        assert len(failing) == sum(row["failures"] for row in report["checks"])
        assert families <= {entry["check"] for entry in failing}
        dims = config.get("dims")
        for entry in failing:
            assert set(entry) == {"check", "provenance", "gap", "report", "state"}
            want_state = _oracle_state(suite, entry["check"], entry["provenance"], dims)
            assert json.dumps(entry["state"]) == json.dumps(want_state), entry["provenance"]
            want = _public_report(
                entry["check"], entry["state"], entry["report"]["tolerance"], entry["provenance"]
            )
            assert not want.passed
            expected = {**want.to_dict(), "name": entry["check"]}
            assert json.dumps(entry["report"]) == json.dumps(expected), entry["check"]
            assert entry["gap"] == want.gap

    @pytest.mark.parametrize("suite, dims", [("classical", [4, 12]), ("quantum", [3, 4])])
    def test_failing_instances_across_a_step_boundary(self, suite, dims, monkeypatch):
        # a step's checks are failed in one block, and the last step holds
        # one row per job: the instances are listed by check in report-row
        # order, then in draw order, as rows taken one at a time list them
        report = _forced_failure_report(suite, monkeypatch, trials=cli._CHUNK + 1, dims=dims)
        failing = report["failing_instances"]
        assert len(failing) == sum(row["failures"] for row in report["checks"])
        order = [row["id"] for row in report["checks"]]
        keys = [
            (order.index(entry["check"]), int(re.search(r"trial=(\d+)", entry["provenance"])[1]))
            for entry in failing
        ]
        assert keys == sorted(set(keys))
        assert max(trial for _, trial in keys) == cli._CHUNK
        for entry in failing:
            want_state = _oracle_state(suite, entry["check"], entry["provenance"], dims)
            assert json.dumps(entry["state"]) == json.dumps(want_state), entry["provenance"]
            want = _public_report(
                entry["check"], entry["state"], entry["report"]["tolerance"], entry["provenance"]
            )
            expected = {**want.to_dict(), "name": entry["check"]}
            assert json.dumps(entry["report"]) == json.dumps(expected), entry["check"]

    def test_every_report_is_built_by_make_report(self, tmp_path, capsys, monkeypatch):
        # identities included, so that one function sees every report built
        built: list[str] = []
        make = entrobox.report.make_report

        def counted(*args, **kwargs):
            rep = make(*args, **kwargs)
            built.append(rep.name)
            return rep

        monkeypatch.setattr(entrobox.report, "make_report", counted)
        path = write_json(tmp_path / "p.json", [0.1, 0.2, 0.3, 0.4])
        assert main(["eval", "--check", "cond-chain", "--input", path]) == 0
        assert built == ["cond-chain-identity"]
        built.clear()
        report = _forced_failure_report("classical", monkeypatch, trials=2, dims=[4])
        failing = [entry["check"] for entry in report["failing_instances"]]
        assert "cond-chain-identity" in failing
        assert sorted(built) == sorted(failing)

    def test_a_forced_failure_exits_one_with_every_instance_listed(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "_require_tolerance", lambda tolerance: None)
        out = tmp_path / "report.json"
        argv = ["check", "--suite", "discord", "--trials", "1", "--tolerance=-10"]
        assert main([*argv, "--output", str(out)]) == 1
        report = json.loads(out.read_text())
        # three checks in each of two jobs; the diagonal job's identity keeps
        # its own tolerance
        assert len(report["failing_instances"]) == 2 * 3
        assert "FAILED" in capsys.readouterr().out


class TestMainEntry:
    def test_check_writes_report_and_summary(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "check",
                "--suite",
                "discord",
                "--trials",
                "2",
                "--seed",
                "3",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["all_passed"]
        assert "passed" in capsys.readouterr().out

    def test_check_prints_json_without_output(self, capsys):
        code = main(["check", "--suite", "discord", "--trials", "1"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["suite"] == "discord"

    def test_gen_then_eval(self, tmp_path, capsys):
        out_dir = tmp_path / "states"
        assert (
            main(
                [
                    "gen",
                    "--kind",
                    "ginibre",
                    "--dim",
                    "4",
                    "--count",
                    "2",
                    "--seed",
                    "5",
                    "--output",
                    str(out_dir),
                ]
            )
            == 0
        )
        files = sorted(out_dir.glob("*.json"))
        assert [f.name for f in files] == ["ginibre4-0000.json", "ginibre4-0001.json"]
        capsys.readouterr()
        code = main(["eval", "--check", "q-subadd", "--input", str(files[0])])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "q-subadd-2x2"
        assert payload["passed"]

    def test_eval_each_classical_check(self, tmp_path, capsys):
        p = ProbVec(dirichlet(8, np.random.default_rng(11)))
        path = write_json(tmp_path / "p.json", serialize_prob_vec(p))
        for check, shape in [
            ("subadd", "2x4"),
            ("strong-subadd", "2x2x2"),
        ]:
            code = main(
                ["eval", "--check", check, "--input", path, "--shape", shape]
            )
            assert code == 0
            assert json.loads(capsys.readouterr().out)["passed"]
        p4 = write_json(
            tmp_path / "p4.json",
            serialize_prob_vec(ProbVec(dirichlet(4, np.random.default_rng(12)))),
        )
        for check in ("cond-chain", "tsallis-chain"):
            code = main(["eval", "--check", check, "--input", p4])
            assert code == 0
            assert json.loads(capsys.readouterr().out)["passed"]

    def test_eval_axis_subadd_uses_angles(self, tmp_path, capsys):
        rho = validate_density(ginibre(4, np.random.default_rng(13)))
        path = write_json(tmp_path / "rho.json", serialize_density(rho))
        code = main(
            [
                "eval",
                "--check",
                "axis-subadd",
                "--input",
                path,
                "--theta",
                str(math.pi / 3),
                "--phi",
                "1.0",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        # the report carries the id the tomographic suite gives the check
        assert payload["name"] == "axis-subadd"
        assert payload["passed"]

    def test_eval_discord_on_diagonal_state(self, tmp_path, capsys):
        rho = validate_density(
            np.diag(dirichlet(4, np.random.default_rng(14))).astype(complex)
        )
        path = write_json(tmp_path / "rho.json", serialize_density(rho))
        code = main(["eval", "--check", "discord", "--input", path])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["discord"]) <= 1e-10

    def test_forced_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        # no valid state violates subadditivity and a negative tolerance is
        # rejected, so the check itself is replaced by one whose lhs > rhs
        def violated(p, shape, tolerance, provenance):
            return make_report("subadd-2x2", 1.0, 0.0, tolerance, {}, provenance)

        monkeypatch.setattr(cli, "subadditivity_gap", violated)
        path = write_json(tmp_path / "p.json", [0.25, 0.25, 0.25, 0.25])
        code = main(["eval", "--check", "subadd", "--input", path, "--shape", "2x2"])
        assert code == 1
        assert not json.loads(capsys.readouterr().out)["passed"]

    def test_zero_tolerance_is_accepted(self, tmp_path, capsys):
        # a point mass sits exactly on the subadditivity equality
        path = write_json(tmp_path / "delta.json", [1.0, 0.0, 0.0, 0.0])
        argv = ["eval", "--check", "subadd", "--input", path, "--shape", "2x2"]
        assert main([*argv, "--tolerance", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gap"] == 0.0 and payload["passed"]

    @pytest.mark.parametrize(
        "payload, argv",
        [
            ([1.0, 0.0, 0.0, 0.0], ["--check", "subadd"]),
            ([1.0, 0.0, 0.0, 0.0], ["--check", "tsallis-chain", "--q", "2"]),
            ({"dim": 1, "re": [[1.0]]}, ["--check", "readout-min"]),
            ({"dim": 2, "re": [[1.0, 0.0], [0.0, 0.0]]}, ["--check", "q-subadd", "--shape", "2x2"]),
        ],
    )
    def test_a_zero_entropy_is_reported_as_a_positive_zero(self, payload, argv, tmp_path, capsys):
        path = write_json(tmp_path / "state.json", payload)
        assert main(["eval", *argv, "--input", path]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["lhs"] == 0.0
        assert re.search(r"-0\.0(?![\d.e])", out) is None, out

    def test_malformed_input_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("[0.1, 0.2, \"x\"]")
        code = main(["eval", "--check", "subadd", "--input", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "payload, argv",
        [
            ([[0.5, 0.0], [0.0, 0.5]], ["eval", "--check", "subadd"]),
            ([[0.5, 0.0], [0.0, 0.5]], ["check", "--suite", "classical", "--trials", "1"]),
            ({"dim": 2.7, "re": [[0.5, 0], [0, 0.5]]}, ["eval", "--check", "q-subadd"]),
            ({"dim": 2.7, "re": [[0.5, 0], [0, 0.5]]}, ["check", "--suite", "quantum", "--trials", "1"]),
            ({"dim": True, "re": [[1.0]]}, ["eval", "--check", "readout-min"]),
            ({"dim": True, "re": [[1.0]]}, ["check", "--suite", "quantum", "--trials", "1"]),
            ([True, False, False, False], ["eval", "--check", "subadd"]),
            ([0.5, 0.5, 0.0, False], ["check", "--suite", "classical", "--trials", "1"]),
            (
                {"dim": 2, "re": [[True, False], [False, False]]},
                ["eval", "--check", "q-subadd", "--shape", "2x2"],
            ),
            (
                {"dim": 2, "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, False], [0.0, 0.0]]},
                ["check", "--suite", "quantum", "--trials", "1"],
            ),
        ],
        ids=[
            "nested-array-eval",
            "nested-array-check",
            "float-dim-eval",
            "float-dim-check",
            "bool-dim-eval",
            "bool-dim-check",
            "bool-vector-eval",
            "bool-vector-check",
            "bool-re-eval",
            "bool-im-check",
        ],
    )
    def test_malformed_state_file_exits_two(self, payload, argv, tmp_path, capsys):
        path = write_json(tmp_path / "state.json", payload)
        assert main([*argv, "--input", path]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN"])
    @pytest.mark.parametrize(
        "argv",
        [["eval", "--check", "q-subadd"], ["check", "--suite", "quantum", "--trials", "1"]],
        ids=["eval", "check"],
    )
    def test_non_finite_imaginary_part_exits_two_quietly(self, argv, value, tmp_path):
        # the whole stderr is one error line: no numpy warning comes first
        path = tmp_path / "rho.json"
        path.write_text(f'{{"dim": 2, "re": [[0.5, 0], [0, 0.5]], "im": [[0, {value}], [0, 0]]}}')
        proc = subprocess.run(
            [sys.executable, "-m", "entrobox.cli", *argv, "--input", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert line.startswith("error:") and "non-finite" in line

    @pytest.mark.parametrize("fails", [False, True])
    def test_closed_stdout_keeps_the_exit_code(self, fails, tmp_path, monkeypatch, capsys):
        # A reader that went away makes every write to stdout fail; main
        # keeps the code the checks earned and points stdout's descriptor at
        # the null device, so the flush at exit cannot fail again.
        class ClosedPipe(io.TextIOBase):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self) -> int:
                return fh.fileno()

        def violated(p, shape, tolerance, provenance):
            return make_report("subadd-2x2", 1.0, 0.0, tolerance, {}, provenance)

        if fails:
            monkeypatch.setattr(cli, "subadditivity_gap", violated)
        path = write_json(tmp_path / "p.json", [0.25, 0.25, 0.25, 0.25])
        with open(tmp_path / "stdout", "w") as fh:
            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            code = main(["eval", "--check", "subadd", "--input", path, "--shape", "2x2"])
            monkeypatch.undo()
            assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
        assert code == (1 if fails else 0)
        assert capsys.readouterr().err == ""

    def test_non_json_input_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        code = main(["eval", "--check", "q-subadd", "--input", str(path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--suite", "classical", "--trials", "-3"],
            ["--suite", "quantum", "--dims", "1", "--trials", "1"],
            ["--suite", "classical", "--dims", "4,0,7", "--trials", "1"],
            # a repeated dim would run two jobs under one check id
            ["--suite", "classical", "--dims", "4,4", "--trials", "1"],
            ["--suite", "quantum", "--dims", "3,3", "--trials", "4"],
            ["--suite", "tomographic", "--dims", "2,3,2", "--trials", "1"],
        ],
    )
    def test_out_of_range_check_arguments_exit_two(self, argv, capsys):
        assert main(["check", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--suite", "classical", "--trials", "1", "--seed", "-1"],
            ["gen", "--kind", "simplex", "--dim", "4", "--count", "1", "--seed", "-2"],
            ["eval", "--check", "readout-min", "--seed", "-1"],
        ],
        ids=["check", "gen", "eval"],
    )
    def test_negative_seed_exits_two(self, argv, tmp_path, capsys):
        if argv[0] == "gen":
            argv = [*argv, "--output", str(tmp_path / "states")]
        if argv[0] == "eval":
            qubit = serialize_density(validate_density(np.eye(2) / 2))
            argv = [*argv, "--input", write_json(tmp_path / "rho.json", qubit)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "seed" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["check", "eval"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.5", "-1e-12"])
    def test_bad_tolerance_exits_two(self, command, value, tmp_path, capsys):
        if command == "check":
            argv = ["check", "--suite", "classical", "--trials", "2"]
        else:
            path = write_json(tmp_path / "p.json", [0.25, 0.25, 0.25, 0.25])
            argv = ["eval", "--check", "subadd", "--input", path]
        assert main([*argv, f"--tolerance={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "tolerance" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "suite, key",
        [("quantum", "v4"), ("classical", "rho4"), ("discord", "rho5"), ("tomographic", "rho5")],
    )
    def test_input_no_job_takes_exits_two(self, suite, key, state_files, capsys):
        argv = ["check", "--suite", suite, "--trials", "1", "--input", state_files[key]]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert f"the {suite!r} suite checks no" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "check, key, message",
        [
            ("cond-chain", "v5", "conditional split needs a 4-vector, got 5"),
            ("tsallis-chain", "v5", "conditional split needs a 4-vector, got 5"),
            ("axis-subadd", "rho5", "axis readout supports dim <= 4, got 5"),
            # a qubit's 2-outcome readout fills one row of the 2 x 2 table
            ("axis-subadd", "rho2", "axis-subadd needs dim 3 or 4, got 2"),
            ("axis-subadd", "rho1", "axis-subadd needs dim 3 or 4, got 1"),
        ],
    )
    def test_eval_refuses_a_state_its_kernel_cannot_read(
        self, check, key, message, state_files, tmp_path, capsys
    ):
        small = {
            "v5": [0.2] * 5,
            "rho2": serialize_density(validate_density(ginibre(2, np.random.default_rng(32)))),
            "rho1": {"dim": 1, "re": [[1.0]], "im": [[0.0]]},
        }
        path = write_json(tmp_path / f"{key}.json", small[key]) if key in small else state_files[key]
        assert main(["eval", "--check", check, "--input", path]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "2,-0.5"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["--suite", "quantum", "--trials", "1"],
            ["--suite", "discord", "--trials", "1"],
            ["--suite", "classical", "--trials", "0"],
        ],
        ids=["quantum", "discord", "classical-no-trials"],
    )
    def test_bad_tsallis_order_exits_two(self, argv, value, capsys):
        assert main(["check", *argv, f"--q={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Tsallis" in captured.err
        assert captured.out == ""

    def test_eval_readout_min_passes_on_a_qubit(self, tmp_path, capsys):
        rho = serialize_density(validate_density(ginibre(2, np.random.default_rng(15))))
        path = write_json(tmp_path / "rho.json", rho)
        assert main(["eval", "--check", "readout-min", "--input", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"]
        assert -1e-9 <= payload["error"] <= 1e-6
        assert payload["entropies"]["minimum_readout"] - payload["entropies"]["von_neumann"] == (
            payload["error"]
        )

    def test_eval_readout_min_fails_when_the_search_misses(self, tmp_path, capsys, monkeypatch):
        # a minimum 1e-3 above S still clears the lower bound, so only the
        # closeness check can catch the miss; as if each of the default 8
        # restarts ran out of its 5000 evaluations
        def missed(states, seeds):
            u = UnitaryMatrix(np.eye(states[0].dim))
            pairs = [(u, EntropyValue(float(von_neumann(s)) + 1e-3, "shannon")) for s in states]
            return _Minima(pairs, [8 * 5000] * len(states), [False] * len(states))

        monkeypatch.setattr(tomography, "minimize_entropy_batch", missed)
        path = write_json(tmp_path / "rho.json", serialize_density(validate_density(np.eye(2) / 2)))
        assert main(["eval", "--check", "readout-min", "--input", path]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert not payload["passed"]
        assert payload["gap"] > 0
        assert payload["error"] == pytest.approx(1e-3)
        assert payload["nfev"] == 8 * 5000 and payload["converged"] is False

    def test_eval_readout_min_reports_the_search(self, state_files, capsys, monkeypatch):
        # nfev counts every objective row of the state's search, over all
        # 8 restarts; converged is the stop reason of the lowest restart.
        rows = []
        searches = []
        search = tomography.minimize_batch

        def counted(objective, x0, *args, **kwargs):
            def counted_objective(points, slots):
                rows.append(len(points))
                return objective(points, slots)

            searches.append(search(counted_objective, x0, *args, **kwargs))
            return searches[-1]

        monkeypatch.setattr(tomography, "minimize_batch", counted)
        argv = ["eval", "--check", "readout-min", "--input", state_files["rho3"]]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        [found] = searches
        assert payload["nfev"] == sum(rows) == int(found.nfev.sum())
        assert payload["converged"] is bool(found.converged[np.argmin(found.fun)])
        assert payload["converged"] is True
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == payload

    @pytest.mark.parametrize("flag", ["--q", "--dims"])
    def test_empty_list_exits_two(self, flag, capsys):
        assert main(["check", "--suite", "classical", "--trials", "1", flag, ""]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["check", "eval"])
    def test_unwritable_output_exits_two(self, command, tmp_path, capsys):
        if command == "check":
            argv = ["check", "--suite", "discord", "--trials", "1"]
        else:
            path = write_json(tmp_path / "p.json", [0.25, 0.25, 0.25, 0.25])
            argv = ["eval", "--check", "subadd", "--input", path]
        assert main([*argv, "--output", str(tmp_path / "missing" / "x.json")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_gen_onto_existing_file_exits_two(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        argv = ["gen", "--kind", "simplex", "--dim", "4", "--count", "1"]
        assert main([*argv, "--output", str(taken)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert taken.read_text() == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--kind", "simplex", "--dim", "1", "--count", "1"],
            ["--kind", "ginibre", "--dim", "4", "--count", "-1"],
            ["--kind", "diagonal", "--dim", "4", "--count", "1", "--seed", "-1"],
            ["--kind", "cauchy", "--dim", "4", "--count", "1"],
        ],
        ids=["dim", "count", "seed", "kind"],
    )
    def test_gen_rejects_before_creating_directory(self, argv, tmp_path, capsys):
        out = tmp_path / "newdir"
        try:
            code = main(["gen", *argv, "--output", str(out)])
        except SystemExit as exc:  # argparse rejects an unknown kind
            code = exc.code
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_console_invocation(self, tmp_path):
        # one end-to-end subprocess run through the module entry point
        path = write_json(tmp_path / "p.json", [0.5, 0.0, 0.0, 0.5])
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "entrobox.cli",
                "eval",
                "--check",
                "subadd",
                "--input",
                str(path),
                "--shape",
                "2x2",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert_allclose(payload["gap"], math.log(2.0), atol=1e-12)

    @pytest.mark.parametrize("depth", [995, 100_000])
    @pytest.mark.parametrize(
        "argv",
        [["eval", "--check", "subadd"], ["check", "--suite", "classical", "--trials", "1"]],
        ids=["eval", "check"],
    )
    def test_deeply_nested_state_file_exits_two(self, argv, depth, tmp_path):
        # json gives up on such a file with a RecursionError: bad input, not
        # a failed check
        path = tmp_path / "deep.json"
        path.write_text("[" * depth + "]" * depth)
        proc = subprocess.run(
            [sys.executable, "-m", "entrobox.cli", *argv, "--input", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [["eval", "--check", "subadd"], ["check", "--suite", "classical", "--trials", "1"]],
        ids=["eval", "check"],
    )
    def test_state_file_that_is_not_utf8_exits_two(self, argv, tmp_path):
        # JSON text is UTF-8, and these bytes do not decode as UTF-8
        path = tmp_path / "latin.json"
        path.write_bytes(b"\xff\xfe[0.5,0.5]")
        proc = subprocess.run(
            [sys.executable, "-m", "entrobox.cli", *argv, "--input", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert "utf-8" in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--check", "subadd", "--input", "v4", "--shape", "2x99999999999999999999"],
            ["eval", "--check", "subadd", "--input", "v4", "--shape", "2x9999999999999"],
            ["eval", "--check", "q-subadd", "--input", "rho4", "--shape", "2x1048576"],
            ["eval", "--check", "q-strong-subadd", "--input", "rho4", "--shape", "2x2x999999"],
            ["check", "--suite", "classical", "--dims", "4,99999999999999999999"],
            ["check", "--suite", "quantum", "--dims", "1048577"],
            ["check", "--suite", "all", "--dims", "2,1048577"],
            ["gen", "--kind", "simplex", "--dim", str(2**40 + 1), "--count", "1"],
            ["gen", "--kind", "ginibre", "--dim", "1048577", "--count", "1"],
        ],
    )
    def test_sizes_above_the_ceiling_exit_two(self, argv, state_files, tmp_path, capsys):
        # refused before anything is allocated; gen makes no directory
        argv = [state_files.get(a, a) for a in argv]
        if argv[0] == "check":
            argv += ["--trials", "1"]
        if argv[0] == "gen":
            argv += ["--output", str(tmp_path / "states")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "more than 2**40 entries" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "states").exists()

    def test_the_ceiling_counts_entries(self):
        cli._require_size(2**40, matrix=False)
        cli._require_size(2**20, matrix=True)
        with pytest.raises(ShapeMismatchError):
            cli._require_size(2**40 + 1, matrix=False)
        with pytest.raises(ShapeMismatchError):
            cli._require_size(2**20 + 1, matrix=True)

    def test_dims_for_the_discord_suite_exit_two(self, capsys):
        # its jobs are fixed at dims 3 and 4: a --dims would run no check at
        # that dim, yet be echoed in the report's config
        for dims in ("5", "3,4", "99999999999999999999"):
            assert main(["check", "--suite", "discord", "--trials", "1", "--dims", dims]) == 2
            captured = capsys.readouterr()
            assert captured.err == "error: the discord suite takes no --dims\n", dims
            assert captured.out == ""
        # the other families of the full suite read it
        assert main(["check", "--suite", "all", "--trials", "1", "--dims", "2"]) == 0
        assert '"dim2-q-subadd-2x2"' in capsys.readouterr().out

    @pytest.mark.parametrize("orders", ["2,2", "2,2.0000001", "0.5,2,3,2.0"])
    def test_tsallis_orders_sharing_a_check_id_exit_two(self, orders, capsys):
        # both orders would count into one tsallis-chain-q2 row
        argv = ["check", "--suite", "classical", "--dims", "4", "--trials", "3", "--q", orders]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: need Tsallis orders with distinct ids, got " + {
            "2,2": "q2, q2\n",
            "2,2.0000001": "q2, q2\n",
            "0.5,2,3,2.0": "q0.5, q2, q3, q2\n",
        }[orders]
        assert captured.out == ""
        assert main([*argv[:-1], "2,2.001"]) == 0
        assert '"tsallis-chain-q2.001"' in capsys.readouterr().out

    @pytest.mark.parametrize("suite", SUITES)
    def test_zero_trials_without_an_input_exit_two(self, suite, state_files, capsys):
        # no check would run, and an empty report would read all_passed
        assert main(["check", "--suite", suite, "--trials", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: need trials >= 1 without an --input: no check would run\n"
        assert captured.out == ""
        with pytest.raises(ShapeMismatchError):
            SuiteConfig(suite=suite, trials=0)
        # an input state is still checked with no trials
        key = "v7" if suite == "classical" else "rho4"
        assert main(["check", "--suite", suite, "--trials", "0", "--input", state_files[key]]) == 0
        assert json.loads(capsys.readouterr().out)["checks"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--suite", "quantum", "--trials", "1"],
            ["gen", "--kind", "ginibre", "--dim", "3", "--count", "1"],
        ],
        ids=["check", "gen"],
    )
    def test_out_of_memory_exits_two(self, argv, tmp_path, capsys, monkeypatch):
        # a size under the ceiling that does not fit in memory; the failing
        # allocation is simulated, so nothing is allocated
        def unable(dim, rng, n):
            raise MemoryError(f"Unable to allocate an array with shape ({n}, {dim}, {dim})")

        monkeypatch.setattr(cli, "ginibre", unable)
        if argv[0] == "gen":
            argv = [*argv, "--output", str(tmp_path / "states")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: not enough memory: Unable to allocate")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--check", "subadd", "--input", "v4", "--shape", "2x1073741824"],
            ["eval", "--check", "q-strong-subadd", "--input", "rho4", "--shape", "2x2x262144"],
        ],
        ids=["vector", "matrix"],
    )
    def test_a_shape_under_the_ceiling_that_does_not_fit_fails_fast(self, argv, state_files):
        # the reading's index plan is built by array operations, so its first
        # allocation that does not fit fails at once; the child's address
        # space is capped at 1 GiB, so nothing larger is ever allocated
        resource = pytest.importorskip("resource")

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        argv = [state_files.get(a, a) for a in argv]
        proc = subprocess.run(
            [sys.executable, "-m", "entrobox.cli", *argv],
            capture_output=True,
            text=True,
            preexec_fn=cap,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: not enough memory: Unable to allocate")
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""


def _eval_requests(tmp_path) -> list[list[str]]:
    """Distinct ``eval`` argv lists over fresh state files, without --output."""
    rng = np.random.default_rng(21)
    p8 = write_json(tmp_path / "p8.json", serialize_prob_vec(ProbVec(dirichlet(8, rng))))
    p4 = write_json(tmp_path / "p4.json", serialize_prob_vec(ProbVec(dirichlet(4, rng))))
    rho4 = write_json(
        tmp_path / "rho4.json", serialize_density(validate_density(ginibre(4, rng)))
    )
    rho8 = write_json(
        tmp_path / "rho8.json", serialize_density(validate_density(ginibre(8, rng)))
    )
    rho2 = write_json(
        tmp_path / "rho2.json", serialize_density(validate_density(ginibre(2, rng)))
    )
    return [
        ["eval", "--check", "subadd", "--input", p8, "--shape", "2x4"],
        ["eval", "--check", "strong-subadd", "--input", p8, "--shape", "2x2x2"],
        ["eval", "--check", "cond-chain", "--input", p4],
        ["eval", "--check", "tsallis-chain", "--input", p4, "--q", "0.5"],
        ["eval", "--check", "q-subadd", "--input", rho4],
        ["eval", "--check", "q-strong-subadd", "--input", rho8, "--shape", "2x2x2"],
        ["eval", "--check", "discord", "--input", rho4],
        ["eval", "--check", "axis-subadd", "--input", rho4, "--theta", "0.7", "--phi", "2"],
        ["eval", "--check", "readout-min", "--input", rho2, "--seed", "3"],
    ]


def _read_outputs(paths) -> list[str]:
    """Each output file's text with its ``wall_time_s`` line, if any, cut."""
    return [re.sub(r'\n *"wall_time_s": [^\n]*', "", path.read_text()) for path in paths]


class TestSharedParser:
    """``main`` parses every call against one parser kept for the process."""

    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli._shared_parser.cache_clear()
        yield
        cli._shared_parser.cache_clear()

    def test_parser_built_at_most_once(self, tmp_path, monkeypatch, capsys):
        calls = []
        build_parser = cli.build_parser

        def counting_build_parser():
            calls.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        requests = _eval_requests(tmp_path)
        for k in range(3):
            for i, argv in enumerate(requests):
                out = tmp_path / f"out-{k}-{i}.json"
                assert main([*argv, "--output", str(out)]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert len(calls) == 1
        assert cli.build_parser() is not cli.build_parser()

    def test_interleaved_requests_repeat_byte_for_byte(self, tmp_path, capsys):
        p8 = write_json(
            tmp_path / "p8.json",
            serialize_prob_vec(ProbVec(dirichlet(8, np.random.default_rng(22)))),
        )
        bad = tmp_path / "bad.json"
        bad.write_text('[0.1, 0.2, "x"]')
        good = {
            "eval": ["eval", "--check", "subadd", "--input", p8, "--shape", "2x4"],
            "check-default-q": ["check", "--suite", "classical", "--trials", "2", "--seed", "5"],
            "check-q": ["check", "--suite", "classical", "--trials", "2", "--seed", "5", "--q", "0.5,2"],
        }

        def run_good(tag: str) -> tuple[list[int], list[str]]:
            codes, paths = [], []
            for name, argv in good.items():
                paths.append(tmp_path / f"{tag}-{name}.json")
                codes.append(main([*argv, "--output", str(paths[-1])]))
            return codes, _read_outputs(paths)

        first = run_good("first")
        assert first[0] == [0, 0, 0]
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--check", "no-such-check", "--input", p8])
        assert exc.value.code == 2
        assert main(["eval", "--check", "subadd", "--input", str(bad)]) == 2
        default_q = tmp_path / "default-q.json"
        assert main([*good["check-default-q"], "--output", str(default_q)]) == 0
        assert json.loads(default_q.read_text())["config"]["q_values"] == [0.5, 2.0, 3.0]
        assert run_good("second") == first

    def test_threads_match_sequential_run(self, tmp_path, capsys):
        requests = _eval_requests(tmp_path)

        def run(tag: str, i: int) -> int:
            out = tmp_path / f"{tag}-{i}.json"
            return main([*requests[i], "--output", str(out)])

        sequential = [run("seq", i) for i in range(len(requests))]
        cli._shared_parser.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(run, "par", i) for i in range(len(requests))]
                threaded = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert sequential == threaded == [0] * len(requests)
        names = range(len(requests))
        assert _read_outputs(tmp_path / f"par-{i}.json" for i in names) == _read_outputs(
            tmp_path / f"seq-{i}.json" for i in names
        )


class TestOutputWriter:
    """``--output`` overwrites a file in place and trims it to the report."""

    @pytest.fixture
    def request_argv(self, state_files):
        return ["eval", "--check", "discord", "--input", state_files["rho4"]]

    @pytest.mark.parametrize("old", ["x" * 20000, "{}"], ids=["longer", "shorter"])
    def test_existing_file_holds_exactly_the_report(self, old, request_argv, tmp_path, capsys):
        assert main(request_argv) == 0
        expected = capsys.readouterr().out.encode()
        out = tmp_path / "out.json"
        out.write_text(old)
        assert main([*request_argv, "--output", str(out)]) == 0
        assert out.read_bytes() == expected

    def test_gen_over_used_directory_matches_fresh_gen(self, tmp_path, capsys):
        argv = ["gen", "--kind", "ginibre", "--dim", "3", "--count", "4"]
        used, fresh = tmp_path / "used", tmp_path / "fresh"
        assert main([*argv, "--seed", "1", "--output", str(used)]) == 0
        before = {p.name: p.read_bytes() for p in used.iterdir()}
        assert main([*argv, "--seed", "2", "--output", str(used)]) == 0
        assert main([*argv, "--seed", "2", "--output", str(fresh)]) == 0
        after = {p.name: p.read_bytes() for p in used.iterdir()}
        assert after == {p.name: p.read_bytes() for p in fresh.iterdir()}
        # the seeds wrote files both longer and shorter than the ones before
        assert {len(after[n]) > len(before[n]) for n in before} == {True, False}

    def test_null_device_output_exits_zero(self, request_argv, capsys):
        assert main([*request_argv, "--output", os.devnull]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["check", "eval", "gen"])
    def test_directory_output_exits_two(self, command, request_argv, tmp_path, capsys):
        argv = {
            "check": ["check", "--suite", "discord", "--trials", "1"],
            "eval": request_argv,
            # gen writes into --output; a directory where a state file goes
            "gen": ["gen", "--kind", "simplex", "--dim", "4", "--count", "1"],
        }[command]
        target = tmp_path / "taken"
        (target / "simplex4-0000.json").mkdir(parents=True)
        assert main([*argv, "--output", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_new_file_mode_follows_umask(self, request_argv, tmp_path, capsys):
        old = os.umask(0o027)
        try:
            assert main([*request_argv, "--output", str(tmp_path / "new.json")]) == 0
            with open(tmp_path / "reference.json", "w"):
                pass
        finally:
            os.umask(old)
        mode = os.stat(tmp_path / "new.json").st_mode
        assert mode == os.stat(tmp_path / "reference.json").st_mode
        assert mode & 0o777 == 0o640

    def test_short_writes_are_continued(self, request_argv, tmp_path, monkeypatch, capsys):
        assert main(request_argv) == 0
        expected = capsys.readouterr().out.encode()
        write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:7]))
        out = tmp_path / "out.json"
        out.write_text("x" * 20000)
        assert main([*request_argv, "--output", str(out)]) == 0
        assert out.read_bytes() == expected

    def test_failed_close_exits_two(self, request_argv, tmp_path, monkeypatch, capsys):
        close = os.close

        def failing_close(fd):
            close(fd)
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(os, "close", failing_close)
        code = main([*request_argv, "--output", str(tmp_path / "out.json")])
        monkeypatch.undo()
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.endswith("out.json: Input/output error\n")
        assert captured.err.count("\n") == 1

    def test_bytes_match_a_write_text_reference(self, request_argv, tmp_path, monkeypatch, capsys):
        write = cli._write
        pairs = []

        def write_with_reference(path, text):
            write(path, text)
            reference = Path(f"{path}.ref")
            reference.write_text(text)
            pairs.append((Path(path), reference, text))

        monkeypatch.setattr(cli, "_write", write_with_reference)
        assert main([*request_argv, "--output", str(tmp_path / "eval.json")]) == 0
        argv = ["check", "--suite", "classical", "--trials", "2", "--output"]
        assert main([*argv, str(tmp_path / "check.json")]) == 0
        argv = ["gen", "--kind", "ginibre", "--dim", "2", "--count", "2", "--output"]
        assert main([*argv, str(tmp_path / "states")]) == 0
        assert len(pairs) == 4
        for path, reference, text in pairs:
            assert path.read_bytes() == reference.read_bytes() == text.encode()
