"""Tests for JSON state files, ensemble generation, the randomized check
suites, single-state evaluation, and command-line exit codes."""

from __future__ import annotations

import functools
import json
import math
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose

from entrobox import DensityMatrix, ProbVec, ShapeMismatchError, cli, validate_density
from entrobox.cli import (
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
from entrobox.tomography import UnitaryMatrix


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
        full = list(generate_ensemble("ginibre", 3, 5, seed=9))
        tail = list(generate_ensemble("ginibre", 3, 5, seed=9))
        for a, b in zip(full, tail):
            assert np.array_equal(a.matrix, b.matrix)

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
        assert json.loads(capsys.readouterr().out)["passed"]

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

    def test_malformed_input_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("[0.1, 0.2, \"x\"]")
        code = main(["eval", "--check", "subadd", "--input", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")

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
        # closeness check can catch the miss
        def missed(states, restarts, budget, seeds):
            u = UnitaryMatrix(np.eye(states[0].dim))
            return [(u, EntropyValue(float(von_neumann(s)) + 1e-3, "shannon")) for s in states]

        monkeypatch.setattr(cli, "minimize_entropy_batch", missed)
        path = write_json(tmp_path / "rho.json", serialize_density(validate_density(np.eye(2) / 2)))
        assert main(["eval", "--check", "readout-min", "--input", path]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert not payload["passed"]
        assert payload["gap"] > 0
        assert payload["error"] == pytest.approx(1e-3)

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
