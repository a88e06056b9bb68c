"""Property test of the exit-code contract of ``entrobox``.

``main`` is driven with generated command lines over ``check``, ``eval`` and
``gen``, mixing valid and invalid flag values and state files. Whatever the
command line, ``main`` must return 0 (everything ran and passed), 1 (a check
ran and failed, and the report says which) or 2 (bad input or arguments);
only argparse may raise, and only ``SystemExit(2)``.

The cost per example stays small: at most 2 trials, and every readout
minimization runs on a qubit.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from entrobox import ProbVec, validate_density
from entrobox.cli import EVAL_CHECKS, SUITES, main, serialize_density, serialize_prob_vec
from entrobox.ensembles import dirichlet, ginibre


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> dict[str, str]:
    """Paths by key: state files, broken files, a missing file and output
    targets, one of them inside a directory that does not exist."""
    folder = tmp_path_factory.mktemp("contract")
    rng = np.random.default_rng(40)
    payloads = {
        "v4": serialize_prob_vec(ProbVec(dirichlet(4, rng))),
        "v8": serialize_prob_vec(ProbVec(dirichlet(8, rng))),
        "rho2": serialize_density(validate_density(ginibre(2, rng))),
        "rho4": serialize_density(validate_density(ginibre(4, rng))),
        "diag4": serialize_density(validate_density(np.diag(dirichlet(4, rng)).astype(complex))),
        "not-a-state": {"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]]},
    }
    paths = {}
    for key, payload in payloads.items():
        path = folder / f"{key}.json"
        path.write_text(json.dumps(payload))
        paths[key] = str(path)
    (folder / "garbage.json").write_text("[0.5, \"x\"")
    paths["garbage"] = str(folder / "garbage.json")
    paths["missing"] = str(folder / "missing.json")
    paths["report"] = str(folder / "report.json")
    paths["no-dir-report"] = str(folder / "no" / "dir" / "report.json")
    paths["gen-dir"] = str(folder / "states")
    return paths


def _flags(draw, spec: dict[str, tuple[list, list]]) -> list[str]:
    """Flags drawn from ``spec`` (flag -> (good values, bad values), where a
    None value leaves the flag out). At most one flag takes a bad value, and
    half the time none does."""
    bad = draw(st.sampled_from([None] * len(spec) + list(spec)))
    argv = []
    for flag, (good, wrong) in spec.items():
        value = draw(st.sampled_from(wrong if flag == bad else good))
        if value is not None:
            argv += [flag, value]
    return argv


COMMON = {
    "--seed": ([None, "0", "7"], ["-1"]),
    "--tolerance": ([None, "0", "1e-9"], ["-1", "nan", "inf"]),
    "--output": ([None, "report"], ["no-dir-report"]),
}
STATES = ["v4", "v8", "rho2", "rho4", "diag4"]
BROKEN_STATES = ["not-a-state", "garbage", "missing"]


@st.composite
def check_argv(draw) -> list[str]:
    suite = draw(st.sampled_from(SUITES))
    if suite in ("tomographic", "all"):
        # The tomographic jobs minimize at every swept dim, so these suites
        # sweep qubits only.
        dims = (["2"], ["", "1"])
    else:
        dims = ([None, "2", "4", "3,5"], ["", "1", "x"])
    spec = {
        # Always given: the default is 1000 trials.
        "--trials": (["0", "1", "2"], ["-1", "x"]),
        "--dims": dims,
        "--q": ([None, "2", "0.5,3"], ["-1", "0", "nan", "", "x"]),
        "--input": ([None, *STATES], BROKEN_STATES),
        **COMMON,
    }
    return ["check", "--suite", suite, *_flags(draw, spec)]


@st.composite
def eval_argv(draw) -> list[str]:
    check = draw(st.sampled_from(EVAL_CHECKS))
    states = ["rho2"] if check == "readout-min" else STATES
    spec = {
        "--input": (states, BROKEN_STATES),
        "--shape": ([None, "2x2", "2x4", "2x2x2"], ["3x3", "2", "x"]),
        "--q": ([None, "2", "0.5"], ["-1", "nan"]),
        "--theta": ([None, "0.5"], ["-1", "4"]),
        "--phi": ([None, "1.0"], ["-1", "7"]),
        **COMMON,
    }
    return ["eval", "--check", check, *_flags(draw, spec)]


@st.composite
def gen_argv(draw) -> list[str]:
    spec = {
        "--kind": (["simplex", "ginibre", "diagonal"], ["bogus"]),
        "--dim": (["2", "4"], ["-1", "1"]),
        "--count": (["0", "2"], ["-1"]),
        "--seed": COMMON["--seed"],
        "--output": (["gen-dir"], ["v4"]),
    }
    return ["gen", *_flags(draw, spec)]


def _resolve(argv: list[str], files: dict[str, str]) -> list[str]:
    """Replace file keys in ``argv`` by their paths."""
    flags = ("--input", "--output")
    return [files[a] if i and argv[i - 1] in flags else a for i, a in enumerate(argv)]


def _failed(report: dict) -> bool:
    if "checks" in report:
        return any(row["failures"] for row in report["checks"])
    return not report["passed"]


@settings(max_examples=50, deadline=None, derandomize=True)
@given(argv=st.one_of(check_argv(), eval_argv(), gen_argv()))
def test_exit_code_contract(files, argv):
    argv = _resolve(argv, files)
    out_path = files["report"]
    with contextlib.suppress(FileNotFoundError):
        os.unlink(out_path)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, (argv, stderr.getvalue())
            event(f"{argv[0]}: argparse exit")
            return
    assert code in (0, 1, 2), argv
    event(f"{argv[0]}: exit {code}")
    if code == 2:
        assert stderr.getvalue().startswith("error:"), (argv, stderr.getvalue())
        return
    if argv[0] == "gen":
        assert code == 0
        return
    text = open(out_path).read() if out_path in argv else stdout.getvalue()
    report = json.loads(text)
    assert _failed(report) == (code == 1), (argv, report)
