"""The suite's seeding rule, against the one-state-at-a-time oracle.

Each suite job draws from its own generator, seeded by the master seed and
the job's tag: trial k is the k-th state that generator draws. The further
draws its checks take per state (a readout basis, a spin axis, a search
seed) are the k-th draws of a second stream of the job, and an input
state's come from a third. The program draws each chunk with one stacked
call; the oracle in ``_explicit`` draws one state at a time with raw numpy
calls.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from entrobox import cli, tomography
from entrobox.cli import SuiteConfig, run_suite, serialize_density
from entrobox.ensembles import ginibre
from entrobox.qstate import validate_density
from entrobox.tomography import _Minima

from _explicit import EXTRAS, INPUT_EXTRAS, STATES, job_draws

SEED = 17


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict[int, str]:
    """Ginibre state files by dim."""
    folder = tmp_path_factory.mktemp("draws")
    rng = np.random.default_rng(50)
    paths = {}
    for dim in (3, 4):
        path = folder / f"rho{dim}.json"
        path.write_text(json.dumps(serialize_density(validate_density(ginibre(dim, rng)))))
        paths[dim] = str(path)
    return paths


def _kind(job: cli._Job) -> str:
    """The oracle's name of a job's sampler: its provenance up to '('."""
    return job.sampler.provenance.split("(")[0]


def _job_rows(config: SuiteConfig) -> dict[tuple[int, int], tuple[bool, np.ndarray]]:
    """(tag, dim) -> (whether the input leads, the stacked rows) of every
    sampled job of the configured suite."""
    input_state = cli._ingest_any(config.input_path) if config.input_path else None
    out = {}
    for job in cli._jobs(config, input_state):
        if job.sampler is cli._MIXED:
            continue
        taken = input_state if job.takes(input_state) else None
        chunks = list(cli._chunks(job, config.seed, taken))
        assert all(len(chunk.rows) <= cli._CHUNK for chunk in chunks)
        rows = np.concatenate([chunk.rows for chunk in chunks]) if chunks else None
        out[job.tag, job.dim] = (job.takes(input_state), rows)
    return out


@pytest.mark.parametrize("trials", [5, 129])
@pytest.mark.parametrize("with_input", [False, True])
def test_trial_states_are_the_oracle_draws(trials, with_input, inputs):
    config = SuiteConfig(
        suite="all", trials=trials, seed=SEED, input_path=inputs[4] if with_input else None
    )
    input_array = cli._array(cli._ingest_any(inputs[4]))
    jobs = {(job.tag, job.dim): job for job in cli._jobs(config, None)}
    rows_by_job = _job_rows(config)
    assert any(takes for takes, _ in rows_by_job.values()) == with_input
    for key, (takes, rows) in rows_by_job.items():
        job = jobs[key]
        if takes:
            assert rows[0].tobytes() == input_array.tobytes()
            rows = rows[1:]
        want = job_draws(_kind(job), job.dim, SEED, job.tag, STATES, job.trials)
        assert len(rows) == job.trials == len(want)
        for got, state in zip(rows, want):
            assert got.tobytes() == state.tobytes(), key


def test_first_states_do_not_depend_on_trials_or_input(inputs):
    runs = [
        _job_rows(SuiteConfig(suite="all", trials=trials, seed=SEED, input_path=path))
        for trials in (5, 129, 257)
        for path in (None, inputs[4])
    ]
    for key in runs[0]:
        sampled = [rows[int(takes) :] for takes, rows in (run[key] for run in runs)]
        for rows in sampled:
            assert rows[:5].tobytes() == sampled[0][:5].tobytes(), key
        if len(sampled[-1]) > 129:  # the readout-min jobs stop at their cap
            assert sampled[-1][:129].tobytes() == sampled[2][:129].tobytes(), key


@pytest.mark.parametrize("trials", [5, 129])
@pytest.mark.parametrize("with_input", [False, True])
def test_extra_draws_are_the_oracle_draws(trials, with_input, inputs, monkeypatch):
    # The readout bases, spin axes and search seeds the tomographic checks
    # take, recorded where the checks use them; the searches themselves are
    # skipped.
    bases: dict[int, list[np.ndarray]] = {}
    axes: list[tuple[float, float]] = []
    seeds: dict[int, list[int]] = {}
    haar, axis_block = cli.haar, cli._axis_block

    def recorded_haar(dim, rng, n):
        out = haar(dim, rng, n)
        bases.setdefault(dim, []).extend(out)
        return out

    def recorded_axis(mats, angles, tolerance):
        axes.extend(angles)
        return axis_block(mats, angles, tolerance)

    def recorded_search(states, **kwargs):
        seeds.setdefault(states[0].dim, []).extend(kwargs["seeds"])
        return _Minima([(None, 0.0)] * len(states), [0] * len(states), [True] * len(states))

    monkeypatch.setattr(cli, "haar", recorded_haar)
    monkeypatch.setattr(cli, "_axis_block", recorded_axis)
    monkeypatch.setattr(tomography, "minimize_entropy_batch", recorded_search)
    dims = [2, 3]
    path = inputs[3] if with_input else None
    config = SuiteConfig(suite="tomographic", dims=dims, trials=trials, seed=SEED, input_path=path)
    run_suite(config)

    for j, dim in enumerate(dims):
        lead = with_input and dim == 3
        want_bases = job_draws("haar", dim, SEED, 200 + j, EXTRAS, trials)
        want_seeds = job_draws("seed", dim, SEED, 240 + j, EXTRAS, min(trials, cli._MINIMIZER_CAP))
        if lead:
            want_bases.insert(0, job_draws("haar", dim, SEED, 200 + j, INPUT_EXTRAS, 1)[0])
            want_seeds.insert(0, job_draws("seed", dim, SEED, 240 + j, INPUT_EXTRAS, 1)[0])
        assert [u.tobytes() for u in bases[dim]] == [u.tobytes() for u in want_bases], dim
        assert seeds[dim] == want_seeds, dim
    assert axes == job_draws("axis", 4, SEED, 230, EXTRAS, trials)
