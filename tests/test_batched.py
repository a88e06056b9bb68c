"""Batch invariance of the check kernels.

Every check is computed by one kernel over a stack of states, which returns
the check as columns, and each public single-state function is that kernel
run on a batch of one. The report of row k of a batch must therefore equal,
bit for bit, the report of the same state run alone, and a bad row must
fail a batch the way it fails alone. The stacked reductions and
marginals are also checked against the loop-built oracles in ``_explicit``.
"""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from entrobox import (
    InequalityReport,
    ProbVec,
    cli,
    minimize_entropy_batch,
    minimize_tomographic_entropy,
    quantum_strong_subadditivity,
    quantum_subadditivity,
    von_neumann,
)
from entrobox.cli import _cond_chain
from entrobox.errors import NotPositiveError
from entrobox.ensembles import diagonal_density, dirichlet, ginibre, haar
from entrobox.qstate import (
    DensityMatrix,
    _entropy_rows,
    _q_table_columns,
    _reduce_rows,
    _spectra,
)
from entrobox.report import CheckColumns
from entrobox.simplex import (
    _conditional_rows,
    _shannon_rows,
    _split_rows,
    _strong_subadd_columns,
    _subadd_columns,
    _tsallis_chain_columns,
    _tsallis_rows,
    admissible_shapes,
)
from entrobox.tomography import (
    DiscordReport,
    _discord_columns,
    _discord_report,
    _eigenbases,
    _readout_min_columns,
    _readouts,
)

from _explicit import STATES, job_draws, marginal_brute, reduce_brute, shannon_brute

N = 7


def _bits(obj):
    """``obj`` with every float, array and report spelled out exactly, so
    that == compares bit patterns (-0.0 and 0.0 differ)."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    if dataclasses.is_dataclass(obj):
        return _bits(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {k: _bits(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_bits(x) for x in obj]
    return obj


def _rows_of(out, k: int):
    """Row ``k`` of a kernel's output: the report of a check's columns, a
    tuple or list of outputs, or an array."""
    if isinstance(out, CheckColumns):
        return out.report(k)
    if isinstance(out, (tuple, list)):
        return tuple(_rows_of(part, k) for part in out)
    return out[k]


def _assert_batch_invariant(kernel, stack: np.ndarray, *args) -> None:
    """Row k of ``kernel`` run on ``stack`` equals, bit for bit, row k run
    alone."""
    batch = kernel(stack, *args)
    for k in range(len(stack)):
        alone = kernel(stack[k : k + 1], *args)
        assert _bits(_rows_of(batch, k)) == _bits(_rows_of(alone, 0)), (kernel.__name__, k)


def _vectors(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    rows = np.stack([dirichlet(dim, rng) for _ in range(N)])
    rows[3, 1:] = 0.0  # a point mass
    rows[3, 0] = 1.0
    return rows


def _ginibre_batch(dim: int, seed: int) -> np.ndarray:
    """Ginibre states with a diagonal and a maximally mixed state mixed in."""
    rng = np.random.default_rng(seed)
    mats = np.stack([ginibre(dim, rng) for _ in range(N)])
    mats[2] = diagonal_density(dim, rng)
    mats[5] = np.eye(dim) / dim
    return mats


class TestSimplexKernels:
    @pytest.mark.parametrize("dim", [4, 5, 7, 8, 9, 10, 11])
    def test_table_reports(self, dim):
        rows = _vectors(dim, dim)
        for shape in admissible_shapes(dim, 2):
            _assert_batch_invariant(_subadd_columns, rows, shape, 1e-9)
        for shape in admissible_shapes(dim, 3):
            _assert_batch_invariant(_strong_subadd_columns, rows, shape, 1e-9)

    @pytest.mark.parametrize("dim", [4, 5, 7, 9, 10, 11])
    def test_entropy_rows(self, dim):
        rows = _vectors(dim, 100 + dim)
        _assert_batch_invariant(_shannon_rows, rows)
        for q in (0.5, 1.0, 1.0 + 1e-4, 2.0, 3.0):
            _assert_batch_invariant(_tsallis_rows, rows, q)

    def test_four_vector_kernels(self):
        rows = _vectors(4, 4)
        rows[5] = [0.0, 0.0, 0.4, 0.6]  # a zero first block
        _assert_batch_invariant(_split_rows, rows)
        _assert_batch_invariant(_conditional_rows, rows)
        _assert_batch_invariant(_conditional_rows, rows, 2.0)
        _assert_batch_invariant(_cond_chain, rows)
        for q in (0.5, 2.0, 3.0):
            _assert_batch_invariant(_tsallis_chain_columns, rows, q, 1e-9)

    @pytest.mark.parametrize("dim", [5, 7, 9, 10, 11])
    def test_stacked_marginals_match_loop_oracle(self, dim):
        rows = _vectors(dim, 200 + dim)
        roles = {
            _subadd_columns: {"part1": (1,), "part2": (2,)},
            _strong_subadd_columns: {"pair12": (1, 2), "pair23": (2, 3), "part2": (2,)},
        }
        for kernel, factors in ((_subadd_columns, 2), (_strong_subadd_columns, 3)):
            for shape in admissible_shapes(dim, factors):
                padded = np.zeros((N, int(np.prod(shape))))
                padded[:, :dim] = rows
                entropies = kernel(rows, shape, 1e-9).entropies
                for k in range(N):
                    for role, keep in roles[kernel].items():
                        want = shannon_brute(marginal_brute(padded[k], shape, keep))
                        assert entropies[role][k] == pytest.approx(want, rel=1e-12, abs=1e-14)


def _table_shapes(dim: int) -> list[tuple[int, ...]]:
    return admissible_shapes(dim, 2) + admissible_shapes(dim, 3)


class TestQuantumKernels:
    @pytest.mark.parametrize("dim", [3, 4, 5, 7])
    def test_table_reports(self, dim):
        mats = _ginibre_batch(dim, dim)
        _assert_batch_invariant(_q_table_columns, mats, _table_shapes(dim), 1e-9)
        for shape in _table_shapes(dim):
            _assert_batch_invariant(_q_table_columns, mats, [shape], 1e-9)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 7, 8, 9])
    def test_table_columns_do_not_depend_on_the_shapes_taken_together(self, dim):
        mats = _ginibre_batch(dim, 90 + dim)
        together = _q_table_columns(mats, _table_shapes(dim), 1e-9)
        alone = [_q_table_columns(mats, [shape], 1e-9)[0] for shape in _table_shapes(dim)]
        assert _bits(together) == _bits(alone)

    @pytest.mark.parametrize("dim", [3, 4, 5, 7])
    def test_table_columns_match_loop_oracle(self, dim):
        def entropy(mat):
            return shannon_brute(np.clip(np.linalg.eigvalsh(mat), 0.0, None))

        roles = {
            2: {"part1": (1,), "part2": (2,)},
            3: {"pair12": (1, 2), "pair23": (2, 3), "part2": (2,)},
        }
        mats = _ginibre_batch(dim, 110 + dim)
        shapes = _table_shapes(dim)
        for shape, columns in zip(shapes, _q_table_columns(mats, shapes, 1e-9)):
            k = len(shape)
            prefix = "q-subadd-" if k == 2 else "q-strong-subadd-"
            assert columns.name == prefix + "x".join(map(str, shape))
            for i in range(N):
                want = {"joint": entropy(mats[i])}
                want.update(
                    (role, entropy(reduce_brute(mats[i], shape, kept)))
                    for role, kept in roles[k].items()
                )
                got = {role: float(column[i]) for role, column in columns.entropies.items()}
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12), (shape, i)
                if k == 2:
                    lhs, rhs = want["joint"], want["part1"] + want["part2"]
                else:
                    lhs, rhs = want["joint"] + want["part2"], want["pair12"] + want["pair23"]
                assert columns.lhs[i] == pytest.approx(lhs, rel=1e-12, abs=1e-12)
                assert columns.rhs[i] == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4, 6])
    def test_concatenated_stacks_match_separate_calls(self, dim):
        # the table kernel's grouping by matrix size rests on this
        rng = np.random.default_rng(dim)
        full = _ginibre_batch(dim, 120 + dim)

        def of_rank(r, n):
            g = rng.standard_normal((n, dim, r)) + 1j * rng.standard_normal((n, dim, r))
            m = g @ np.swapaxes(g.conj(), 1, 2)
            return m / np.trace(m, axis1=1, axis2=2).real[:, None, None]

        low = np.concatenate([of_rank(r, 2) for r in range(1, dim)] + [full[5:]])
        for a, b in ((full, low), (low, full), (low[:1], full[:3])):
            together = _entropy_rows(np.concatenate([a, b]))
            assert _bits(together) == _bits(np.concatenate([_entropy_rows(a), _entropy_rows(b)]))

    @pytest.mark.parametrize("dim, sizes", [(3, 3), (4, 2), (5, 4), (7, 3)])
    def test_one_spectral_pass_per_matrix_size(self, dim, sizes, monkeypatch):
        # dim 5 takes spectra of sizes 5 (joint), 2 and 3 (its 2x3 and 3x2
        # parts) and 4 (its 2x2x2 pairs); the quantum suite's mixed-state
        # job adds sizes 4 and 2
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        _q_table_columns(_ginibre_batch(dim, dim), _table_shapes(dim), 1e-9)
        assert len(calls) == sizes, calls
        calls.clear()
        report = cli.run_suite(cli.SuiteConfig(suite="quantum", dims=[dim], trials=5, seed=1))
        assert report["all_passed"]
        assert len(calls) == sizes + 2, calls

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 7, 8])
    def test_spectra_and_entropies(self, dim):
        mats = _ginibre_batch(dim, 10 + dim)
        _assert_batch_invariant(_spectra, mats)
        _assert_batch_invariant(_entropy_rows, mats)

    @pytest.mark.parametrize(
        "dim, factors, kept",
        [
            (4, (2, 2), (1,)),
            (4, (2, 2), (2,)),
            (5, (2, 3), (1,)),
            (5, (3, 2), (2,)),
            (7, (2, 4), (2,)),
            (5, (2, 2, 2), (1, 2)),
            (7, (2, 2, 2), (2, 3)),
            (7, (2, 2, 2), (2,)),
        ],
    )
    def test_stacked_reductions_match_loop_oracle(self, dim, factors, kept):
        mats = _ginibre_batch(dim, 20 + dim)
        _assert_batch_invariant(_reduce_rows, mats, factors, kept)
        got = _reduce_rows(mats, factors, kept)
        for k in range(N):
            want = reduce_brute(mats[k], factors, kept)
            np.testing.assert_allclose(got[k], want, rtol=0, atol=1e-15)

    def test_a_row_below_the_floor_fails_the_batch_as_it_fails_alone(self):
        mats = _ginibre_batch(4, 30)
        bad = np.diag([0.5 + 2e-6, 0.5, -2e-6, 0.0]).astype(complex)
        mats[2] = bad
        mats[4] = np.diag([0.5 + 3e-6, 0.5, -3e-6, 0.0])  # worse, but later
        with pytest.raises(NotPositiveError) as alone:
            _entropy_rows(bad[None])
        with pytest.raises(NotPositiveError) as batch:
            _entropy_rows(mats)
        assert str(batch.value) == str(alone.value)
        with pytest.raises(NotPositiveError) as batch:
            _q_table_columns(mats, [(2, 2)], 1e-9)
        assert str(batch.value) == str(alone.value)

    def test_the_first_bad_reduction_in_check_order_is_named(self):
        # each diagonal state passes the floor; row 0's (3, 2) part2 and
        # row 1's (2, 3) part2 do not. The (2, 3) check runs first, so row
        # 1's is named, though the size-2 spectra are taken together.
        row0 = np.diag([0.4, -0.7e-8, 0.3, -0.7e-8, 0.3 + 1.4e-8])
        row1 = np.diag([-0.9e-8, 0.4, 0.3, -0.9e-8, 0.3 + 1.8e-8])
        mats = np.stack([row0, row1]).astype(complex)
        shapes = _table_shapes(5)
        assert shapes[:2] == [(2, 3), (3, 2)]
        with pytest.raises(NotPositiveError) as first:
            for shape in shapes:
                _q_table_columns(mats, [shape], 1e-9)
        assert "-1.800e-08" in str(first.value)
        with pytest.raises(NotPositiveError) as together:
            _q_table_columns(mats, shapes, 1e-9)
        assert str(together.value) == str(first.value)


class TestTomographyKernels:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_eigenbases_flag_degenerate_rows(self, dim):
        mats = _ginibre_batch(dim, 40 + dim)
        _assert_batch_invariant(_eigenbases, mats)
        _, degenerate = _eigenbases(mats)
        assert degenerate.tolist() == [k == 5 for k in range(N)]

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_readouts(self, dim):
        mats = _ginibre_batch(dim, 50 + dim)
        rng = np.random.default_rng(dim)
        us = np.stack([haar(dim, rng) for _ in range(N)])
        batch = _readouts(mats, us)
        for k in range(N):
            alone = _readouts(mats[k : k + 1], us[k : k + 1])
            assert _bits(batch[k]) == _bits(alone[0])
        _assert_batch_invariant(_subadd_columns, _vectors(4, 60), (2, 2), 1e-9)

    @pytest.mark.parametrize("dim", [3, 4])
    def test_discord_reports(self, dim):
        mats = _ginibre_batch(dim, 70 + dim)
        if dim == 3:
            # the padded mixed qutrit reduces to (2/3, 1/3) twice; this
            # qutrit reduces to (1/2, 1/2) twice
            mats[6] = np.diag([0.0, 0.5, 0.5])
        _assert_batch_invariant(_discord_columns, mats, 1e-9)
        (nonneg, upper, lower), states = _discord_columns(mats, 1e-9)
        prefix = "qutrit-" if dim == 3 else ""
        assert [nonneg.name, upper.name, lower.name] == [
            f"{prefix}discord-nonneg",
            f"{prefix}chain-upper",
            f"{prefix}chain-lower",
        ]
        reports = [_discord_report(nonneg, k, states[k]) for k in range(N)]
        for k, rep in enumerate(reports):
            assert _bits(rep.chain) == _bits(
                [float(upper.gaps()[k]), float(lower.gaps()[k]), rep.s1 + rep.s2 - rep.s]
            ), k
        flags = [rep.flags for rep in reports]
        padded = ("padded-qutrit",) if dim == 3 else ()
        # only that row has degenerate reductions; the diagonal state's
        # reductions do not
        degenerate = 5 if dim == 4 else 6
        both = ("degenerate-reduction-1", "degenerate-reduction-2")
        assert flags == [padded + (both if k == degenerate else ()) for k in range(N)]


    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_readout_min_columns(self, dim):
        # each state gets its own search seed, so rows are split by hand
        mats = _ginibre_batch(dim, 80 + dim)
        seeds = [2**62 + 3 * k for k in range(N)]
        batch = _readout_min_columns(mats, seeds, 1e-9)
        for k in range(N):
            alone = _readout_min_columns(mats[k : k + 1], seeds[k : k + 1], 1e-9)
            assert _bits(_rows_of(batch, k)) == _bits(_rows_of(alone, 0)), k
            for got, want in zip(batch, alone):
                assert _bits({r: c[k] for r, c in got.counts.items()}) == _bits(
                    {r: c[0] for r, c in want.counts.items()}
                ), k

        # the columns are the public per-state results
        above, close = batch
        for k, seed in enumerate(seeds):
            rho = DensityMatrix(mats[k])
            s = float(von_neumann(rho))
            h = float(minimize_tomographic_entropy(rho, seed=seed)[1])
            found = minimize_entropy_batch([rho], seeds=[seed])
            assert _bits([above.lhs[k], above.rhs[k], close.lhs[k]]) == _bits([s, h, h - s]), k
            assert above.counts["nfev"][k] == found.nfev[0], k
            assert above.counts["unconverged"][k] == (not found.converged[0]), k
            assert -1e-9 <= h - s <= 1e-6, k


class TestChunkedSuite:
    """A suite runs each job's checks over fixed-size chunks of its draws."""

    def _peak(self, trials: int) -> int:
        config = cli.SuiteConfig(suite="quantum", trials=trials, seed=3)
        tracemalloc.start()
        try:
            cli.run_suite(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_a_readout_min_job_is_one_chunk(self):
        # its capped draws and an input state; one batched search is cheaper
        # than several smaller ones
        assert cli._CHUNK >= cli._MINIMIZER_CAP + 1

    def test_peak_memory_does_not_grow_with_trials(self):
        cli.run_suite(cli.SuiteConfig(suite="quantum", trials=2, seed=3))  # warm caches
        one_chunk = self._peak(cli._CHUNK)
        eight_chunks = self._peak(8 * cli._CHUNK)
        assert eight_chunks <= 1.5 * one_chunk, (one_chunk, eight_chunks)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_report_matches_per_state_public_calls(self, offset):
        config = cli.SuiteConfig(suite="quantum", trials=cli._CHUNK + offset, seed=11)
        rows = {row["id"]: row for row in cli.run_suite(config)["checks"]}

        gaps: dict[str, list[float]] = {}
        for job in cli._jobs(config, None):
            if job.checks is cli._mixed_equality:
                states = [np.eye(job.dim, dtype=complex) / job.dim]
            else:
                states = job_draws("ginibre", job.dim, config.seed, job.tag, STATES, job.trials)
            for trial, state in enumerate(states):
                rho, prov = DensityMatrix(state), f"trial {trial}"
                if job.checks is cli._mixed_equality:
                    rep = quantum_subadditivity(rho, (2, 2), config.tolerance, prov)
                    gaps.setdefault("q-subadd-mixed-equality", []).append(-abs(rep.lhs - rep.rhs))
                    continue
                reps = [
                    quantum_subadditivity(rho, s, config.tolerance, prov)
                    for s in admissible_shapes(rho.dim, 2)
                ]
                reps += [
                    quantum_strong_subadditivity(rho, s, config.tolerance, prov)
                    for s in admissible_shapes(rho.dim, 3)
                ]
                for rep in reps:
                    gaps.setdefault(f"dim{rho.dim}-{rep.name}", []).append(rep.gap)

        assert list(rows) == list(gaps)
        for name, values in gaps.items():
            total = 0.0
            for g in values:
                total += g
            want = {
                "id": name,
                "count": len(values),
                "failures": 0,
                "min_gap": min(values),
                "max_gap": max(values),
                "mean_gap": total / len(values),
            }
            assert _bits(rows[name]) == _bits(want), name

    @pytest.mark.parametrize(
        "suite, trials, check, fields",
        [
            ("quantum", 1, "q-subadd-mixed-equality", ("min_gap", "max_gap")),
            ("classical", 5, "cond-chain-identity", ("max_gap",)),
        ],
    )
    def test_signed_zero_gaps_stay_signed(self, suite, trials, check, fields):
        # the first of equal extremes is kept, so an identity met exactly
        # reports -0.0, not 0.0
        report = cli.run_suite(cli.SuiteConfig(suite=suite, trials=trials, seed=0))
        [row] = [row for row in report["checks"] if row["id"] == check]
        for name in fields:
            assert row[name] == 0.0 and math.copysign(1.0, row[name]) == -1.0, name

    def test_a_passing_suite_builds_no_per_instance_object(self, monkeypatch):
        built: list[str] = []
        for cls in (InequalityReport, DiscordReport, ProbVec, DensityMatrix):
            init = cls.__init__

            def counted(self, *args, _init=init, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        for suite in ("classical", "quantum", "discord"):
            report = cli.run_suite(cli.SuiteConfig(suite=suite, trials=cli._CHUNK + 1, seed=5))
            assert report["all_passed"]
        assert built == []
        # a failing instance does get its report: the count is not vacuous
        monkeypatch.setattr(cli, "IDENTITY_TOLERANCE", -1.0)
        report = cli.run_suite(cli.SuiteConfig(suite="classical", trials=3, seed=5))
        assert built == ["InequalityReport"] * len(report["failing_instances"]) != []
