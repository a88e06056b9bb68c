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
import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from entrobox import (
    InequalityReport,
    ProbVec,
    cli,
    discord,
    qstate,
    simplex,
    tomography,
    minimize_entropy_batch,
    minimize_tomographic_entropy,
    quantum_strong_subadditivity,
    quantum_subadditivity,
    strong_subadditivity_gap,
    subadditivity_gap,
    von_neumann,
)
from entrobox.errors import BadAngleError, NotPositiveError
from entrobox.ensembles import diagonal_density, dirichlet, ginibre, haar
from entrobox.qstate import (
    DensityMatrix,
    _entropy_rows,
    _entropy_rows_by_size,
    _q_table_block,
    _q_table_columns,
    _reduce_rows,
    _spectra,
)
from entrobox.report import CheckColumns
from entrobox.simplex import (
    _block_rows,
    _chain_block,
    _shannon_rows,
    _split_rows,
    _step_plan,
    _table_columns,
    _tsallis_chain_columns,
    _tsallis_rows,
    _zero_padded,
    admissible_shapes,
    conditional_entropy,
    conditional_tsallis,
)
from entrobox.tomography import (
    DiscordReport,
    _axis_columns,
    _discord_block,
    _discord_report,
    _eigenbases,
    _readout_bound_columns,
    _readout_min_columns,
    _readouts,
    spin_tomogram_axis,
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


def _counted(calls: dict, name: str, fn):
    """``fn``, counting each call in ``calls[name]``."""

    def wrapper(*args):
        calls[name] += 1
        return fn(*args)

    return wrapper


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


def _table_shapes(dim: int) -> list[tuple[int, ...]]:
    return admissible_shapes(dim, 2) + admissible_shapes(dim, 3)


def _q_table_stacks(stacks, tolerance: float) -> list[list[CheckColumns]]:
    """The quantum table checks of each (matrices, readings) pair of
    ``stacks``, as columns, from one :func:`_q_table_block` call."""
    specs = tuple((mats.shape[1], tuple(readings), "") for mats, readings in stacks)
    block = _q_table_block([mats for mats, _ in stacks], _step_plan(specs, True), tolerance)
    checks = block.all_columns()
    return [[c for c, j in zip(checks, block.stacks) if j == k] for k in range(len(stacks))]


def _chain_columns(rows: np.ndarray, q_values, tolerance: float) -> list[CheckColumns]:
    """Every check of :func:`_chain_block`, as columns."""
    return _chain_block(rows, q_values, tolerance).all_columns()


def _discord_columns(stacks: list[np.ndarray], tolerance: float):
    """Each stack's three discord checks, as columns, and its states as
    read, from one :func:`_discord_block` call."""
    block, read = _discord_block(stacks, tolerance)
    checks = block.all_columns()
    return [(tuple(checks[3 * j : 3 * j + 3]), states) for j, states in enumerate(read)]


def _discord(mats: np.ndarray, tolerance: float):
    """:func:`_discord_columns` of one stack."""
    [out] = _discord_columns([mats], tolerance)
    return out


def _row(name: str, gaps: list[float]) -> dict:
    """The report row of a passing check whose gaps in draw order are
    ``gaps``, as rows taken one at a time build it."""
    total = 0.0
    for g in gaps:
        total += g
    return {
        "id": name,
        "count": len(gaps),
        "failures": 0,
        "min_gap": min(gaps),
        "max_gap": max(gaps),
        "mean_gap": total / len(gaps),
    }


def _middle_gap(p: ProbVec, tolerance: float) -> float:
    """The gap of ``subadd-7-middle`` from public calls: the parts of the
    2 x 4 reading of the vector with its first two binary digits swapped,
    against H(p) summed over the vector as drawn."""
    cube = np.append(p.values, 0.0).reshape(2, 2, 2).transpose(1, 0, 2)
    swapped = subadditivity_gap(ProbVec(cube.reshape(8)), (2, 4), tolerance)
    return swapped.rhs - strong_subadditivity_gap(p, (2, 2, 2)).entropies["joint"]


def _calls(monkeypatch, *names: str) -> dict[str, list]:
    """The shapes passed to each of the ``np.linalg`` functions ``names``,
    recorded call by call from now on."""
    calls: dict[str, list] = {name: [] for name in names}
    for name in names:
        fn = getattr(np.linalg, name)

        def counted(a, *args, _fn=fn, _name=name, **kwargs):
            calls[_name].append(np.shape(a))
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestSimplexKernels:
    @pytest.mark.parametrize("dim", [4, 5, 7, 8, 9, 10, 11])
    def test_table_reports(self, dim):
        rows = _vectors(dim, dim)
        _assert_batch_invariant(_table_columns, rows, _table_shapes(dim), 1e-9)
        for shape in _table_shapes(dim):
            _assert_batch_invariant(_table_columns, rows, [shape], 1e-9)

    # the 2- and 3-factor padded sizes differ at 4, 5, 9 and 10, and agree
    # at 7 (8) and 11 (12)
    @pytest.mark.parametrize("dim", [4, 5, 7, 9, 10, 11])
    def test_table_columns_do_not_depend_on_the_shapes_taken_together(self, dim):
        rows = _vectors(dim, 90 + dim)
        shapes = _table_shapes(dim)
        together = _table_columns(rows, shapes, 1e-9)
        alone = [_table_columns(rows, [shape], 1e-9)[0] for shape in shapes]
        assert _bits(together) == _bits(alone)
        # the joint entropy is that of the zero-padded stack, whose sum runs
        # over the padded length
        for shape, columns in zip(shapes, together):
            padded = _shannon_rows(_zero_padded(rows, math.prod(shape)))
            assert _bits(columns.entropies["joint"]) == _bits(padded)

    @pytest.mark.parametrize("dim", [4, 5, 7, 9, 11, 12])
    def test_one_gather_and_one_entropy_pass_per_call(self, dim, monkeypatch):
        # every shape's joint table and marginals, whatever the number of
        # shapes
        calls = {"gather": 0, "entropy": 0}
        monkeypatch.setattr(simplex, "_cells", _counted(calls, "gather", simplex._cells))
        monkeypatch.setattr(
            simplex, "_shannon_rows", _counted(calls, "entropy", simplex._shannon_rows)
        )
        for shapes in (_table_shapes(dim), _table_shapes(dim)[:1]):
            calls.update(gather=0, entropy=0)
            _table_columns(_vectors(dim, dim), shapes, 1e-9)
            assert calls == {"gather": 1, "entropy": 1}, (shapes, calls)

    def test_zero_padding_and_a_read_only_stack(self):
        rows = _vectors(8, 8)
        padded = _zero_padded(rows[:, :7], 8)
        assert padded is not rows and np.array_equal(padded[:, :7], rows[:, :7])
        assert not padded[:, 7].any()
        # the table kernel only reads the stack it is given
        rows.flags.writeable = False
        _table_columns(rows, _table_shapes(8), 1e-9)

    def test_one_padding_per_seven_vector_chunk(self, monkeypatch):
        # all three checks from one gather of the chunk's own rows, whose
        # zero slot is the one padding, and one entropy pass: no padded or
        # permuted copy of the chunk
        rows = _vectors(7, 77)
        gathered, calls = [], {"entropy": 0}

        def gather(flat, plan, cells=simplex._cells):
            gathered.append(flat)
            return cells(flat, plan)

        monkeypatch.setattr(simplex, "_cells", gather)
        monkeypatch.setattr(
            simplex, "_shannon_rows", _counted(calls, "entropy", simplex._shannon_rows)
        )
        chunk = SimpleNamespace(rows=rows, provenance=None)
        [(block, _)] = cli._seven_checks([chunk], SimpleNamespace(tolerance=1e-9))
        checks = block.all_columns()
        assert len(gathered) == 1 and gathered[0] is rows and calls["entropy"] == 1, calls
        monkeypatch.undo()
        strong, adjacent, middle = checks
        assert [c.name for c in checks] == [
            "strong-subadd-7", "subadd-7-adjacent", "subadd-7-middle"
        ]
        unpadded = _table_columns(rows, [(2, 2, 2), (2, 4)], 1e-9)
        assert _bits([strong._replace(name=""), adjacent._replace(name="")]) == _bits(
            [c._replace(name="") for c in unpadded]
        )
        # the middle reading is the (2, 4) reading of the vector with its
        # first two binary digits swapped
        for i, p in enumerate(rows):
            cube = np.append(p, 0.0).reshape(2, 2, 2).transpose(1, 0, 2)
            want = subadditivity_gap(ProbVec(cube.reshape(8)), (2, 4), 1e-9)
            got = middle.report(i)
            assert got.entropies.keys() == want.entropies.keys()
            for a, b in [(got.gap, want.gap), (got.lhs, want.lhs), (got.rhs, want.rhs)] + [
                (got.entropies[role], want.entropies[role]) for role in want.entropies
            ]:
                assert abs(a - b) <= 1e-15, (i, got, want)

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
        for q_values in ((), (0.5, 2.0, 3.0), (1.0,)):
            _assert_batch_invariant(_chain_columns, rows, q_values, 1e-9)

        def tsallis_chain(stack, q):
            return _tsallis_chain_columns(stack, q, 1e-9, _block_rows(stack))

        # q = 1 is the Shannon conditional entropy, in the chain's
        # ``conditional`` column
        for q in (1.0, 0.5, 2.0, 3.0):
            _assert_batch_invariant(tsallis_chain, rows, q)
            conditional = tsallis_chain(rows, q).entropies["conditional"]
            alone = [conditional_tsallis(ProbVec(p), q).value for p in rows]
            assert _bits(conditional) == _bits(np.array(alone)), q

    def test_chain_columns_reuse_the_table_entropies(self):
        # H(p) and H(b) are the 2 x 2 table's joint and part1 entropies,
        # bitwise what the Shannon kernel gives them alone; with no Tsallis
        # order, neither the chain bounds nor the limit row is taken
        rows = _vectors(4, 41)
        rows[5] = [0.0, 0.0, 0.4, 0.6]
        rows[6] = [0.3, 0.7, 0.0, 0.0]
        q_values = (0.5, 1.0, 2.0)
        checks = _chain_columns(rows, q_values, 1e-9)
        assert [c.name for c in checks] == [
            "subadd-2x2", "cond-chain-identity", "tsallis-chain-q0.5", "tsallis-chain-q1",
            "tsallis-chain-q2", "tsallis-shannon-limit",
        ]
        table, chain, *_ = checks
        assert _bits(table) == _bits(_table_columns(rows, [(2, 2)], 1e-9)[0])
        assert _bits(table.entropies["joint"]) == _bits(_shannon_rows(rows))
        alone = [conditional_entropy(ProbVec(p)).value for p in rows]
        assert _bits(chain.rhs) == _bits(np.array(alone))
        for q, columns in zip(q_values, checks[2:]):
            assert _bits(columns) == _bits(_tsallis_chain_columns(rows, q, 1e-9, _block_rows(rows)))
        assert _bits(_chain_columns(rows, (), 1e-9)) == _bits(checks[:2])

    def test_one_table_pass_and_one_block_split_per_four_vector_chunk(self, monkeypatch):
        # the table's gather and entropy pass, the halves' entropy pass and
        # one block split, whatever the number of Tsallis orders; each order
        # takes T_q(p) and T_q(b), and the Shannon limit two orders more
        calls = {"gather": 0, "entropy": 0, "blocks": 0, "tsallis": 0}
        for name, fn in (
            ("gather", "_cells"),
            ("entropy", "_shannon_rows"),
            ("blocks", "_block_rows"),
            ("tsallis", "_tsallis_rows"),
        ):
            monkeypatch.setattr(simplex, fn, _counted(calls, name, getattr(simplex, fn)))
        for q_values in ((0.5, 2.0, 3.0), (), (0.5, 1.5, 2.0, 2.5, 3.0)):
            calls.update(gather=0, entropy=0, blocks=0, tsallis=0)
            _chain_columns(_vectors(4, 42), q_values, 1e-9)
            tsallis = 2 * len(q_values) + 2 if q_values else 0
            want = {"gather": 1, "entropy": 2, "blocks": 1, "tsallis": tsallis}
            assert calls == want, (q_values, calls)

    @pytest.mark.parametrize("dim", [5, 7, 9, 10, 11])
    def test_stacked_marginals_match_loop_oracle(self, dim):
        rows = _vectors(dim, 200 + dim)
        roles = {
            2: {"part1": (1,), "part2": (2,)},
            3: {"pair12": (1, 2), "pair23": (2, 3), "part2": (2,)},
        }
        shapes = _table_shapes(dim)
        for shape, columns in zip(shapes, _table_columns(rows, shapes, 1e-9)):
            k = len(shape)
            prefix = "subadd-" if k == 2 else "strong-subadd-"
            assert columns.name == prefix + "x".join(map(str, shape))
            padded = np.zeros((N, int(np.prod(shape))))
            padded[:, :dim] = rows
            for i in range(N):
                want = {"joint": shannon_brute(padded[i])}
                want.update(
                    (role, shannon_brute(marginal_brute(padded[i], shape, keep)))
                    for role, keep in roles[k].items()
                )
                got = {role: float(column[i]) for role, column in columns.entropies.items()}
                assert got == pytest.approx(want, rel=1e-12, abs=1e-14), (shape, i)
                if k == 2:
                    lhs, rhs = want["joint"], want["part1"] + want["part2"]
                else:
                    lhs, rhs = want["joint"] + want["part2"], want["pair12"] + want["pair23"]
                assert columns.lhs[i] == pytest.approx(lhs, rel=1e-12, abs=1e-14)
                assert columns.rhs[i] == pytest.approx(rhs, rel=1e-12, abs=1e-14)

    def test_cells_wholly_in_the_padding_match_loop_oracle(self):
        # a 9-vector read at (2, 2, 3): pair12 cell 3 sums flat entries 9-11,
        # all of them padding, so it reads the zero slot (an empty per-cell
        # sum would read its start element instead of 0); each reduction is
        # taken alone and all of them together
        rows = _vectors(9, 209)
        shape = (2, 2, 3)
        padded = _zero_padded(rows, 12)
        together = [(shape, kept) for kept in ((1, 2), (2, 3), (2,))]
        for reductions in [together, *([r] for r in together)]:
            plan = simplex._cell_plan(9, reductions, False)
            cells = simplex._cells(rows, plan)
            for (_, kept), first, k in zip(reductions, plan.firsts, plan.dims):
                got = cells[:, first + 1 : first + 1 + k]
                for i in range(N):
                    want = marginal_brute(padded[i], shape, kept)
                    np.testing.assert_allclose(got[i], want, rtol=0, atol=1e-15)
                if kept == (1, 2):
                    assert _bits(got[:, 3]) == _bits(np.zeros(N))


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

    def test_a_size_with_one_stack_is_not_concatenated(self, monkeypatch):
        mats = _ginibre_batch(4, 44)
        halves = [_reduce_rows(mats, (2, 2), (k,)) for k in (1, 2)]
        want = [_entropy_rows(stack) for stack in (mats, *halves)]
        calls = []
        concatenate = np.concatenate

        def counted(parts, *args, **kwargs):
            calls.append(len(parts))
            return concatenate(parts, *args, **kwargs)

        monkeypatch.setattr(np, "concatenate", counted)
        assert _bits(_entropy_rows_by_size([mats, *halves])) == _bits(want)
        assert calls == [2]
        calls.clear()
        assert _bits(_entropy_rows_by_size([halves[0], mats])) == _bits([want[1], want[0]])
        assert calls == []

    @pytest.mark.parametrize("dim, sizes", [(3, 3), (4, 2), (5, 4), (7, 3)])
    def test_one_spectral_pass_per_matrix_size(self, dim, sizes, monkeypatch):
        # dim 5 takes spectra of sizes 5 (joint), 2 and 3 (its 2x3 and 3x2
        # parts) and 4 (its 2x2x2 pairs); in the quantum suite the mixed
        # state's sizes 4 and 2 join the table job's, which takes both
        calls = _calls(monkeypatch, "eigvalsh")["eigvalsh"]
        _q_table_columns(_ginibre_batch(dim, dim), _table_shapes(dim), 1e-9)
        assert len(calls) == sizes, calls
        calls.clear()
        report = cli.run_suite(cli.SuiteConfig(suite="quantum", dims=[dim], trials=5, seed=1))
        assert report["all_passed"]
        assert len(calls) == sizes, calls

    def test_stacks_taken_together_match_separate_calls(self, monkeypatch):
        # stacks of unequal lengths and dims, each with its own readings:
        # bitwise the checks of one call per stack, from one spectral pass
        # per matrix size over all of them (sizes 2, 3, 4, 5 and 7)
        stacks = [
            (_ginibre_batch(3, 301), _table_shapes(3)),
            (_ginibre_batch(7, 307)[:2], _table_shapes(7)),
            (_ginibre_batch(5, 305)[:1], _table_shapes(5)),
            (_ginibre_batch(4, 304)[3:], [(2, 2), ("subadd-middle", (2, 2, 2))]),
        ]
        alone = [_q_table_columns(mats, readings, 1e-9) for mats, readings in stacks]
        calls = _calls(monkeypatch, "eigvalsh")["eigvalsh"]
        together = _q_table_stacks(stacks, 1e-9)
        assert sorted(shape[1] for shape in calls) == [2, 3, 4, 5, 7], calls
        assert _bits(together) == _bits(alone)

    def test_unequal_stacks_of_one_size_are_sliced_back(self):
        mats = _ginibre_batch(4, 45)
        stacks = [mats[:2], _reduce_rows(mats, (2, 2), (1,)), mats[2:], mats[6:]]
        want = [_entropy_rows(stack) for stack in stacks]
        assert _bits(_entropy_rows_by_size(stacks)) == _bits(want)

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
            (7, (4, 2), (1,)),
            (5, (2, 2, 2), (2, 3)),
            (5, (2, 2, 2), (2,)),
        ],
    )
    def test_stacked_reductions_match_loop_oracle(self, dim, factors, kept):
        mats = _ginibre_batch(dim, 20 + dim)
        _assert_batch_invariant(_reduce_rows, mats, factors, kept)
        got = _reduce_rows(mats, factors, kept)
        for k in range(N):
            want = reduce_brute(mats[k], factors, kept)
            np.testing.assert_allclose(got[k], want, rtol=0, atol=1e-15)

    def test_cells_wholly_in_the_padding_match_loop_oracle(self):
        # a 5 x 5 state read at (2, 2, 2): pair12's row and column (1, 1)
        # sum rows and columns 6 and 7, all of them padding
        mats = _ginibre_batch(5, 25)
        got = _reduce_rows(mats, (2, 2, 2), (1, 2))
        for k in range(N):
            np.testing.assert_allclose(
                got[k], reduce_brute(mats[k], (2, 2, 2), (1, 2)), rtol=0, atol=1e-15
            )
        assert _bits(got[:, 3]) == _bits(np.zeros((N, 4), dtype=complex))
        assert _bits(got[:, :, 3]) == _bits(np.zeros((N, 4), dtype=complex))

    @pytest.mark.parametrize("dim", [3, 4, 5, 7])
    def test_one_gather_and_one_entropy_pass_per_call(self, dim, monkeypatch):
        # every reduction of every shape, whatever the number of shapes
        calls = {"gather": 0, "entropy": 0}
        monkeypatch.setattr(qstate, "_cells", _counted(calls, "gather", qstate._cells))
        monkeypatch.setattr(
            qstate,
            "_entropy_rows_by_size",
            _counted(calls, "entropy", qstate._entropy_rows_by_size),
        )
        for shapes in (_table_shapes(dim), _table_shapes(dim)[:1]):
            calls.update(gather=0, entropy=0)
            _q_table_columns(_ginibre_batch(dim, dim), shapes, 1e-9)
            assert calls == {"gather": 1, "entropy": 1}, (shapes, calls)
        # one gather per stack, one entropy pass for all of them
        calls.update(gather=0, entropy=0)
        _q_table_stacks([(_ginibre_batch(d, d), _table_shapes(d)) for d in (dim, 4, 3)], 1e-9)
        assert calls == {"gather": 3, "entropy": 1}, calls

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
        # across stacks, the first bad matrix of the stack-by-stack loop
        for order in ([0, 1], [1, 0]):
            stacks = [(mats[k : k + 1], shapes) for k in order]
            with pytest.raises(NotPositiveError) as loop:
                for stack in stacks:
                    _q_table_stacks([stack], 1e-9)
            with pytest.raises(NotPositiveError) as together:
                _q_table_stacks(stacks, 1e-9)
            assert str(together.value) == str(loop.value), order


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
        _assert_batch_invariant(_table_columns, _vectors(4, 60), [(2, 2)], 1e-9)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_readout_bound_columns(self, dim):
        mats = _ginibre_batch(dim, 55 + dim)
        rng = np.random.default_rng(dim)
        us = np.stack([haar(dim, rng) for _ in range(N)])
        batch = _readout_bound_columns(mats, us, 1e-9)
        for k in range(N):
            alone = _readout_bound_columns(mats[k : k + 1], us[k : k + 1], 1e-9)
            assert _bits(batch.report(k)) == _bits(alone.report(0)), k
        assert _bits(batch.entropies) == _bits(
            {"readout": _shannon_rows(_readouts(mats, us)), "von_neumann": _entropy_rows(mats)}
        )

    def _axes(self, n: int, seed: int) -> list[tuple[float, float]]:
        # the suite's draw, with the axes at the ends of the ranges
        rng = np.random.default_rng(seed)
        draws = rng.uniform((-1.0, 0.0), (1.0, 2.0 * math.pi), (n, 2)).tolist()
        ends = [(0.0, 0.0), (math.pi, 0.0), (math.pi / 2, math.pi)]
        return ends + [(math.acos(z), phi) for z, phi in draws[3:]]

    def test_axis_columns(self):
        mats = _ginibre_batch(4, 65)
        axes = self._axes(N, 65)
        batch = _axis_columns(mats, axes, 1e-9)
        assert [c.name for c in batch] == ["axis-subadd", "axis-cond-chain"]
        for k in range(N):
            alone = _axis_columns(mats[k : k + 1], axes[k : k + 1], 1e-9)
            assert _bits(_rows_of(batch, k)) == _bits(_rows_of(alone, 0)), k
            # the stacked rotations are the public per-state readouts
            w = spin_tomogram_axis(DensityMatrix(mats[k]), *axes[k]).probabilities
            public = subadditivity_gap(w, (2, 2), 1e-9)
            assert _bits(batch[0].report(k)) == _bits(dataclasses.replace(public, name="axis-subadd"))

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_stacked_rotations_are_the_rotations_alone(self, dim):
        axes = self._axes(200, dim)
        stacked = tomography._axis_unitaries(dim, axes)
        for k, axis in enumerate(axes):
            assert _bits(stacked[k]) == _bits(tomography._axis_unitaries(dim, [axis])[0]), k

    def test_a_bad_axis_fails_a_stack_as_it_fails_alone(self):
        # the first bad axis in stack order is named, its theta before its phi
        axes = [(1.0, 0.5), (0.5, 7.0), (-0.1, 1.0)]
        with pytest.raises(BadAngleError) as alone:
            tomography._axis_unitaries(4, axes[1:2])
        with pytest.raises(BadAngleError) as stack:
            tomography._axis_unitaries(4, axes)
        assert str(stack.value) == str(alone.value) == "phi must lie in [0, 2 pi), got 7.0"

    @pytest.mark.parametrize("dim", [3, 4])
    def test_discord_reports(self, dim):
        mats = _ginibre_batch(dim, 70 + dim)
        if dim == 3:
            # the padded mixed qutrit reduces to (2/3, 1/3) twice; this
            # qutrit reduces to (1/2, 1/2) twice
            mats[6] = np.diag([0.0, 0.5, 0.5])
        _assert_batch_invariant(_discord, mats, 1e-9)
        (nonneg, upper, lower), states = _discord(mats, 1e-9)
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


    def test_discord_stacks_taken_together_match_separate_calls(self, monkeypatch):
        # 4 x 4 and qutrit stacks of unequal lengths, each with its own ids
        # and flags, from one eigenbasis pass and two entropy passes
        stacks = [_ginibre_batch(4, 74), _ginibre_batch(3, 73)[:3], _ginibre_batch(4, 75)[5:6]]
        alone = [_discord(mats, 1e-9) for mats in stacks]
        calls = _calls(monkeypatch, "eigh", "eigvalsh")
        together = _discord_columns(stacks, 1e-9)
        assert {name: len(shapes) for name, shapes in calls.items()} == {"eigh": 1, "eigvalsh": 2}
        assert _bits(together) == _bits(alone)
        assert [checks[0].name for checks, _ in together] == [
            "discord-nonneg", "qutrit-discord-nonneg", "discord-nonneg"
        ]

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

    def _peak(self, suite: str, trials: int) -> int:
        config = cli.SuiteConfig(suite=suite, trials=trials, seed=3)
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

    @pytest.mark.parametrize("suite", ["quantum", "discord"])
    def test_peak_memory_does_not_grow_with_trials(self, suite):
        # a step holds one chunk of each job
        cli.run_suite(cli.SuiteConfig(suite=suite, trials=2, seed=3))  # warm caches
        one_chunk = self._peak(suite, cli._CHUNK)
        eight_chunks = self._peak(suite, 8 * cli._CHUNK)
        assert eight_chunks <= 1.5 * one_chunk, (one_chunk, eight_chunks)

    @pytest.mark.parametrize(
        "suite, passes",
        [
            # the table sizes 2, 3, 4, 5 and 7 of all four dims and of the
            # maximally mixed state, one pass each
            ("quantum", {"eigh": 0, "eigvalsh": 5}),
            # the three jobs' reductions, their states and their reductions
            ("discord", {"eigh": 1, "eigvalsh": 2}),
        ],
    )
    def test_one_kernel_pass_per_step(self, suite, passes, monkeypatch):
        calls = _calls(monkeypatch, "eigh", "eigvalsh")
        report = cli.run_suite(cli.SuiteConfig(suite=suite, trials=5, seed=1))
        assert report["all_passed"]
        assert {name: len(shapes) for name, shapes in calls.items()} == passes, calls

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_report_matches_per_state_public_calls(self, offset):
        config = cli.SuiteConfig(suite="quantum", trials=cli._CHUNK + offset, seed=11)
        rows = {row["id"]: row for row in cli.run_suite(config)["checks"]}

        gaps: dict[str, list[float]] = {}
        for job in cli._jobs(config, None):
            if job.sampler is cli._MIXED:
                states = [np.eye(job.dim, dtype=complex) / job.dim]
            else:
                states = job_draws("ginibre", job.dim, config.seed, job.tag, STATES, job.trials)
            for trial, state in enumerate(states):
                rho, prov = DensityMatrix(state), f"trial {trial}"
                if job.sampler is cli._MIXED:
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
            assert _bits(rows[name]) == _bits(_row(name, values)), name

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_classical_report_matches_per_state_public_calls(self, offset):
        # every table row, bitwise, in draw order: a check of the step's one
        # gap block that read another job's rows, or rows off by one, fails
        config = cli.SuiteConfig(suite="classical", trials=cli._CHUNK + offset, seed=17)
        rows = {row["id"]: row for row in cli.run_suite(config)["checks"]}
        tol = config.tolerance

        gaps: dict[str, list[float]] = {}
        for job in cli._jobs(config, None):
            if job.checks is cli._four_checks:
                continue
            for state in job_draws("dirichlet", job.dim, config.seed, job.tag, STATES, job.trials):
                p = ProbVec(state)
                if job.checks is cli._seven_checks:
                    found = {
                        "strong-subadd-7": strong_subadditivity_gap(p, (2, 2, 2), tol).gap,
                        "subadd-7-adjacent": subadditivity_gap(p, (2, 4), tol).gap,
                        "subadd-7-middle": _middle_gap(p, tol),
                    }
                else:
                    reps = [subadditivity_gap(p, s, tol) for s in admissible_shapes(p.dim, 2)]
                    reps += [
                        strong_subadditivity_gap(p, s, tol) for s in admissible_shapes(p.dim, 3)
                    ]
                    found = {f"dim{p.dim}-{rep.name}": rep.gap for rep in reps}
                for name, gap in found.items():
                    gaps.setdefault(name, []).append(gap)

        assert [name for name in rows if name in gaps] == list(gaps)
        assert len(gaps) == len(rows) - 6  # all but the 4-vector chain rows
        for name, values in gaps.items():
            assert _bits(rows[name]) == _bits(_row(name, values)), name

    def test_a_ragged_step_matches_per_state_public_calls(self, tmp_path):
        # a maximally mixed 4 x 4 input joins the dim-4 table job, so step 1
        # holds 2 rows of that job and 1 of each other
        path = tmp_path / "mixed4.json"
        path.write_text(json.dumps({"dim": 4, "re": (np.eye(4) / 4).tolist()}))
        config = cli.SuiteConfig(
            suite="quantum", trials=cli._CHUNK + 1, seed=19, input_path=str(path)
        )
        rows = {row["id"]: row for row in cli.run_suite(config)["checks"]}

        gaps: dict[str, list[float]] = {}
        mixed = np.eye(4, dtype=complex) / 4
        for job in cli._jobs(config, DensityMatrix(mixed)):
            if job.sampler is cli._MIXED:
                rep = quantum_subadditivity(DensityMatrix(mixed), (2, 2), config.tolerance)
                gaps["q-subadd-mixed-equality"] = [-abs(rep.lhs - rep.rhs)]
                continue
            states = job_draws("ginibre", job.dim, config.seed, job.tag, STATES, job.trials)
            for state in [mixed] * (job.dim == 4) + states:
                rho = DensityMatrix(state)
                reps = [
                    quantum_subadditivity(rho, s, config.tolerance)
                    for s in admissible_shapes(rho.dim, 2)
                ]
                reps += [
                    quantum_strong_subadditivity(rho, s, config.tolerance)
                    for s in admissible_shapes(rho.dim, 3)
                ]
                for rep in reps:
                    gaps.setdefault(f"dim{rho.dim}-{rep.name}", []).append(rep.gap)

        assert list(rows) == list(gaps)
        assert rows["dim4-q-subadd-2x2"]["count"] == cli._CHUNK + 2
        assert rows["dim3-q-subadd-2x2"]["count"] == cli._CHUNK + 1
        for name, values in gaps.items():
            assert _bits(rows[name]) == _bits(_row(name, values)), name

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_discord_report_matches_per_state_public_calls(self, offset, monkeypatch):
        # every row of every check, bitwise, in draw order: a job's slice of
        # the stacked kernel that is off by one row fails
        config = cli.SuiteConfig(suite="discord", trials=cli._CHUNK + offset, seed=13)
        seen: dict[str, list[float]] = {}
        add = cli._Agg.add

        def recorded(agg, parts):
            for block, _ in parts:
                for name, gaps, n in zip(block.names, block.gaps, block.rows):
                    seen.setdefault(name, []).extend(gaps[:n].tolist())
            add(agg, parts)

        monkeypatch.setattr(cli._Agg, "add", recorded)
        rows = {row["id"]: row for row in cli.run_suite(config)["checks"]}

        gaps: dict[str, list[float]] = {}
        for job in cli._jobs(config, None):
            kind = "diagonal" if job.sampler is cli._DIAGONAL else "ginibre"
            for state in job_draws(kind, job.dim, config.seed, job.tag, STATES, job.trials):
                rep = discord(DensityMatrix(state))
                if kind == "diagonal":
                    gaps.setdefault("discord-diagonal-zero", []).append(-abs(rep.discord - 0.0))
                    continue
                prefix = "qutrit-" if job.dim == 3 else ""
                for name, gap in (
                    ("discord-nonneg", rep.discord - 0.0),
                    ("chain-upper", rep.chain[0]),
                    ("chain-lower", rep.chain[1]),
                ):
                    gaps.setdefault(prefix + name, []).append(gap)

        assert list(rows) == list(gaps) == list(seen)
        for name, values in gaps.items():
            assert _bits(seen[name]) == _bits(values), name
            assert _bits(rows[name]) == _bits(_row(name, values)), name

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

    def test_a_passing_request_builds_no_columns_per_check(self, monkeypatch):
        # one gap block per kernel call, each check's columns built only for
        # a failing row: at most one CheckColumns per call, not one per check
        built: list[str] = []
        new = CheckColumns.__new__

        def counted(cls, *args, **kwargs):
            built.append(args[0] if args else kwargs["name"])
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(CheckColumns, "__new__", counted)
        report = cli.run_suite(cli.SuiteConfig(suite="classical", trials=5, seed=0))
        assert report["all_passed"] and len(report["checks"]) == 46
        # three kernel calls: the 7-vector job's, the 4-vector job's and the
        # table jobs' one between them
        assert len(built) <= 3, built
        # a failing row does get its check's columns: the count is not vacuous
        monkeypatch.setattr(simplex, "IDENTITY_TOLERANCE", -1.0)
        report = cli.run_suite(cli.SuiteConfig(suite="classical", trials=5, seed=0))
        assert "cond-chain-identity" in built

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
        monkeypatch.setattr(simplex, "IDENTITY_TOLERANCE", -1.0)
        report = cli.run_suite(cli.SuiteConfig(suite="classical", trials=3, seed=5))
        assert built == ["InequalityReport"] * len(report["failing_instances"]) != []
