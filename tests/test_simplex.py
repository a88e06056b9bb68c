"""Tests for probability vectors, tables, marginals, and the classical
entropy identities and inequalities."""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from entrobox import (
    BadAxisError,
    BadOrderError,
    NegativeProbabilityError,
    ProbabilitySumError,
    ProbVec,
    ShapeMismatchError,
    ShrinkForbiddenError,
    admissible_shapes,
    conditional_entropy,
    conditional_pair,
    conditional_tsallis,
    marginal2,
    marginal3,
    minimal_padded_dim,
    normalized_prob_vec,
    pad,
    reshape,
    shannon,
    strong_subadditivity_gap,
    subadditivity_gap,
    tsallis,
    tsallis_monotonicity_check,
    validate_prob_vec,
)
from entrobox.ensembles import dirichlet
from entrobox.simplex import _shannon_rows, _step_plan, _table_block

from _explicit import (
    admissible_shapes_brute,
    conditional_entropy_brute,
    marginal_brute,
    shannon_brute,
    tsallis_brute,
)

LN2 = math.log(2.0)


def random_vecs(dim: int, count: int, seed: int = 0) -> list[ProbVec]:
    rng = np.random.default_rng(seed)
    return [ProbVec(dirichlet(dim, rng)) for _ in range(count)]


class TestValidation:
    def test_accepts_and_renormalizes(self):
        p = validate_prob_vec([0.5, 0.25, 0.125, 0.125])
        assert p.dim == 4
        assert_allclose(p.values.sum(), 1.0, atol=1e-15)

    def test_clips_small_negatives(self):
        p = validate_prob_vec([0.6, 0.4, -1e-12])
        assert p.values[2] == 0.0
        assert_allclose(p.values.sum(), 1.0, atol=1e-15)

    def test_rejects_large_negative(self):
        with pytest.raises(NegativeProbabilityError):
            validate_prob_vec([0.9, 0.2, -0.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(ProbabilitySumError):
            validate_prob_vec([0.7, 0.2])

    def test_rejects_non_numeric(self):
        with pytest.raises(NegativeProbabilityError):
            validate_prob_vec([0.5, "x"])

    def test_rejects_nan(self):
        with pytest.raises(NegativeProbabilityError):
            validate_prob_vec([0.5, float("nan"), 0.5])

    @pytest.mark.parametrize("validate", [validate_prob_vec, normalized_prob_vec])
    def test_rejects_arrays_that_are_not_1d(self, validate):
        # A 2 x 2 table is not read as a flat 4-vector.
        with pytest.raises(ShapeMismatchError):
            validate(np.full((2, 2), 0.25))
        with pytest.raises(ShapeMismatchError):
            validate([[0.5, 0.0], [0.0, 0.5]])

    def test_normalized_prob_vec_scales(self):
        p = normalized_prob_vec([3.0, 1.0])
        assert_allclose(p.values, [0.75, 0.25])

    def test_sum_error_prints_a_plain_float(self):
        with pytest.raises(ProbabilitySumError, match=r"^components sum to 1\.1, not 1$"):
            validate_prob_vec([0.5, 0.6])

    def test_entries_whose_sum_overflows(self):
        # refused with no numpy warning, or normalized to a vector summing
        # to 1; a sum that does not overflow normalizes as before
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ProbabilitySumError, match="too large"):
                validate_prob_vec([1e308, 1e308])
            assert normalized_prob_vec([1e308, 1e308]).values.tolist() == [0.5, 0.5]
            assert normalized_prob_vec([1e308, 0.0]).values.tolist() == [1.0, 0.0]
            weights = [1e308, 5e307, 1e-300]
            want = np.array(weights) / math.fsum(weights)
            assert_allclose(normalized_prob_vec(weights).values, want, rtol=1e-15, atol=0)

    def test_normalized_prob_vec_rejects_zero_sum(self):
        with pytest.raises(ProbabilitySumError):
            normalized_prob_vec([0.0, 0.0])

    @given(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_normalize_then_validate_roundtrip(self, weights):
        p = normalized_prob_vec(weights)
        q = validate_prob_vec(p.values)
        assert abs(q.values.sum() - 1.0) <= 1e-12
        assert (q.values >= 0.0).all()


class TestPadReshape:
    def test_pad_appends_zeros(self):
        p = pad(validate_prob_vec([0.2, 0.3, 0.5]), 4)
        assert_allclose(p.values, [0.2, 0.3, 0.5, 0.0])

    def test_pad_same_dim_is_identity(self):
        p = validate_prob_vec([0.5, 0.5])
        assert pad(p, 2) is p

    def test_pad_shrink_raises(self):
        with pytest.raises(ShrinkForbiddenError):
            pad(validate_prob_vec([0.5, 0.5]), 1)

    def test_pad_preserves_entropy(self):
        p = validate_prob_vec([0.2, 0.3, 0.5])
        assert float(shannon(pad(p, 9))) == float(shannon(p))

    def test_reshape_requires_exact_product(self):
        p = validate_prob_vec([0.25] * 4)
        with pytest.raises(ShapeMismatchError):
            reshape(p, (2, 3))

    def test_reshape_rejects_factor_one(self):
        p = validate_prob_vec([0.25] * 4)
        with pytest.raises(ShapeMismatchError):
            reshape(p, (1, 4))

    def test_flatten_roundtrip_bit_identical(self):
        (p,) = random_vecs(12, 1, seed=3)
        table = reshape(p, (3, 4))
        assert np.array_equal(table.flatten().values, p.values)

    def test_row_major_bijection_two_factors(self):
        # entry (i1, i2) of the table must be component (i1-1)*N2 + i2,
        # 1-based, of the flat vector
        (p,) = random_vecs(6, 1, seed=5)
        table = reshape(p, (2, 3)).as_array()
        for i1, i2 in itertools.product(range(2), range(3)):
            assert table[i1, i2] == p.values[i1 * 3 + i2]

    def test_row_major_bijection_three_factors(self):
        (p,) = random_vecs(8, 1, seed=6)
        table = reshape(p, (2, 2, 2)).as_array()
        for i1, i2, i3 in itertools.product(range(2), repeat=3):
            assert table[i1, i2, i3] == p.values[4 * i1 + 2 * i2 + i3]

    @given(st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_reshape_roundtrip_property(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.choice([2, 3, 4], size=int(rng.integers(2, 4))))
        p = ProbVec(dirichlet(int(np.prod(shape)), rng))
        assert np.array_equal(reshape(p, shape).flatten().values, p.values)


class TestMarginals:
    def test_marginal2_against_brute_force(self):
        for shape in [(2, 3), (3, 2), (2, 4), (4, 3)]:
            (p,) = random_vecs(shape[0] * shape[1], 1, seed=sum(shape))
            table = reshape(p, shape)
            for keep in (1, 2):
                expected = marginal_brute(p.values, shape, (keep,))
                assert_allclose(marginal2(table, keep).values, expected, atol=1e-15)

    def test_marginal3_against_brute_force(self):
        for shape in [(2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3)]:
            (p,) = random_vecs(int(np.prod(shape)), 1, seed=sum(shape))
            table = reshape(p, shape)
            pair12 = marginal3(table, (1, 2))
            assert pair12.shape == shape[:2]
            assert_allclose(
                pair12.entries, marginal_brute(p.values, shape, (1, 2)), atol=1e-15
            )
            pair23 = marginal3(table, (2, 3))
            assert pair23.shape == shape[1:]
            assert_allclose(
                pair23.entries, marginal_brute(p.values, shape, (2, 3)), atol=1e-15
            )
            mid = marginal3(table, (2,))
            assert_allclose(
                mid.values, marginal_brute(p.values, shape, (2,)), atol=1e-15
            )

    def test_marginals_sum_to_one(self):
        (p,) = random_vecs(12, 1, seed=9)
        table = reshape(p, (2, 2, 3))
        assert abs(marginal3(table, (1, 2)).entries.sum() - 1.0) <= 1e-15
        assert abs(marginal3(table, (2,)).values.sum() - 1.0) <= 1e-15

    def test_marginal_consistency_pair_to_single(self):
        # collapsing the pair-(1,2) table over axis 1 must equal the
        # direct middle marginal
        (p,) = random_vecs(12, 1, seed=11)
        table = reshape(p, (2, 3, 2))
        via_pair = marginal2(marginal3(table, (1, 2)), 2)
        direct = marginal3(table, (2,))
        assert_allclose(via_pair.values, direct.values, atol=1e-15)

    def test_delta_table_middle_marginal(self):
        # a lone unit entry at (1, 2, 1) has middle marginal (0, 1)
        vec = np.zeros(8)
        vec[2] = 1.0  # (i1, i2, i3) = (1, 2, 1) 1-based -> flat 2 0-based
        table = reshape(ProbVec(vec), (2, 2, 2))
        assert_allclose(marginal3(table, (2,)).values, [0.0, 1.0], atol=0)

    def test_bad_axes_raise(self):
        table2 = reshape(validate_prob_vec([0.25] * 4), (2, 2))
        table3 = reshape(validate_prob_vec([0.125] * 8), (2, 2, 2))
        with pytest.raises(BadAxisError):
            marginal2(table2, 3)
        with pytest.raises(BadAxisError):
            marginal2(table3, 1)  # needs a 2-factor table
        with pytest.raises(BadAxisError):
            marginal3(table3, (1, 3))
        with pytest.raises(BadAxisError):
            marginal3(table2, (2,))


class TestEntropies:
    def test_shannon_dyadic_example(self):
        p = validate_prob_vec([0.5, 0.25, 0.125, 0.125])
        assert_allclose(float(shannon(p)), 1.75 * LN2, rtol=1e-15)

    def test_shannon_uniform_and_delta(self):
        assert_allclose(
            float(shannon(validate_prob_vec([0.2] * 5))), math.log(5), rtol=1e-15
        )
        assert float(shannon(validate_prob_vec([1.0, 0.0, 0.0]))) == 0.0

    def test_shannon_against_brute_force(self):
        for p in random_vecs(9, 20, seed=13):
            assert_allclose(float(shannon(p)), shannon_brute(p.values), atol=1e-13)

    def test_shannon_kind_tag(self):
        val = shannon(validate_prob_vec([0.5, 0.5]))
        assert val.kind == "shannon"
        assert val.q is None

    def test_tsallis_uniform_q2(self):
        p = validate_prob_vec([0.25] * 4)
        assert_allclose(float(tsallis(p, 2.0)), 0.75, rtol=1e-15)

    def test_tsallis_against_brute_force(self):
        for q in (0.5, 2.0, 3.0, 1.7):
            for p in random_vecs(6, 10, seed=17):
                assert_allclose(
                    float(tsallis(p, q)), tsallis_brute(p.values, q), atol=1e-13
                )

    def test_tsallis_shannon_window(self):
        # inside the switch window the value is exactly the Shannon entropy
        (p,) = random_vecs(5, 1, seed=19)
        assert float(tsallis(p, 1.0 + 1e-7)) == float(shannon(p))
        assert float(tsallis(p, 1.0)) == float(shannon(p))

    def test_tsallis_continuity_outside_window(self):
        for p in random_vecs(4, 50, seed=23):
            h = float(shannon(p))
            assert abs(float(tsallis(p, 1.0 + 1e-4)) - h) <= 1e-3
            assert abs(float(tsallis(p, 1.0 - 1e-4)) - h) <= 1e-3

    def test_tsallis_rejects_bad_order(self):
        p = validate_prob_vec([0.5, 0.5])
        with pytest.raises(BadOrderError):
            tsallis(p, 0.0)
        with pytest.raises(BadOrderError):
            tsallis(p, -1.0)

    def test_tsallis_kind_tag(self):
        val = tsallis(validate_prob_vec([0.5, 0.5]), 2.0)
        assert val.kind == "tsallis"
        assert val.q == 2.0


def _kernel_rows(n: int, seed: int) -> np.ndarray:
    """Rows of length ``n``: Dirichlet rows from sparse to flat, every point
    mass, a row with zeros and one with subnormal entries."""
    rng = np.random.default_rng(seed)
    rows = [rng.dirichlet(np.full(n, a)) for a in (0.05, 0.5, 1.0, 5.0) for _ in range(25)]
    rows += list(np.eye(n))
    sparse = rng.dirichlet(np.ones(n))
    sparse[::2] = 0.0
    tiny = rng.dirichlet(np.ones(n))
    tiny[0], tiny[-1] = 5e-324, 1e-310
    return np.array(rows + [sparse, tiny])


class TestShannonKernel:
    """``_shannon_rows``, the one x ln x kernel behind every entropy,
    against ``math.log``."""

    @pytest.mark.parametrize("n", range(1, 17))
    def test_matches_the_math_log_oracle(self, n):
        rows = _kernel_rows(n, 40 + n)
        # numpy's log is within 1 ulp of math.log; the product's rounding
        # can make that 2 ulps of a term
        terms = np.array([[-x * math.log(x) if x > 0.0 else 0.0 for x in row] for row in rows])
        np.testing.assert_array_max_ulp(_shannon_rows(rows[..., None]), terms, maxulp=2)
        # the oracle sums exactly (fsum), the kernel in floats: n - 1 more
        # roundings of nonnegative terms
        want = np.array([shannon_brute(row) for row in rows])
        np.testing.assert_array_max_ulp(_shannon_rows(rows), want, maxulp=n + 1)

    @pytest.mark.parametrize("n", [1, 2, 7, 16])
    def test_zero_rows_and_point_masses_are_plus_zero(self, n):
        rows = np.vstack([np.zeros(n), np.eye(n)])
        assert [float(h).hex() for h in _shannon_rows(rows)] == [(0.0).hex()] * (n + 1)

    def test_nan_and_inf_propagate_without_warnings(self):
        rows = np.array([[0.5, np.nan, 0.0], [np.inf, 0.0, 0.5], [0.0, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = _shannon_rows(rows)
        assert np.isnan(h[0])
        assert h[1] == -np.inf
        assert h[2] == 0.0


class TestSubadditivity:
    def test_half_half_example(self):
        rep = subadditivity_gap(validate_prob_vec([0.5, 0.0, 0.0, 0.5]), (2, 2))
        assert_allclose(rep.gap, LN2, rtol=1e-14)
        assert rep.passed
        assert rep.name == "subadd-2x2"

    def test_product_vector_equality(self):
        # a product table has zero mutual information
        rng = np.random.default_rng(29)
        a = dirichlet(3, rng)
        b = dirichlet(4, rng)
        rep = subadditivity_gap(ProbVec(np.outer(a, b).reshape(-1)), (3, 4))
        assert abs(rep.gap) <= 1e-12

    def test_padding_invariance(self):
        (p,) = random_vecs(7, 1, seed=31)
        direct = subadditivity_gap(p, (2, 4))
        padded = subadditivity_gap(pad(p, 8), (2, 4))
        assert direct.gap == padded.gap

    def test_report_carries_three_entropies(self):
        (p,) = random_vecs(6, 1, seed=37)
        rep = subadditivity_gap(p, (2, 3))
        assert set(rep.entropies) == {"joint", "part1", "part2"}
        assert_allclose(
            rep.entropies["part1"] + rep.entropies["part2"] - rep.entropies["joint"],
            rep.gap,
            atol=1e-15,
        )

    def test_sweep_nonnegative(self):
        for dim, shape in [(4, (2, 2)), (7, (2, 4)), (10, (2, 5)), (12, (3, 4))]:
            for p in random_vecs(dim, 300, seed=dim):
                assert subadditivity_gap(p, shape).gap >= -1e-9

    def test_shape_smaller_than_vector_raises(self):
        (p,) = random_vecs(7, 1, seed=41)
        with pytest.raises(ShapeMismatchError):
            subadditivity_gap(p, (2, 3))

    @given(st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_subadditivity_property(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(4, 13))
        p = ProbVec(dirichlet(dim, rng))
        shapes = admissible_shapes(dim, 2)
        shape = shapes[int(rng.integers(0, len(shapes)))]
        assert subadditivity_gap(p, shape).gap >= -1e-9


class TestStrongSubadditivity:
    def test_expansion_matches_brute_force(self):
        # cross-check every entropy in the report against loop-built
        # marginals of the padded 7-vector
        (p,) = random_vecs(7, 1, seed=43)
        rep = strong_subadditivity_gap(p, (2, 2, 2))
        padded = np.zeros(8)
        padded[:7] = p.values
        h = shannon_brute(padded)
        h12 = shannon_brute(marginal_brute(padded, (2, 2, 2), (1, 2)))
        h23 = shannon_brute(marginal_brute(padded, (2, 2, 2), (2, 3)))
        h2 = shannon_brute(marginal_brute(padded, (2, 2, 2), (2,)))
        assert_allclose(rep.gap, h12 + h23 - h - h2, atol=1e-13)
        assert_allclose(rep.entropies["pair12"], h12, atol=1e-13)
        assert_allclose(rep.entropies["pair23"], h23, atol=1e-13)
        assert_allclose(rep.entropies["part2"], h2, atol=1e-13)

    def test_product_chain_equality(self):
        rng = np.random.default_rng(47)
        a, b, c = dirichlet(2, rng), dirichlet(2, rng), dirichlet(3, rng)
        joint = np.einsum("i,j,k->ijk", a, b, c).reshape(-1)
        rep = strong_subadditivity_gap(ProbVec(joint), (2, 2, 3))
        assert abs(rep.gap) <= 1e-12

    def test_sweep_nonnegative(self):
        for dim, shape in [(7, (2, 2, 2)), (5, (2, 2, 2)), (12, (2, 3, 2))]:
            for p in random_vecs(dim, 300, seed=dim + 50):
                assert strong_subadditivity_gap(p, shape).gap >= -1e-9

    def test_needs_three_factors(self):
        (p,) = random_vecs(8, 1, seed=53)
        with pytest.raises(ShapeMismatchError):
            strong_subadditivity_gap(p, (2, 4))


def _shapes(factors: int) -> list[tuple[int, ...]]:
    """Every ``factors``-factor shape of the dims 4 to 12."""
    return sorted({shape for dim in range(4, 13) for shape in admissible_shapes(dim, factors)})


def _table_checks(rows: np.ndarray, reading) -> list:
    """The table checks of ``reading`` on a stack of vectors, as columns,
    from one :func:`_table_block` call."""
    block = _table_block([rows], _step_plan(((rows.shape[1], (reading,), "", None),), False), 1e-9)
    return [block.columns(c) for c in range(len(block.names))]


class TestTableRuleEqualities:
    """Every table inequality is an equality on the states written here by
    hand, five to a stack, so that a role of the rule table that keeps the
    wrong subsystems or adds to the wrong side leaves a gap."""

    @pytest.mark.parametrize("shape", _shapes(2))
    def test_product_tables_meet_subadditivity(self, shape):
        # a (x) b: the two parts are independent
        rng = np.random.default_rng(sum(shape))
        rows = np.stack(
            [np.outer(dirichlet(shape[0], rng), dirichlet(shape[1], rng)).reshape(-1) for _ in range(5)]
        )
        [check] = _table_checks(rows, shape)
        assert check.name == "subadd-" + "x".join(map(str, shape))
        assert np.abs(check.gaps()).max() <= 1e-12

    @pytest.mark.parametrize("shape", _shapes(3))
    def test_markov_chains_meet_strong_subadditivity(self, shape):
        # p(x, y) p(z | y) with a correlated p(x, y): x and z are
        # independent given y
        n1, n2, n3 = shape
        rng = np.random.default_rng(10 + sum(shape))
        rows = []
        for _ in range(5):
            pair = dirichlet(n1 * n2, rng).reshape(n1, n2)
            given_y = np.stack([dirichlet(n3, rng) for _ in range(n2)])
            rows.append((pair[:, :, None] * given_y[None, :, :]).reshape(-1))
        [check] = _table_checks(np.stack(rows), shape)
        assert check.name == "strong-subadd-" + "x".join(map(str, shape))
        assert np.abs(check.gaps()).max() <= 1e-12

    @pytest.mark.parametrize("shape", _shapes(3))
    def test_middle_products_meet_middle_subadditivity(self, shape):
        # m(b2) o(b1, b3): the middle subsystem is independent of the outer
        # two
        n1, n2, n3 = shape
        rng = np.random.default_rng(20 + sum(shape))
        rows = []
        for _ in range(5):
            middle, outer = dirichlet(n2, rng), dirichlet(n1 * n3, rng).reshape(n1, n3)
            rows.append((outer[:, None, :] * middle[None, :, None]).reshape(-1))
        [check] = _table_checks(np.stack(rows), ("subadd-middle", shape))
        assert check.name == "subadd-middle-" + "x".join(map(str, shape))
        assert np.abs(check.gaps()).max() <= 1e-12


class TestConditional:
    def test_split_values(self):
        p = validate_prob_vec([0.1, 0.3, 0.2, 0.4])
        split = conditional_pair(p)
        assert_allclose(split.v.values, [0.25, 0.75])
        assert_allclose(split.v_tilde.values, [1.0 / 3.0, 2.0 / 3.0])
        assert split.flags == ()

    def test_zero_block_convention(self):
        p = validate_prob_vec([0.0, 0.0, 0.5, 0.5])
        split = conditional_pair(p)
        assert_allclose(split.v.values, [0.5, 0.5])
        assert split.flags == ("zero-block-1",)

    def test_needs_four_components(self):
        with pytest.raises(ShapeMismatchError):
            conditional_pair(validate_prob_vec([0.5, 0.5]))

    def test_chain_identity_against_defining_formula(self):
        for p in random_vecs(4, 200, seed=59):
            chain = float(conditional_entropy(p))
            direct = conditional_entropy_brute(p.values)
            assert abs(chain - direct) <= 1e-12

    def test_uniform_conditional_is_ln2(self):
        assert_allclose(
            float(conditional_entropy(validate_prob_vec([0.25] * 4))), LN2, rtol=1e-15
        )

    def test_conditional_kind(self):
        assert conditional_entropy(validate_prob_vec([0.25] * 4)).kind == "conditional"

    def test_conditional_tsallis_uniform_q2(self):
        p = validate_prob_vec([0.25] * 4)
        assert_allclose(float(conditional_tsallis(p, 2.0)), 0.25, rtol=1e-14)

    def test_conditional_tsallis_shannon_window(self):
        (p,) = random_vecs(4, 1, seed=61)
        assert float(conditional_tsallis(p, 1.0)) == float(conditional_entropy(p))

    def test_conditional_tsallis_near_one(self):
        for p in random_vecs(4, 50, seed=67):
            ce = float(conditional_entropy(p))
            assert abs(float(conditional_tsallis(p, 1.0 + 1e-4)) - ce) <= 1e-3
            assert abs(float(conditional_tsallis(p, 1.0 - 1e-4)) - ce) <= 1e-3


class TestTsallisChain:
    def test_reports_nonnegative_parts(self):
        for q in (0.5, 2.0, 3.0):
            for p in random_vecs(4, 200, seed=71):
                rep = tsallis_monotonicity_check(p, q)
                assert rep.gap >= -1e-9
                assert rep.entropies["coarse"] >= -1e-12
                assert rep.entropies["conditional"] >= -1e-12

    def test_chain_splits_total(self):
        (p,) = random_vecs(4, 1, seed=73)
        rep = tsallis_monotonicity_check(p, 2.0)
        assert_allclose(
            rep.entropies["coarse"] + rep.entropies["conditional"],
            rep.entropies["total"],
            atol=1e-15,
        )

    def test_binding_side_is_reported(self):
        (p,) = random_vecs(4, 1, seed=79)
        rep = tsallis_monotonicity_check(p, 0.5)
        assert rep.lhs == max(rep.entropies["coarse"], rep.entropies["conditional"])
        assert rep.rhs == rep.entropies["total"]

    def test_rejects_bad_order(self):
        with pytest.raises(BadOrderError):
            tsallis_monotonicity_check(validate_prob_vec([0.25] * 4), -2.0)


class TestShapes:
    def test_minimal_padded_dims_two_factors(self):
        expected = {4: 4, 5: 6, 6: 6, 7: 8, 8: 8, 9: 9, 10: 10, 11: 12, 12: 12}
        for dim, target in expected.items():
            assert minimal_padded_dim(dim, 2) == target

    def test_minimal_padded_dims_three_factors(self):
        for dim in range(4, 9):
            assert minimal_padded_dim(dim, 3) == 8
        for dim in range(9, 13):
            assert minimal_padded_dim(dim, 3) == 12

    def test_admissible_shapes_examples(self):
        assert admissible_shapes(7, 2) == [(2, 4), (4, 2)]
        assert admissible_shapes(9, 2) == [(3, 3)]
        assert admissible_shapes(11, 2) == [(2, 6), (3, 4), (4, 3), (6, 2)]
        assert admissible_shapes(7, 3) == [(2, 2, 2)]
        assert admissible_shapes(9, 3) == [(2, 2, 3), (2, 3, 2), (3, 2, 2)]

    def test_admissible_shapes_match_brute_force(self):
        # every shape, in order, for every dim up to 64
        for dim in range(1, 65):
            for k in (2, 3):
                assert admissible_shapes(dim, k) == admissible_shapes_brute(dim, k), (dim, k)

    def test_shapes_multiply_to_padded_dim(self):
        for dim in range(4, 13):
            for k in (2, 3):
                n = minimal_padded_dim(dim, k)
                for shape in admissible_shapes(dim, k):
                    assert int(np.prod(shape)) == n
                    assert all(f >= 2 for f in shape)
