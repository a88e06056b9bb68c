"""Tests for density matrices, reductions, spectra, and the quantum
subadditivity checks."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from entrobox import (
    BadAxisError,
    BadTraceError,
    DensityMatrix,
    NotHermitianError,
    NotPositiveError,
    ProbVec,
    ReductionPlan,
    ShapeMismatchError,
    ShrinkForbiddenError,
    pad_density,
    quantum_strong_subadditivity,
    quantum_subadditivity,
    qutrit_reductions,
    reduce,
    spectrum,
    strong_subadditivity_gap,
    subadditivity_gap,
    validate_density,
    von_neumann,
)
from entrobox.ensembles import dirichlet, ginibre
from entrobox.qstate import _q_table_block
from entrobox.simplex import _step_plan

from _explicit import (
    qutrit_r1,
    qutrit_r2,
    r1_of_4,
    r2_of_4,
    r2_of_5,
    r2_of_7,
    r12_of_5,
    r12_of_7,
    r23_of_7,
    reduce_brute,
)

LN2 = math.log(2.0)


def random_states(dim: int, count: int, seed: int = 0) -> list[DensityMatrix]:
    rng = np.random.default_rng(seed)
    return [validate_density(ginibre(dim, rng)) for _ in range(count)]


def bell_state() -> DensityMatrix:
    v = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    return validate_density(np.outer(v, v.conj()))


class TestValidation:
    def test_accepts_ginibre(self):
        rho = random_states(4, 1)[0]
        assert rho.dim == 4
        assert_allclose(np.trace(rho.matrix).real, 1.0, atol=1e-12)

    def test_symmetrizes_small_defect(self):
        base = ginibre(3, np.random.default_rng(1))
        bumped = base + 1e-13 * np.array([[0, 1j, 0], [0, 0, 0], [0, 0, 0]])
        rho = validate_density(bumped)
        assert_allclose(rho.matrix, rho.matrix.conj().T, atol=0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            validate_density([[0.5, 0.4], [0.1, 0.5]])

    def test_rejects_non_numeric(self):
        with pytest.raises(NotHermitianError):
            validate_density([[0.5, "a"], [0.1, 0.5]])

    def test_rejects_bad_trace(self):
        with pytest.raises(BadTraceError):
            validate_density([[0.7, 0.0], [0.0, 0.7]])

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPositiveError):
            validate_density([[0.6, 0.55], [0.55, 0.4]])

    def test_rejects_non_square(self):
        with pytest.raises(ShapeMismatchError):
            validate_density(np.ones((2, 3)) / 6.0)

    def test_rejects_entries_whose_sums_overflow(self):
        # (rho + rho^dag) / 2 would overflow to a NaN trace, which no
        # bound used to catch
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotHermitianError, match="too large"):
                validate_density([[1e308, 0.0], [0.0, -1e308]])

    def test_ref_is_stable(self):
        rho = random_states(3, 1, seed=5)[0]
        again = validate_density(rho.matrix)
        assert rho.ref == again.ref
        assert rho.ref.startswith("dm3-")


class TestPadding:
    def test_pad_top_left_block(self):
        rho = random_states(3, 1, seed=7)[0]
        big = pad_density(rho, 4)
        assert big.dim == 4
        assert_allclose(big.matrix[:3, :3], rho.matrix, atol=0)
        assert_allclose(big.matrix[3, :], 0.0, atol=0)
        assert_allclose(big.matrix[:, 3], 0.0, atol=0)

    def test_pad_same_dim_identity(self):
        rho = random_states(3, 1, seed=8)[0]
        assert pad_density(rho, 3) is rho

    def test_shrink_raises(self):
        rho = random_states(3, 1, seed=9)[0]
        with pytest.raises(ShrinkForbiddenError):
            pad_density(rho, 2)

    def test_pad_preserves_entropy(self):
        rho = random_states(3, 1, seed=10)[0]
        assert_allclose(
            float(von_neumann(pad_density(rho, 8))),
            float(von_neumann(rho)),
            atol=1e-12,
        )


class TestReduce:
    PLANS = [
        (4, ReductionPlan((2, 2), (1,))),
        (4, ReductionPlan((2, 2), (2,))),
        (6, ReductionPlan((2, 3), (1,))),
        (6, ReductionPlan((2, 3), (2,))),
        (7, ReductionPlan((2, 2, 2), (1, 2))),
        (7, ReductionPlan((2, 2, 2), (2, 3))),
        (7, ReductionPlan((2, 2, 2), (2,))),
        (5, ReductionPlan((2, 2, 2), (1, 2))),
        (12, ReductionPlan((2, 3, 2), (2, 3))),
        (12, ReductionPlan((2, 3, 2), (2,))),
    ]

    def test_against_brute_force_loops(self):
        for dim, plan in self.PLANS:
            for rho in random_states(dim, 5, seed=dim):
                got = reduce(rho, plan)
                want = reduce_brute(rho.matrix, plan.factors, plan.kept)
                assert got.dim == plan.kept_dim
                assert_allclose(got.matrix, want, atol=1e-14)

    def test_trace_and_hermiticity_preserved(self):
        for dim, plan in self.PLANS:
            rho = random_states(dim, 1, seed=dim + 20)[0]
            red = reduce(rho, plan)
            assert_allclose(np.trace(red.matrix).real, 1.0, atol=1e-12)
            assert_allclose(red.matrix, red.matrix.conj().T, atol=1e-14)
            assert spectrum(red).eigenvalues.min() >= -1e-10

    def test_product_state_factors_cleanly(self):
        # tracing one tensor factor out of a product recovers the other
        rng = np.random.default_rng(33)
        a = ginibre(2, rng)
        b = ginibre(3, rng)
        joint = validate_density(np.kron(a, b))
        keep1 = reduce(joint, ReductionPlan((2, 3), (1,)))
        keep2 = reduce(joint, ReductionPlan((2, 3), (2,)))
        assert_allclose(keep1.matrix, a, atol=1e-14)
        assert_allclose(keep2.matrix, b, atol=1e-14)

    def test_rejects_unknown_kept_axes(self):
        with pytest.raises(BadAxisError):
            ReductionPlan((2, 2), (1, 2))
        with pytest.raises(BadAxisError):
            ReductionPlan((2, 2, 2), (1,))
        with pytest.raises(BadAxisError):
            ReductionPlan((2, 2, 2), (1, 3))

    def test_rejects_tiny_factor(self):
        with pytest.raises(ShapeMismatchError):
            ReductionPlan((1, 4), (1,))


class TestExplicitReductionMatrices:
    """The einsum reduction must reproduce entry-by-entry transcriptions."""

    def test_seven_dim_pair12(self):
        for rho in random_states(7, 4, seed=41):
            got = reduce(rho, ReductionPlan((2, 2, 2), (1, 2)))
            assert_allclose(got.matrix, r12_of_7(rho.matrix), atol=1e-15)

    def test_seven_dim_pair23(self):
        for rho in random_states(7, 4, seed=43):
            got = reduce(rho, ReductionPlan((2, 2, 2), (2, 3)))
            assert_allclose(got.matrix, r23_of_7(rho.matrix), atol=1e-15)

    def test_seven_dim_middle(self):
        for rho in random_states(7, 4, seed=47):
            got = reduce(rho, ReductionPlan((2, 2, 2), (2,)))
            assert_allclose(got.matrix, r2_of_7(rho.matrix), atol=1e-15)

    def test_five_dim_pair12(self):
        for rho in random_states(5, 4, seed=53):
            got = reduce(rho, ReductionPlan((2, 2, 2), (1, 2)))
            want = r12_of_5(rho.matrix)
            assert_allclose(got.matrix, want, atol=1e-15)
            # the padded tail contributes an all-zero fourth row and column
            assert_allclose(want[3, :], 0.0, atol=0)
            assert_allclose(want[:, 3], 0.0, atol=0)

    def test_five_dim_middle(self):
        for rho in random_states(5, 4, seed=59):
            got = reduce(rho, ReductionPlan((2, 2, 2), (2,)))
            assert_allclose(got.matrix, r2_of_5(rho.matrix), atol=1e-15)

    def test_four_dim_parts(self):
        for rho in random_states(4, 4, seed=61):
            got1 = reduce(rho, ReductionPlan((2, 2), (1,)))
            got2 = reduce(rho, ReductionPlan((2, 2), (2,)))
            assert_allclose(got1.matrix, r1_of_4(rho.matrix), atol=1e-15)
            assert_allclose(got2.matrix, r2_of_4(rho.matrix), atol=1e-15)

    def test_padded_qutrit_parts(self):
        for rho in random_states(3, 4, seed=67):
            red1, red2 = qutrit_reductions(rho)
            assert_allclose(red1.matrix, qutrit_r1(rho.matrix), atol=1e-15)
            assert_allclose(red2.matrix, qutrit_r2(rho.matrix), atol=1e-15)


class TestSpectrumEntropy:
    def test_spectrum_descending_and_normalized(self):
        rho = random_states(5, 1, seed=71)[0]
        s = spectrum(rho)
        assert (np.diff(s.eigenvalues) <= 0).all()
        assert_allclose(s.eigenvalues.sum(), 1.0, atol=1e-12)
        assert s.eigenvalues.min() >= 0.0

    def test_von_neumann_pure_state_zero(self):
        assert abs(float(von_neumann(bell_state()))) <= 1e-12

    def test_von_neumann_maximally_mixed(self):
        rho = validate_density(np.eye(4) / 4.0)
        assert_allclose(float(von_neumann(rho)), 2.0 * LN2, rtol=1e-14)

    def test_von_neumann_diagonal_matches_shannon(self):
        from entrobox import shannon

        p = dirichlet(6, np.random.default_rng(73))
        rho = validate_density(np.diag(p))
        assert_allclose(
            float(von_neumann(rho)),
            float(shannon(ProbVec(p))),
            atol=1e-12,
        )

    def test_unitary_invariance(self):
        from entrobox.ensembles import haar

        rng = np.random.default_rng(79)
        rho = random_states(4, 1, seed=79)[0]
        u = haar(4, rng)
        rotated = validate_density(u @ rho.matrix @ u.conj().T)
        assert_allclose(
            float(von_neumann(rotated)), float(von_neumann(rho)), atol=1e-10
        )


class TestQuantumSubadditivity:
    def test_bell_state_gap_is_two_ln2(self):
        rep = quantum_subadditivity(bell_state(), (2, 2))
        assert_allclose(rep.gap, 2.0 * LN2, atol=1e-12)
        assert rep.name == "q-subadd-2x2"
        assert rep.passed

    def test_product_state_equality(self):
        rng = np.random.default_rng(83)
        joint = validate_density(np.kron(ginibre(2, rng), ginibre(2, rng)))
        rep = quantum_subadditivity(joint, (2, 2))
        assert abs(rep.gap) <= 1e-12

    def test_maximally_mixed_equality(self):
        rep = quantum_subadditivity(validate_density(np.eye(4) / 4.0), (2, 2))
        assert abs(rep.gap) <= 1e-10

    def test_sweep_nonnegative(self):
        for dim, shape in [(4, (2, 2)), (6, (2, 3)), (7, (2, 4))]:
            for rho in random_states(dim, 100, seed=dim + 80):
                assert quantum_subadditivity(rho, shape).gap >= -1e-9

    def test_report_entropies(self):
        rho = random_states(4, 1, seed=89)[0]
        rep = quantum_subadditivity(rho, (2, 2))
        assert set(rep.entropies) == {"joint", "part1", "part2"}
        assert_allclose(
            rep.entropies["part1"] + rep.entropies["part2"] - rep.entropies["joint"],
            rep.gap,
            atol=1e-14,
        )


class TestQuantumStrongSubadditivity:
    def test_sweep_nonnegative(self):
        for dim in (5, 7, 8):
            for rho in random_states(dim, 100, seed=dim + 90):
                rep = quantum_strong_subadditivity(rho, (2, 2, 2))
                assert rep.gap >= -1e-9
        assert rep.name == "q-strong-subadd-2x2x2"

    def test_product_chain_equality(self):
        rng = np.random.default_rng(97)
        parts = [ginibre(2, rng) for _ in range(3)]
        joint = validate_density(np.kron(np.kron(parts[0], parts[1]), parts[2]))
        rep = quantum_strong_subadditivity(joint, (2, 2, 2))
        assert abs(rep.gap) <= 1e-11

    def test_matches_brute_reductions(self):
        rho = random_states(7, 1, seed=101)[0]
        rep = quantum_strong_subadditivity(rho, (2, 2, 2))
        s = float(von_neumann(rho))
        s12 = float(von_neumann(validate_density(r12_of_7(rho.matrix))))
        s23 = float(von_neumann(validate_density(r23_of_7(rho.matrix))))
        s2 = float(von_neumann(validate_density(r2_of_7(rho.matrix))))
        assert_allclose(rep.gap, s12 + s23 - s - s2, atol=1e-12)


def _q_table_checks(mats: np.ndarray, shape) -> list:
    """The quantum table checks of ``shape`` on a stack of matrices, as
    columns, from one :func:`_q_table_block` call."""
    block = _q_table_block([mats], _step_plan(((mats.shape[1], (shape,), "", None),), True), 1e-9)
    return [block.columns(c) for c in range(len(block.names))]


class TestTableRuleEqualities:
    """The quantum table inequalities are equalities on the product states
    written here by hand, five to a stack, so that a role of the rule table
    that keeps the wrong subsystems or adds to the wrong side leaves a
    gap."""

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2)])
    def test_product_states_meet_subadditivity(self, shape):
        rng = np.random.default_rng(110 + sum(shape))
        mats = np.stack([np.kron(ginibre(shape[0], rng), ginibre(shape[1], rng)) for _ in range(5)])
        [check] = _q_table_checks(mats, shape)
        assert check.name == "q-subadd-" + "x".join(map(str, shape))
        assert np.abs(check.gaps()).max() <= 1e-12

    def test_pair_times_third_meets_strong_subadditivity(self):
        # rho12 (x) rho3 with a correlated rho12
        rng = np.random.default_rng(120)
        mats = np.stack([np.kron(ginibre(4, rng), ginibre(2, rng)) for _ in range(5)])
        [check] = _q_table_checks(mats, (2, 2, 2))
        assert check.name == "q-strong-subadd-2x2x2"
        assert np.abs(check.gaps()).max() <= 1e-12


class TestQutritReductions:
    def test_maximally_mixed_reductions(self):
        rho = validate_density(np.eye(3) / 3.0)
        red1, red2 = qutrit_reductions(rho)
        assert_allclose(red1.matrix, np.diag([2.0 / 3.0, 1.0 / 3.0]), atol=1e-15)
        assert_allclose(red2.matrix, np.diag([2.0 / 3.0, 1.0 / 3.0]), atol=1e-15)

    def test_subadditivity_from_reductions(self):
        for rho in random_states(3, 200, seed=103):
            red1, red2 = qutrit_reductions(rho)
            gap = (
                float(von_neumann(red1))
                + float(von_neumann(red2))
                - float(von_neumann(rho))
            )
            assert gap >= -1e-9

    def test_rejects_wrong_dim(self):
        with pytest.raises(ShapeMismatchError):
            qutrit_reductions(random_states(4, 1)[0])


class TestDiagonalBridge:
    """Diagonal density matrices must reproduce the classical gaps."""

    def test_two_factor_gap_matches(self):
        rng = np.random.default_rng(107)
        for _ in range(50):
            p = dirichlet(4, rng)
            classical = subadditivity_gap(ProbVec(p), (2, 2))
            quantum = quantum_subadditivity(
                validate_density(np.diag(p).astype(complex)), (2, 2)
            )
            assert abs(classical.gap - quantum.gap) <= 1e-12

    def test_three_factor_gap_matches(self):
        rng = np.random.default_rng(109)
        for dim in (5, 7):
            for _ in range(50):
                p = dirichlet(dim, rng)
                classical = strong_subadditivity_gap(ProbVec(p), (2, 2, 2))
                quantum = quantum_strong_subadditivity(
                    validate_density(np.diag(p).astype(complex)), (2, 2, 2)
                )
                assert abs(classical.gap - quantum.gap) <= 1e-12
