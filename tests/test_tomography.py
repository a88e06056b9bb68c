"""Tests for basis readouts, the readout search's chart, entropy
minimization, mutual-information deficits, and spin-axis readouts."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from entrobox import (
    BadAngleError,
    DensityMatrix,
    DimMismatchError,
    NotUnitaryError,
    ShapeMismatchError,
    UnitaryMatrix,
    discord,
    discord_unitary_sweep,
    eigenbasis_unitary,
    marginal_tomograms,
    minimize_entropy_batch,
    minimize_tomographic_entropy,
    reshape,
    spectrum,
    spin_tomogram_axis,
    subadditivity_gap,
    tomogram,
    tomographic_entropy,
    tomographic_information,
    validate_density,
    validate_unitary,
    von_neumann,
)
from entrobox.ensembles import dirichlet, ginibre, haar
from entrobox import tomography
from entrobox.tomography import _assemble_generators, _chart_unitaries

LN2 = math.log(2.0)


def random_states(dim: int, count: int, seed: int = 0) -> list[DensityMatrix]:
    rng = np.random.default_rng(seed)
    return [validate_density(ginibre(dim, rng)) for _ in range(count)]


def werner_state(p: float) -> DensityMatrix:
    v = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    return validate_density(p * np.outer(v, v) + (1.0 - p) * np.eye(4) / 4.0)


class TestValidateUnitary:
    def test_accepts_haar(self):
        u = validate_unitary(haar(4, np.random.default_rng(0)))
        assert u.dim == 4

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitaryError):
            validate_unitary(np.eye(3) * 1.001)

    def test_rejects_non_square(self):
        with pytest.raises(ShapeMismatchError):
            validate_unitary(np.ones((2, 3)))

    def test_rejects_entries_whose_product_overflows(self):
        # U^dag U would hold inf - inf = NaN, which no bound used to catch
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotUnitaryError, match="too large"):
                validate_unitary([[1e200, 1e200], [1e200, -1e200]])


class TestUnitaryChart:
    """The readout search's chart: a point is the zero-diagonal Hermitian
    generator H of u = exp(i H)."""

    def test_zero_point_is_identity(self):
        for dim in (1, 2, 3, 4):
            u = _chart_unitaries(np.zeros((1, dim * (dim - 1))), dim)[0]
            assert_allclose(u, np.eye(dim), atol=1e-15)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_chart_unitarity_property(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 6))
        points = rng.normal(0.0, 2.0, (3, dim * (dim - 1)))
        for u in _chart_unitaries(points, dim):
            assert float(np.abs(u @ u.conj().T - np.eye(dim)).max()) <= 1e-12


def explicit_generator(params: np.ndarray, dim: int) -> np.ndarray:
    """The Hermitian generator of one search point, entry by entry: a
    (re, im) pair per strict upper entry in row-major order, mirrored below
    as its conjugate, and a zero diagonal."""
    h = np.zeros((dim, dim), dtype=complex)
    pos = 0
    for i in range(dim):
        for j in range(i + 1, dim):
            h[i, j] = complex(params[pos], params[pos + 1])
            h[j, i] = complex(params[pos], -params[pos + 1])
            pos += 2
    return h


class TestGeneratorMap:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5], ids=lambda dim: f"zero-diagonal-{dim}")
    def test_matches_explicit_build(self, dim):
        n = dim * (dim - 1)
        rng = np.random.default_rng(dim)
        points = np.vstack([np.zeros(n), rng.uniform(-math.pi, math.pi, (6, n))])
        built = _assemble_generators(points, dim)
        assert built.shape == (7, dim, dim) and built.dtype == complex
        for got, params in zip(built, points):
            assert (got == explicit_generator(params, dim)).all()


class TestTomogram:
    def test_identity_basis_reads_diagonal(self):
        rho = random_states(4, 1, seed=13)[0]
        w = tomogram(rho, UnitaryMatrix(np.eye(4))).probabilities
        assert_allclose(w.values, rho.matrix.diagonal().real, atol=1e-14)

    def test_eigenbasis_reads_spectrum(self):
        for rho in random_states(5, 10, seed=17):
            u, _ = eigenbasis_unitary(rho)
            w = tomogram(rho, u).probabilities
            assert_allclose(w.values, spectrum(rho).eigenvalues, atol=1e-12)

    def test_dim_mismatch(self):
        rho = random_states(3, 1, seed=19)[0]
        with pytest.raises(DimMismatchError):
            tomogram(rho, UnitaryMatrix(np.eye(4)))

    def test_readout_entropy_dominates_von_neumann(self):
        rng = np.random.default_rng(23)
        for dim in (2, 3, 4):
            for rho in random_states(dim, 50, seed=dim + 30):
                u = UnitaryMatrix(haar(dim, rng))
                assert float(tomographic_entropy(rho, u)) >= float(
                    von_neumann(rho)
                ) - 1e-12

    def test_state_ref_defaults_to_rho_ref(self):
        rho = random_states(2, 1, seed=29)[0]
        t = tomogram(rho, UnitaryMatrix(np.eye(2)))
        assert t.state_ref == rho.ref


class TestEigenbasisUnitary:
    def test_diagonal_is_descending_spectrum(self):
        rho = random_states(6, 1, seed=31)[0]
        u, degenerate = eigenbasis_unitary(rho)
        diag = np.einsum(
            "ij,jk,ik->i", u.matrix, rho.matrix, u.matrix.conj()
        ).real
        assert not degenerate
        assert_allclose(diag, spectrum(rho).eigenvalues, atol=1e-12)
        assert (np.diff(diag) <= 1e-12).all()

    def test_degenerate_spectrum_is_flagged(self):
        _, degenerate = eigenbasis_unitary(validate_density(np.eye(4) / 4.0))
        assert degenerate

    def test_phase_convention_is_deterministic(self):
        rho = random_states(4, 1, seed=37)[0]
        u1, _ = eigenbasis_unitary(rho)
        u2, _ = eigenbasis_unitary(validate_density(rho.matrix))
        assert np.array_equal(u1.matrix, u2.matrix)


class TestMinimizer:
    def test_reaches_von_neumann_floor(self):
        for dim in (2, 3):
            for i, rho in enumerate(random_states(dim, 3, seed=dim + 40)):
                u, value = minimize_tomographic_entropy(
                    rho, restarts=4, budget=2000, seed=i
                )
                err = float(value) - float(von_neumann(rho))
                assert -1e-9 <= err <= 1e-6
                # the reported value must be the actual readout at u
                assert float(tomographic_entropy(rho, u)) == float(value)

    def test_batch_matches_single_calls_exactly(self):
        states = random_states(3, 3, seed=43)
        seeds = [5, 6, 7]
        batched = minimize_entropy_batch(
            states, restarts=3, budget=1200, seeds=seeds
        )
        for rho, seed, (u_b, v_b) in zip(states, seeds, batched):
            u_s, v_s = minimize_tomographic_entropy(
                rho, restarts=3, budget=1200, seed=seed
            )
            assert np.array_equal(u_b.matrix, u_s.matrix)
            assert float(v_b) == float(v_s)

    def test_pure_state_minimum_is_zero(self):
        v = haar(3, np.random.default_rng(47))[:, 0]
        rho = validate_density(np.outer(v, v.conj()))
        _, value = minimize_tomographic_entropy(rho, restarts=4, budget=2000)
        assert float(value) <= 1e-6

    def test_one_dimensional_states_need_no_search(self):
        # a 1 x 1 search point has no parameters
        rho = validate_density(np.ones((1, 1)))
        [(u, value)] = minimize_entropy_batch([rho])
        assert u.matrix.shape == (1, 1)
        assert float(value) == 0.0

    def test_mixed_dims_rejected(self):
        with pytest.raises(DimMismatchError):
            minimize_entropy_batch(
                [random_states(2, 1)[0], random_states(3, 1)[0]]
            )

    def test_seed_count_must_match(self):
        with pytest.raises(ShapeMismatchError):
            minimize_entropy_batch(random_states(2, 2), seeds=[1])

    def test_budget_below_the_start_simplex_rejected_before_any_search(self, monkeypatch):
        # d**2 - d + 1 start points: 7 at d = 3, 5113 at d = 72 against the
        # default budget of 5000
        monkeypatch.setattr(tomography, "minimize_batch", None)
        with pytest.raises(DimMismatchError, match="budget of 6"):
            minimize_entropy_batch(random_states(3, 1), budget=6)
        rho = validate_density(np.eye(72) / 72)
        with pytest.raises(DimMismatchError, match="5113 points"):
            minimize_tomographic_entropy(rho)

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_restarts_below_one_rejected(self, restarts):
        rho = random_states(2, 1)[0]
        with pytest.raises(ShapeMismatchError, match="restarts"):
            minimize_entropy_batch([rho], restarts=restarts)
        with pytest.raises(ShapeMismatchError, match="restarts"):
            minimize_tomographic_entropy(rho, restarts=restarts)


class TestMarginalReadouts:
    def test_marginals_match_joint_table(self):
        rng = np.random.default_rng(53)
        for rho in random_states(4, 20, seed=59):
            u1 = UnitaryMatrix(haar(2, rng))
            u2 = UnitaryMatrix(haar(2, rng))
            w1, w2 = marginal_tomograms(rho, u1, u2)
            assert_allclose(w1.values.sum(), 1.0, atol=1e-12)
            assert_allclose(w2.values.sum(), 1.0, atol=1e-12)

    def test_rejects_wrong_dims(self):
        rho3 = random_states(3, 1, seed=61)[0]
        with pytest.raises(ShapeMismatchError):
            marginal_tomograms(rho3, UnitaryMatrix(np.eye(2)), UnitaryMatrix(np.eye(2)))
        rho4 = random_states(4, 1, seed=61)[0]
        with pytest.raises(DimMismatchError):
            marginal_tomograms(rho4, UnitaryMatrix(np.eye(4)), UnitaryMatrix(np.eye(2)))


class TestTomographicInformation:
    def test_nonnegative(self):
        rng = np.random.default_rng(67)
        for rho in random_states(4, 50, seed=71):
            u1 = UnitaryMatrix(haar(2, rng))
            u2 = UnitaryMatrix(haar(2, rng))
            assert tomographic_information(rho, u1, u2) >= -1e-12

    def test_product_state_carries_none(self):
        rng = np.random.default_rng(73)
        rho = validate_density(np.kron(ginibre(2, rng), ginibre(2, rng)))
        for _ in range(10):
            u1 = UnitaryMatrix(haar(2, rng))
            u2 = UnitaryMatrix(haar(2, rng))
            assert abs(tomographic_information(rho, u1, u2)) <= 1e-12

    def test_bell_state_in_eigenbases(self):
        # readout of the p = 1 projector in local eigenbases is uniform on
        # pairs with perfectly correlated halves: I = ln 2
        rho = werner_state(1.0)
        u1, _ = eigenbasis_unitary(
            validate_density(np.array([[0.5, 0.0], [0.0, 0.5]]))
        )
        assert_allclose(tomographic_information(rho, u1, u1), LN2, atol=1e-12)


class TestDiscord:
    def test_diagonal_state_has_none(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            rho = validate_density(np.diag(dirichlet(4, rng)).astype(complex))
            rep = discord(rho)
            assert abs(rep.discord) <= 1e-10

    def test_werner_state_closed_form(self):
        # eigenvalues (1 + 3p)/4 and (1 - p)/4 three times; both reductions
        # maximally mixed; joint readout in the local eigenbases has weights
        # (1 + p)/4, (1 - p)/4 twice each. The deficit follows in closed form.
        p = 0.5
        rep = discord(werner_state(p))
        lam = [(1.0 + 3.0 * p) / 4.0] + 3 * [(1.0 - p) / 4.0]
        s = -sum(x * math.log(x) for x in lam)
        w = 2 * [(1.0 + p) / 4.0] + 2 * [(1.0 - p) / 4.0]
        h12 = -sum(x * math.log(x) for x in w)
        assert_allclose(rep.s, s, atol=1e-12)
        assert_allclose(rep.s1, LN2, atol=1e-12)
        assert_allclose(rep.s2, LN2, atol=1e-12)
        assert_allclose(rep.h12, h12, atol=1e-12)
        assert_allclose(rep.discord, h12 - s, atol=1e-12)
        assert "degenerate-reduction-1" in rep.flags
        assert "degenerate-reduction-2" in rep.flags

    def test_chain_structure(self):
        for rho in random_states(4, 100, seed=83):
            rep = discord(rho)
            first, second, outer = rep.chain
            assert_allclose(first + second, outer, atol=1e-12)
            assert first >= -1e-9
            assert second >= -1e-9
            assert_allclose(second, rep.discord, atol=1e-15)
            assert_allclose(
                rep.information + rep.discord, outer, atol=1e-12
            )

    def test_nonnegative_sweep(self):
        for rho in random_states(4, 200, seed=89):
            assert discord(rho).discord >= -1e-9

    def test_qutrit_is_padded_and_flagged(self):
        rep = discord(random_states(3, 1, seed=97)[0])
        assert "padded-qutrit" in rep.flags
        assert rep.discord >= -1e-9

    def test_rejects_other_dims(self):
        with pytest.raises(ShapeMismatchError):
            discord(random_states(5, 1, seed=101)[0])

    def test_to_dict_roundtrips_fields(self):
        rep = discord(random_states(4, 1, seed=103)[0])
        d = rep.to_dict()
        assert d["discord"] == rep.discord
        assert d["chain"] == list(rep.chain)

    def test_unitary_sweep_reports_minimum(self):
        rho = random_states(4, 1, seed=107)[0]
        out = discord_unitary_sweep(rho, samples=16, seed=5)
        assert out["discord_min_sampled"] <= out["discord_eigenbasis"] + 1e-15
        assert out["samples"] == 16
        assert out["state_ref"] == rho.ref

    @pytest.mark.parametrize("samples", [-1, -3])
    def test_unitary_sweep_rejects_negative_samples(self, samples):
        # a negative count samples nothing, so it must not report as if it ran
        rho = random_states(4, 1, seed=107)[0]
        with pytest.raises(ShapeMismatchError, match="samples"):
            discord_unitary_sweep(rho, samples=samples)

    @pytest.mark.parametrize("dim, samples", [(4, 64), (4, 1), (3, 9), (4, 0)])
    def test_unitary_sweep_equals_a_per_sample_loop(self, dim, samples):
        # the sweep reads every sampled pair at once; a loop of public
        # calls over the same draws gives the same dict, bit for bit
        rho = random_states(dim, 1, seed=113 + dim)[0]
        base = discord(rho)
        padded = DensityMatrix(np.pad(rho.matrix, (0, 4 - dim)))
        total = base.s1 + base.s2 - base.s
        best = base.discord
        rng = np.random.default_rng(17)
        for _ in range(samples):
            u1 = UnitaryMatrix(haar(2, rng))
            u2 = UnitaryMatrix(haar(2, rng))
            candidate = total - tomographic_information(padded, u1, u2)
            if candidate < best:
                best = candidate
        want = {
            "discord_eigenbasis": base.discord,
            "discord_min_sampled": float(best),
            "samples": samples,
            "state_ref": base.state_ref,
        }
        got = discord_unitary_sweep(rho, samples=samples, seed=17)
        assert repr(got) == repr(want)
        assert got["discord_min_sampled"].hex() == want["discord_min_sampled"].hex()


class TestSpinAxis:
    def test_half_spin_pi_flip(self):
        rho = validate_density(np.diag([1.0, 0.0]).astype(complex))
        t = spin_tomogram_axis(rho, math.pi, 0.0)
        assert_allclose(t.probabilities.values, [0.0, 1.0], atol=1e-15)

    def test_zero_angles_read_diagonal(self):
        rho = random_states(4, 1, seed=109)[0]
        t = spin_tomogram_axis(rho, 0.0, 0.0)
        assert_allclose(t.probabilities.values, rho.matrix.diagonal().real, atol=1e-12)

    def test_half_spin_closed_form(self):
        # for spin 1/2 the rotation is
        # diag(exp(i phi / 2), exp(-i phi / 2)) @ [[c, s], [-s, c]]
        # with c = cos(theta / 2), s = sin(theta / 2), in the ascending
        # magnetic-quantum-number basis
        rho = random_states(2, 1, seed=113)[0]
        for theta, phi in [(0.3, 1.1), (2.0, 4.5), (math.pi / 2, 0.0)]:
            c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
            u = np.diag(
                [np.exp(1j * phi / 2.0), np.exp(-1j * phi / 2.0)]
            ) @ np.array([[c, s], [-s, c]])
            expected = np.einsum("ij,jk,ik->i", u, rho.matrix, u.conj()).real
            t = spin_tomogram_axis(rho, theta, phi)
            assert_allclose(t.probabilities.values, expected, atol=1e-14)
            assert_allclose(t.unitary.matrix, u, atol=1e-14)

    def test_readout_dominates_von_neumann(self):
        rng = np.random.default_rng(127)
        for dim in (2, 3, 4):
            rho = random_states(dim, 1, seed=dim + 120)[0]
            s = float(von_neumann(rho))
            for _ in range(20):
                theta = math.acos(rng.uniform(-1.0, 1.0))
                phi = rng.uniform(0.0, 2.0 * math.pi)
                t = spin_tomogram_axis(rho, theta, phi)
                w = t.probabilities
                h = -float(np.sum(w.values[w.values > 0] * np.log(w.values[w.values > 0])))
                assert h >= s - 1e-12

    def test_axis_readout_obeys_classical_subadditivity(self):
        rng = np.random.default_rng(131)
        for rho in random_states(4, 50, seed=137):
            theta = math.acos(rng.uniform(-1.0, 1.0))
            phi = rng.uniform(0.0, 2.0 * math.pi)
            w = spin_tomogram_axis(rho, theta, phi).probabilities
            assert subadditivity_gap(w, (2, 2)).gap >= -1e-9

    def test_angle_domain(self):
        rho = random_states(2, 1, seed=139)[0]
        for theta, phi in [(-0.1, 0.0), (3.2, 0.0), (1.0, -0.5), (1.0, 7.0)]:
            with pytest.raises(BadAngleError):
                spin_tomogram_axis(rho, theta, phi)

    def test_large_dims_rejected(self):
        with pytest.raises(DimMismatchError):
            spin_tomogram_axis(random_states(5, 1, seed=149)[0], 0.5, 0.5)

    def test_readout_table_marginals_are_normalized(self):
        rho = random_states(4, 1, seed=151)[0]
        w = spin_tomogram_axis(rho, 1.0, 2.0).probabilities
        table = reshape(w, (2, 2))
        assert_allclose(table.entries.sum(), 1.0, atol=1e-12)
