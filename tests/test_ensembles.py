"""Tests for the random state generators and seed bookkeeping."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from entrobox.ensembles import (
    diagonal_density,
    dirichlet,
    ginibre,
    haar,
    spawn_seeds,
)


def test_spawn_seeds_deterministic_and_distinct():
    a = spawn_seeds(123, 5)
    b = spawn_seeds(123, 5)
    assert len(a) == 5
    for sa, sb in zip(a, b):
        assert np.random.default_rng(sa).integers(1 << 30) == np.random.default_rng(
            sb
        ).integers(1 << 30)
    draws = {int(np.random.default_rng(s).integers(1 << 30)) for s in a}
    assert len(draws) == 5


def test_dirichlet_is_a_distribution():
    rng = np.random.default_rng(0)
    for dim in (2, 7, 12):
        p = dirichlet(dim, rng)
        assert p.shape == (dim,)
        assert p.min() >= 0.0
        assert_allclose(p.sum(), 1.0, atol=1e-12)


def test_dirichlet_deterministic_per_seed():
    a = dirichlet(6, np.random.default_rng(42))
    b = dirichlet(6, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_ginibre_is_a_density_matrix():
    rng = np.random.default_rng(1)
    for dim in (2, 5, 7):
        rho = ginibre(dim, rng)
        assert rho.shape == (dim, dim)
        assert_allclose(rho, rho.conj().T, atol=1e-14)
        assert_allclose(np.trace(rho).real, 1.0, atol=1e-12)
        assert np.linalg.eigvalsh(rho).min() >= -1e-14


def test_ginibre_deterministic_per_seed():
    a = ginibre(4, np.random.default_rng(7))
    b = ginibre(4, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_ginibre_generically_full_rank():
    rho = ginibre(4, np.random.default_rng(2))
    assert np.linalg.eigvalsh(rho).min() > 1e-6


def test_diagonal_density_is_diagonal():
    rho = diagonal_density(5, np.random.default_rng(3))
    assert_allclose(rho, np.diag(rho.diagonal()), atol=0)
    assert_allclose(np.trace(rho).real, 1.0, atol=1e-12)
    assert rho.diagonal().real.min() >= 0.0


def test_haar_is_unitary():
    rng = np.random.default_rng(4)
    for dim in (2, 4, 6):
        u = haar(dim, rng)
        assert_allclose(u @ u.conj().T, np.eye(dim), atol=1e-13)


def test_haar_deterministic_per_seed():
    a = haar(3, np.random.default_rng(9))
    b = haar(3, np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_haar_phases_spread_over_circle():
    # a crude invariance check: eigenvalue phases of pooled samples should
    # land in every quadrant, which a phase-biased QR convention would fail
    rng = np.random.default_rng(5)
    phases = np.concatenate(
        [np.angle(np.linalg.eigvals(haar(4, rng))) for _ in range(50)]
    )
    counts, _ = np.histogram(phases, bins=4, range=(-np.pi, np.pi))
    assert counts.min() > 10


@pytest.mark.parametrize("sampler", [dirichlet, ginibre, diagonal_density, haar])
def test_a_stack_is_the_single_draws_in_turn(sampler):
    # so a stream of states does not depend on how it is cut into stacks
    for dim in (2, 3, 5):
        rng = np.random.default_rng(6)
        singles = np.stack([sampler(dim, rng) for _ in range(7)])
        rng = np.random.default_rng(6)
        stacks = np.concatenate([sampler(dim, rng, 1), sampler(dim, rng, 2), sampler(dim, rng, 4)])
        assert stacks.dtype == singles.dtype and stacks.shape == singles.shape
        assert stacks.tobytes() == singles.tobytes(), dim
