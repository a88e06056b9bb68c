"""Seeded random ensembles used by the sweeps: simplex points, full-rank
random density matrices, and Haar-random unitaries.

Everything is driven by :class:`numpy.random.Generator` instances so that a
master seed reproduces a whole sweep. Each sampler draws one state, or with
``size`` a stack of ``size`` states in one call; the stack equals, bit for
bit, ``size`` single draws in turn from the same generator. So a stream of
states drawn from one generator does not depend on how it is cut into
stacks: state ``k`` is the ``k``-th draw.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "spawn_seeds",
    "dirichlet",
    "ginibre",
    "diagonal_density",
    "haar",
]


def spawn_seeds(master_seed: int, count: int) -> list[np.random.SeedSequence]:
    """Child seed sequences for ``count`` states, derived from one master.

    Child ``i`` depends only on ``(master_seed, i)``, so trial ``i`` is the
    same state no matter the batch or thread layout.
    """
    return np.random.SeedSequence(master_seed).spawn(count)


def dirichlet(dim: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Uniform point on the probability simplex (flat Dirichlet): (dim,),
    or (size, dim) with ``size``."""
    return rng.dirichlet(np.ones(dim), size=size)


def _complex_gaussian(dim: int, rng: np.random.Generator, size: int | None) -> np.ndarray:
    """(dim, dim) iid standard complex Gaussians, or a stack of ``size`` of
    them; each matrix draws its real parts, then its imaginary parts."""
    g = rng.standard_normal((2, dim, dim) if size is None else (size, 2, dim, dim))
    return g[..., 0, :, :] + 1j * g[..., 1, :, :]


def ginibre(dim: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Full-rank random density matrix rho = G G^dag / Tr(G G^dag): (dim,
    dim), or (size, dim, dim) with ``size``.

    G has iid standard complex Gaussian entries, so the output follows the
    Hilbert-Schmidt measure and almost surely has a nondegenerate, strictly
    positive spectrum.
    """
    g = _complex_gaussian(dim, rng, size)
    m = g @ np.swapaxes(g.conj(), -1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]


def diagonal_density(dim: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Random diagonal density matrix: a Dirichlet point on the diagonal;
    (dim, dim), or (size, dim, dim) with ``size``."""
    return (dirichlet(dim, rng, size)[..., None] * np.eye(dim)).astype(complex)


def haar(dim: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix: (dim, dim),
    or (size, dim, dim) with ``size``.

    The R factor's diagonal phases are divided out, which corrects the raw
    QR distribution to the Haar measure.
    """
    q, r = np.linalg.qr(_complex_gaussian(dim, rng, size))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]
