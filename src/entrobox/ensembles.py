"""Seeded random ensembles used by the sweeps: simplex points, full-rank
random density matrices, and Haar-random unitaries.

Everything is driven by :class:`numpy.random.Generator` instances so that a
master seed reproduces a whole sweep. Each sampler draws one state, or with
``size`` a stack of ``size`` states in one call; the stack equals, bit for
bit, ``size`` single draws in turn from the same generator. So a stream of
states drawn from one generator does not depend on how it is cut into
stacks: state ``k`` is the ``k``-th draw.

A flat Dirichlet stack is drawn as ``Generator.dirichlet(np.ones(d))``
draws it: ``d`` standard exponentials per point (a Gamma(1) variate is one
exponential), each point scaled by the reciprocal of their running sum. So
the points equal that method's bit for bit and leave the generator where it
would, without its per-call checks of the parameter vector.
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

    Child ``i`` depends only on ``(master_seed, i)``. No program path calls
    this: a suite job and ``gen`` draw every state from one generator each.
    It stays while the benchmark's per-layer tracer wraps it by name.
    """
    return np.random.SeedSequence(master_seed).spawn(count)


def dirichlet(dim: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Uniform point on the probability simplex (flat Dirichlet): (dim,),
    or (size, dim) with ``size``; normalized standard exponentials, as
    ``rng.dirichlet(np.ones(dim), size)`` draws them."""
    e = rng.standard_exponential((dim,) if size is None else (size, dim))
    # the sum in draw order, as numpy's own loop adds it
    return e * (1.0 / np.add.accumulate(e, axis=-1)[..., -1:])


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
    m = g @ g.conj().swapaxes(-1, -2)
    return m / m.trace(axis1=-2, axis2=-1).real[..., None, None]


def diagonal_density(dim: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Random diagonal density matrix: a Dirichlet point on the diagonal;
    (dim, dim), or (size, dim, dim) with ``size``."""
    p = dirichlet(dim, rng, size)
    out = np.zeros((*p.shape[:-1], dim * dim), dtype=complex)
    out[..., :: dim + 1] = p
    return out.reshape(*p.shape, dim)


def haar(dim: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix: (dim, dim),
    or (size, dim, dim) with ``size``.

    The R factor's diagonal phases are divided out, which corrects the raw
    QR distribution to the Haar measure.
    """
    q, r = np.linalg.qr(_complex_gaussian(dim, rng, size))
    d = r.diagonal(axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]
