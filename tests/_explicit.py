"""Independent oracles for the tests: brute-force index-bijection loops,
hand-coded reduction matrices written entry by entry, a plain sequential
Nelder-Mead search, and the suite's random draws made one state at a time.

Nothing here reuses the package's einsum/reshape machinery; mismatches
between these constructions and the library point at indexing bugs.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def shannon_brute(p) -> float:
    """Direct -sum p ln p with explicit 0 ln 0 = 0 handling."""
    return -math.fsum(x * math.log(x) for x in p if x > 0.0)


def tsallis_brute(p, q: float) -> float:
    return (math.fsum(x**q for x in p if x > 0.0) - 1.0) / (1.0 - q)


def conditional_entropy_brute(p) -> float:
    """Defining ratio formula of the conditional entropy of a 4-vector."""
    b1 = p[0] + p[1]
    b2 = p[2] + p[3]
    total = 0.0
    if b1 > 0.0:
        total += math.fsum(
            -x * math.log(x / b1) for x in (p[0], p[1]) if x > 0.0
        )
    if b2 > 0.0:
        total += math.fsum(
            -x * math.log(x / b2) for x in (p[2], p[3]) if x > 0.0
        )
    return total


def admissible_shapes_brute(dim: int, factors: int) -> list[tuple[int, ...]]:
    """Every ordered factorization into ``factors`` factors >= 2 of the
    least n >= dim that has one, found by trying every tuple of divisors of
    n in lexicographic order."""
    n = dim
    while True:
        divisors = [a for a in range(2, n + 1) if n % a == 0]
        shapes = [
            s for s in itertools.product(divisors, repeat=factors) if math.prod(s) == n
        ]
        if shapes:
            return shapes
        n += 1


def marginal_brute(vec, shape, keep) -> np.ndarray:
    """Marginal via explicit loops over the row-major bijection.

    ``keep`` is a tuple of 1-based axes; the result is returned flat in
    row-major order of the kept axes.
    """
    arr = np.zeros(int(np.prod([shape[k - 1] for k in keep])))
    ranges = [range(n) for n in shape]
    strides = [int(np.prod(shape[i + 1 :])) for i in range(len(shape))]
    kept_strides = []
    acc = 1
    for k in reversed(keep):
        kept_strides.insert(0, acc)
        acc *= shape[k - 1]
    import itertools

    for idx in itertools.product(*ranges):
        flat = sum(i * s for i, s in zip(idx, strides))
        out_flat = sum(idx[k - 1] * s for k, s in zip(keep, kept_strides))
        arr[out_flat] += vec[flat]
    return arr


def reduce_brute(mat: np.ndarray, factors, kept) -> np.ndarray:
    """Reduction via explicit loops over paired row/column sub-indices."""
    import itertools

    dim = mat.shape[0]
    kept_dims = [factors[k - 1] for k in kept]
    out = np.zeros((int(np.prod(kept_dims)), int(np.prod(kept_dims))), dtype=complex)
    strides = [int(np.prod(factors[i + 1 :])) for i in range(len(factors))]
    kept_strides = []
    acc = 1
    for k in reversed(kept):
        kept_strides.insert(0, acc)
        acc *= factors[k - 1]
    ranges = [range(n) for n in factors]
    for row in itertools.product(*ranges):
        for col in itertools.product(*ranges):
            if any(
                row[a] != col[a] for a in range(len(factors)) if (a + 1) not in kept
            ):
                continue
            r_flat = sum(i * s for i, s in zip(row, strides))
            c_flat = sum(i * s for i, s in zip(col, strides))
            if r_flat >= dim or c_flat >= dim:
                continue
            r_out = sum(row[k - 1] * s for k, s in zip(kept, kept_strides))
            c_out = sum(col[k - 1] * s for k, s in zip(kept, kept_strides))
            out[r_out, c_out] += mat[r_flat, c_flat]
    return out


def _e(mat: np.ndarray, i: int, j: int) -> complex:
    """1-based entry access with zero outside the physical block."""
    if i <= mat.shape[0] and j <= mat.shape[1]:
        return mat[i - 1, j - 1]
    return 0.0


def r12_of_7(m: np.ndarray) -> np.ndarray:
    """Pair (1,2) reduction of a 7 x 7 matrix padded to the 2x2x2 cube."""
    e = lambda i, j: _e(m, i, j)  # noqa: E731
    return np.array(
        [
            [e(1, 1) + e(2, 2), e(1, 3) + e(2, 4), e(1, 5) + e(2, 6), e(1, 7)],
            [e(3, 1) + e(4, 2), e(3, 3) + e(4, 4), e(3, 5) + e(4, 6), e(3, 7)],
            [e(5, 1) + e(6, 2), e(5, 3) + e(6, 4), e(5, 5) + e(6, 6), e(5, 7)],
            [e(7, 1), e(7, 3), e(7, 5), e(7, 7)],
        ]
    )


def r23_of_7(m: np.ndarray) -> np.ndarray:
    """Pair (2,3) reduction of a 7 x 7 matrix padded to the 2x2x2 cube."""
    e = lambda i, j: _e(m, i, j)  # noqa: E731
    return np.array(
        [
            [e(1, 1) + e(5, 5), e(1, 2) + e(5, 6), e(1, 3) + e(5, 7), e(1, 4)],
            [e(2, 1) + e(6, 5), e(2, 2) + e(6, 6), e(2, 3) + e(6, 7), e(2, 4)],
            [e(3, 1) + e(7, 5), e(3, 2) + e(7, 6), e(3, 3) + e(7, 7), e(3, 4)],
            [e(4, 1), e(4, 2), e(4, 3), e(4, 4)],
        ]
    )


def r2_of_7(m: np.ndarray) -> np.ndarray:
    """Middle-system reduction of a 7 x 7 matrix padded to the cube."""
    e = lambda i, j: _e(m, i, j)  # noqa: E731
    return np.array(
        [
            [
                e(1, 1) + e(2, 2) + e(5, 5) + e(6, 6),
                e(1, 3) + e(2, 4) + e(5, 7),
            ],
            [
                e(3, 1) + e(4, 2) + e(7, 5),
                e(3, 3) + e(4, 4) + e(7, 7),
            ],
        ]
    )


def r12_of_5(m: np.ndarray) -> np.ndarray:
    """Pair (1,2) reduction of a 5 x 5 matrix padded to the cube.

    The live block is 3 x 3; the fourth row and column are zero.
    """
    e = lambda i, j: _e(m, i, j)  # noqa: E731
    out = np.zeros((4, 4), dtype=complex)
    out[:3, :3] = np.array(
        [
            [e(1, 1) + e(2, 2), e(1, 3) + e(2, 4), e(1, 5)],
            [e(3, 1) + e(4, 2), e(3, 3) + e(4, 4), e(3, 5)],
            [e(5, 1), e(5, 3), e(5, 5)],
        ]
    )
    return out


def r2_of_5(m: np.ndarray) -> np.ndarray:
    """Middle-system reduction of a 5 x 5 matrix padded to the cube."""
    e = lambda i, j: _e(m, i, j)  # noqa: E731
    return np.array(
        [
            [e(1, 1) + e(2, 2) + e(5, 5), e(1, 3) + e(2, 4)],
            [e(3, 1) + e(4, 2), e(3, 3) + e(4, 4)],
        ]
    )


def r1_of_4(m: np.ndarray) -> np.ndarray:
    """First-qubit reduction of a 4 x 4 matrix under the (2, 2) reading."""
    e = lambda i, j: _e(m, i, j)  # noqa: E731
    return np.array(
        [
            [e(1, 1) + e(2, 2), e(1, 3) + e(2, 4)],
            [e(3, 1) + e(4, 2), e(3, 3) + e(4, 4)],
        ]
    )


def r2_of_4(m: np.ndarray) -> np.ndarray:
    """Second-qubit reduction of a 4 x 4 matrix under the (2, 2) reading."""
    e = lambda i, j: _e(m, i, j)  # noqa: E731
    return np.array(
        [
            [e(1, 1) + e(3, 3), e(1, 2) + e(3, 4)],
            [e(2, 1) + e(4, 3), e(2, 2) + e(4, 4)],
        ]
    )


def qutrit_r1(m: np.ndarray) -> np.ndarray:
    """First-qubit reduction of a qutrit padded to 4 x 4."""
    e = lambda i, j: _e(m, i, j)  # noqa: E731
    return np.array(
        [
            [e(1, 1) + e(2, 2), e(1, 3)],
            [e(3, 1), e(3, 3)],
        ]
    )


def qutrit_r2(m: np.ndarray) -> np.ndarray:
    """Second-qubit reduction of a qutrit padded to 4 x 4."""
    e = lambda i, j: _e(m, i, j)  # noqa: E731
    return np.array(
        [
            [e(1, 1) + e(3, 3), e(1, 2)],
            [e(2, 1), e(2, 2)],
        ]
    )


def nelder_mead_sequential(objective, x0, step, budget, fatol, xatol):
    """One Nelder-Mead search on Python floats, one point at a time.

    Same rules and adaptive coefficients as the batched minimizer: stable
    ordering of the vertices, centroid of all but the worst summed from the
    best vertex down and then divided by n, a unit reflection, and an
    iteration started only while reflect + contract + shrink still fits in
    ``budget``. Returns ``(x, fun, nfev, iterations, shrinks)``.
    """
    n = len(x0)
    chi = 1.0 + 2.0 / n
    gamma = 0.75 - 1.0 / (2.0 * n)
    sigma = 1.0 - 1.0 / n
    sim = [[float(v) for v in x0] for _ in range(n + 1)]
    for i in range(n):
        sim[i + 1][i] += step
    fsim = [objective(v) for v in sim]
    nfev = n + 1
    iterations = 0
    shrinks = 0
    while True:
        order = sorted(range(n + 1), key=lambda i: fsim[i])
        sim = [sim[i] for i in order]
        fsim = [fsim[i] for i in order]
        spread_x = max(abs(v[j] - sim[0][j]) for v in sim for j in range(n))
        if fsim[-1] - fsim[0] <= fatol and spread_x <= xatol:
            break
        if nfev + n + 2 > budget:
            break
        iterations += 1

        centroid = []
        for j in range(n):
            total = sim[0][j]
            for v in sim[1:n]:
                total += v[j]
            centroid.append(total / n)
        worst = sim[-1]
        xr = [c + (c - w) for c, w in zip(centroid, worst)]
        fr = objective(xr)
        nfev += 1

        if fr < fsim[0]:
            xe = [c + chi * (r - c) for c, r in zip(centroid, xr)]
            fe = objective(xe)
            nfev += 1
            if fe < fr:
                sim[-1], fsim[-1] = xe, fe
            else:
                sim[-1], fsim[-1] = xr, fr
            continue
        if fr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fr
            continue

        if fr < fsim[-1]:
            xc = [c + gamma * (r - c) for c, r in zip(centroid, xr)]
            fc = objective(xc)
            accept = fc <= fr
        else:
            xc = [c - gamma * (c - w) for c, w in zip(centroid, worst)]
            fc = objective(xc)
            accept = fc < fsim[-1]
        nfev += 1
        if accept:
            sim[-1], fsim[-1] = xc, fc
            continue

        shrinks += 1
        best = sim[0]
        for i in range(1, n + 1):
            sim[i] = [b + sigma * (v - b) for b, v in zip(best, sim[i])]
            fsim[i] = objective(sim[i])
        nfev += n
    return sim[0], fsim[0], nfev, iterations, shrinks


# ---------------------------------------------------------------------------
# the suite's random draws, one state at a time, by raw numpy calls

# Each suite job `tag` has three streams: its states, the extra draws its
# checks take for them (a readout basis, a spin axis, a search seed), and
# the extra draws for an input state.
STATES, EXTRAS, INPUT_EXTRAS = (), (0,), (1,)


def draw_one(kind: str, dim: int, rng: np.random.Generator):
    """One draw of ``kind`` from ``rng``, alone.

    States: ``dirichlet``, ``ginibre``, ``diagonal``. Extra draws: ``haar``
    (a readout basis), ``axis`` (a spin axis as (theta, phi)) and ``seed``
    (a readout search's seed).
    """
    if kind == "dirichlet":
        return rng.dirichlet(np.ones(dim))
    if kind == "diagonal":
        return np.diag(rng.dirichlet(np.ones(dim))).astype(complex)
    if kind == "axis":
        theta = math.acos(rng.uniform(-1.0, 1.0))
        return theta, rng.uniform(0.0, 2.0 * math.pi)
    if kind == "seed":
        return int(rng.integers(2**63))
    re = rng.standard_normal((dim, dim))
    g = re + 1j * rng.standard_normal((dim, dim))
    if kind == "ginibre":
        m = g @ g.conj().T
        return m / m.trace().real
    if kind == "haar":
        q, r = np.linalg.qr(g)
        phases = r.diagonal() / np.abs(r.diagonal())
        return q * phases
    raise ValueError(f"unknown draw {kind!r}")


def job_draws(kind: str, dim: int, seed: int, tag: int, stream: tuple[int, ...], count: int):
    """The first ``count`` draws of one stream of job ``tag``, in turn."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tag, *stream)))
    return [draw_one(kind, dim, rng) for _ in range(count)]
