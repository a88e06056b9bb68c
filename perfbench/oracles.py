"""Independent reference computations for checking entrobox outputs.

Nothing here imports entrobox. Marginals and partial traces are built by
explicit loops over the row-major index bijection, von Neumann entropies
come straight from ``numpy.linalg.eigvalsh``, basis readouts are the
diagonal of the full product U rho U^dag, and spin rotations use
``scipy.linalg.expm``. :func:`expected` turns these into the values that a
report of each named check must carry.
"""

from __future__ import annotations

import math
from functools import reduce as _fold
from operator import mul

import numpy as np
from scipy.linalg import expm

TOLERANCE = 1e-10


def _prod(factors) -> int:
    return _fold(mul, factors, 1)


def digits(index: int, factors) -> tuple[int, ...]:
    """Row-major sub-indices of a flat index."""
    out = []
    for n in reversed(factors):
        index, d = divmod(index, n)
        out.append(d)
    return tuple(reversed(out))


def factorizations(n: int, k: int) -> list[tuple[int, ...]]:
    """Ordered factorizations of ``n`` into ``k`` factors, each >= 2."""
    if k == 1:
        return [(n,)] if n >= 2 else []
    return [
        (a,) + rest
        for a in range(2, n + 1)
        if n % a == 0
        for rest in factorizations(n // a, k - 1)
    ]


def minimal_padded(dim: int, k: int) -> int:
    """Smallest n >= dim with at least one k-factor factorization."""
    n = max(dim, 2**k)
    while not factorizations(n, k):
        n += 1
    return n


def shannon(p) -> float:
    return -math.fsum(x * math.log(x) for x in p if x > 0.0)


def tsallis(p, q: float) -> float:
    if abs(q - 1.0) < 1e-6:
        return shannon(p)
    return (math.fsum(x**q for x in p if x > 0.0) - 1.0) / (1.0 - q)


def padded(p, n: int) -> list[float]:
    p = [float(x) for x in p]
    return p + [0.0] * (n - len(p))


def marginal(p, factors, keep) -> list[float]:
    """Marginal onto the kept subsystems (1-based), by summing entries."""
    p = padded(p, _prod(factors))
    kept = [factors[k - 1] for k in keep]
    out = [0.0] * _prod(kept)
    for i, x in enumerate(p):
        sub = digits(i, factors)
        j = 0
        for k, n in zip(keep, kept):
            j = j * n + sub[k - 1]
        out[j] += x
    return out


def partial_trace(rho, factors, keep) -> np.ndarray:
    """Reduced matrix of the kept subsystems, summed entry by entry.

    Entry (i, j) of the result collects every rho[a, b] whose kept
    sub-indices spell i and j and whose dropped sub-indices agree.
    """
    rho = np.asarray(rho, dtype=complex)
    total = _prod(factors)
    full = np.zeros((total, total), dtype=complex)
    full[: rho.shape[0], : rho.shape[1]] = rho
    dropped = [k for k in range(1, len(factors) + 1) if k not in keep]
    kept_dim = _prod(factors[k - 1] for k in keep)
    dropped_dim = _prod(factors[k - 1] for k in dropped)
    out = np.zeros((kept_dim, kept_dim), dtype=complex)

    def flat(kept_index: int, dropped_index: int) -> int:
        sub = [0] * len(factors)
        for k, d in zip(keep, digits(kept_index, [factors[k - 1] for k in keep])):
            sub[k - 1] = d
        for k, d in zip(dropped, digits(dropped_index, [factors[k - 1] for k in dropped])):
            sub[k - 1] = d
        index = 0
        for n, d in zip(factors, sub):
            index = index * n + d
        return index

    for i in range(kept_dim):
        for j in range(kept_dim):
            for t in range(dropped_dim):
                out[i, j] += full[flat(i, t), flat(j, t)]
    return out


def von_neumann(rho) -> float:
    lam = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
    return shannon(float(x) for x in lam)


def readout(rho, u) -> np.ndarray:
    """Basis readout diag(U rho U^dag) as real weights."""
    u = np.asarray(u, dtype=complex)
    return np.diag(u @ np.asarray(rho, dtype=complex) @ u.conj().T).real.copy()


def readout_entropy(rho, u) -> float:
    return shannon(float(x) for x in readout(rho, u))


def unitarity_defect(u) -> float:
    u = np.asarray(u, dtype=complex)
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())


def spin_unitary(dim: int, theta: float, phi: float) -> np.ndarray:
    """exp(-i phi Jz) exp(-i theta Jy) for spin (dim - 1) / 2, ascending m."""
    j = (dim - 1) / 2.0
    m = [-j + k for k in range(dim)]
    j_plus = np.zeros((dim, dim), dtype=complex)
    for k in range(dim - 1):
        j_plus[k + 1, k] = math.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    j_y = (j_plus - j_plus.conj().T) / 2j
    j_z = np.diag(np.array(m, dtype=complex))
    return expm(-1j * phi * j_z) @ expm(-1j * theta * j_y)


def _vec_split(p, factors) -> dict[str, float]:
    if len(factors) == 2:
        return {
            "joint": shannon(padded(p, _prod(factors))),
            "part1": shannon(marginal(p, factors, (1,))),
            "part2": shannon(marginal(p, factors, (2,))),
        }
    return {
        "joint": shannon(padded(p, _prod(factors))),
        "pair12": shannon(marginal(p, factors, (1, 2))),
        "pair23": shannon(marginal(p, factors, (2, 3))),
        "part2": shannon(marginal(p, factors, (2,))),
    }


def _rho_split(rho, factors) -> dict[str, float]:
    if len(factors) == 2:
        return {
            "joint": von_neumann(rho),
            "part1": von_neumann(partial_trace(rho, factors, (1,))),
            "part2": von_neumann(partial_trace(rho, factors, (2,))),
        }
    return {
        "joint": von_neumann(rho),
        "pair12": von_neumann(partial_trace(rho, factors, (1, 2))),
        "pair23": von_neumann(partial_trace(rho, factors, (2, 3))),
        "part2": von_neumann(partial_trace(rho, factors, (2,))),
    }


def _sides(entropies: dict[str, float]) -> dict[str, float]:
    """lhs/rhs of subadditivity (3 roles) or strong subadditivity (4)."""
    if "part1" in entropies:
        lhs = entropies["joint"]
        rhs = entropies["part1"] + entropies["part2"]
    else:
        lhs = entropies["joint"] + entropies["part2"]
        rhs = entropies["pair12"] + entropies["pair23"]
    out = {f"entropies.{k}": v for k, v in entropies.items()}
    out.update(lhs=lhs, rhs=rhs, gap=rhs - lhs)
    return out


def discord_values(rho) -> dict[str, float]:
    """Entropies of the artificial two-qubit split read in local eigenbases."""
    rho = np.asarray(rho, dtype=complex)
    full = np.zeros((4, 4), dtype=complex)
    full[: rho.shape[0], : rho.shape[1]] = rho
    r1 = partial_trace(full, (2, 2), (1,))
    r2 = partial_trace(full, (2, 2), (2,))
    s = von_neumann(full)
    s1 = von_neumann(r1)
    s2 = von_neumann(r2)
    v1 = np.linalg.eigh(r1)[1]
    v2 = np.linalg.eigh(r2)[1]
    w12 = readout(full, np.kron(v1.conj().T, v2.conj().T))
    table = [[float(w12[2 * a + b]) for b in range(2)] for a in range(2)]
    h12 = shannon(x for row in table for x in row)
    h1 = shannon(sum(row) for row in table)
    h2 = shannon(table[0][b] + table[1][b] for b in range(2))
    information = h1 + h2 - h12
    return {
        "s": s,
        "s1": s1,
        "s2": s2,
        "h12": h12,
        "information": information,
        "discord": s1 + s2 - s - information,
    }


def expected(check: str, state, shape=None, q=None, theta=None, phi=None) -> dict[str, float]:
    """Values (keyed as in the report dict, ``entropies.*`` nested) that a
    report of ``check`` on ``state`` must carry, to :data:`TOLERANCE`."""
    if check in ("subadd", "strong-subadd"):
        return _sides(_vec_split(state, shape))
    if check == "cond-chain":
        p = [float(x) for x in state]
        b = [p[0] + p[1], p[2] + p[3]]
        weighted = b[0] * shannon([p[0] / b[0], p[1] / b[0]]) + b[1] * shannon(
            [p[2] / b[1], p[3] / b[1]]
        )
        return {"lhs": weighted, "rhs": shannon(p) - shannon(b)}
    if check == "tsallis-chain":
        p = [float(x) for x in state]
        total = tsallis(p, q)
        coarse = tsallis([p[0] + p[1], p[2] + p[3]], q)
        conditional = total - coarse
        return {
            "entropies.total": total,
            "entropies.coarse": coarse,
            "entropies.conditional": conditional,
            "lhs": max(coarse, conditional),
            "rhs": total,
        }
    if check in ("q-subadd", "q-strong-subadd"):
        return _sides(_rho_split(state, shape))
    if check == "discord":
        return discord_values(state)
    if check == "axis-subadd":
        w = readout(state, spin_unitary(np.asarray(state).shape[0], theta, phi))
        return _sides(_vec_split(w / w.sum(), (2, 2)))
    if check == "readout-min":
        return {"entropies.von_neumann": von_neumann(state)}
    raise ValueError(f"no oracle for check {check!r}")


def lookup(report: dict, key: str) -> float:
    node = report
    for part in key.split("."):
        node = node[part]
    return float(node)


def mismatches(report: dict, want: dict[str, float], tol: float = TOLERANCE) -> list[str]:
    """Keys whose reported value differs from the oracle by more than ``tol``."""
    bad = []
    for key, value in want.items():
        try:
            got = lookup(report, key)
        except (KeyError, TypeError, ValueError):
            bad.append(f"{key}: missing")
            continue
        if not abs(got - value) <= tol:
            bad.append(f"{key}: got {got!r}, oracle {value!r}")
    return bad
