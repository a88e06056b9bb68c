"""Batched Nelder-Mead simplex minimizer.

Runs many independent Nelder-Mead searches in lockstep: one "slot" per
search, all slots advancing one iteration per loop pass, with the objective
evaluated for every slot that needs a point in a single vectorized call.

The loop carries only the live slots. Its working arrays hold one simplex
per running search; when a slot stops (its simplex collapsed, or one more
iteration could overrun its budget) its best vertex, value and evaluation
count are written to the result once and the slot is dropped from every
working array, so no later pass sorts, measures or indexes it again.

Every vertex is computed with the same floating-point operations, in the
same order, as a plain one-slot sequential run from the same start point
(the tests keep such a run as the reference), so each slot's trajectory,
``x``, ``fun`` and ``nfev`` are bitwise identical however the slots are
batched together and whenever the other slots stop.

Uses the adaptive coefficients of Gao and Han, which scale the expansion,
contraction and shrink factors with the problem dimension; they behave much
better than the classic constants once the dimension passes ~10, which is
where unitary-group charts live (d**2 parameters). The reflection
coefficient is 1 in that scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["BatchResult", "minimize_batch"]


@dataclass
class BatchResult:
    """Best point, value, and evaluation count per slot."""

    x: np.ndarray  # (slots, n)
    fun: np.ndarray  # (slots,)
    nfev: np.ndarray  # (slots,)


def minimize_batch(
    objective: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x0: np.ndarray,
    step: float,
    budget,
    fatol: float = 1e-12,
    xatol: float = 1e-9,
) -> BatchResult:
    """Minimize per slot, starting each at ``x0[slot]``.

    ``objective(points, slots)`` must return one value per row of
    ``points``, where ``slots`` says which slot each row belongs to.
    ``step`` sets the edge length of the initial axis-aligned simplex and
    ``budget`` (scalar or per-slot array) caps objective evaluations per
    slot. A slot stops early once its simplex collapses below ``fatol``
    and ``xatol``.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    n_slots, n = x0.shape
    budget = np.broadcast_to(np.asarray(budget, dtype=int), (n_slots,))
    if int(budget.min()) < n + 1:
        raise ValueError(
            f"budget {int(budget.min())} cannot cover the initial {n + 1} points"
        )

    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    idx = np.arange(n)
    sim[:, 1 + idx, idx] += step

    slots = np.arange(n_slots)
    fsim = objective(sim.reshape(-1, n), np.repeat(slots, n + 1)).reshape(
        n_slots, n + 1
    )
    nfev = np.full(n_slots, n + 1)

    # Adaptive coefficients (expansion, contraction, shrink).
    chi = 1.0 + 2.0 / n
    gamma = 0.75 - 1.0 / (2.0 * n)
    sigma = 1.0 - 1.0 / n

    # A slot starts an iteration only if the worst case (reflect + contract
    # + shrink of n vertices) fits in what is left of its budget.
    limit = budget - (n + 2)

    x_out = np.empty((n_slots, n))
    f_out = np.empty(n_slots, dtype=fsim.dtype)
    nfev_out = np.empty_like(nfev)
    rows = slots[:, None]

    while True:
        order = np.argsort(fsim, axis=1, kind="stable")
        fsim = fsim[rows, order]
        sim = sim[rows, order]

        live = fsim[:, -1] - fsim[:, 0] > fatol
        live |= np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) > xatol
        live &= nfev <= limit
        if not live.all():
            done = ~live
            stopped = slots[done]
            x_out[stopped] = sim[done, 0]
            f_out[stopped] = fsim[done, 0]
            nfev_out[stopped] = nfev[done]
            if not live.any():
                break
            sim = sim[live]
            fsim = fsim[live]
            slots = slots[live]
            nfev = nfev[live]
            limit = limit[live]
            rows = np.arange(slots.size)[:, None]

        centroid = sim[:, :-1].sum(axis=1) / n
        xr = centroid + (centroid - sim[:, -1])
        fr = objective(xr, slots)
        nfev += 1

        expand = fr < fsim[:, 0]
        # Middle case fr < second-worst keeps the reflection as-is.
        contract = ~expand & (fr >= fsim[:, -2])
        any_expand = expand.any()
        any_contract = contract.any()
        if any_expand:
            e = expand.nonzero()[0]
            xe = centroid[e] + chi * (xr[e] - centroid[e])
            fe = objective(xe, slots[e])
            nfev[e] += 1
            better = fe < fr[e]
            e = e[better]
            xe = xe[better]
            fe = fe[better]

        h = None
        if any_contract:
            c = contract.nonzero()[0]
            worst = sim[c, -1]
            f_worst = fsim[c, -1]
            outside = fr[c] < f_worst
            cc = centroid[c]
            xc = np.where(
                outside[:, None],
                cc + gamma * (xr[c] - cc),
                cc - gamma * (cc - worst),
            )
            fc = objective(xc, slots[c])
            nfev[c] += 1
            # Outside contraction accepts ties with the reflection; inside
            # contraction must strictly beat the worst vertex. A rejected
            # contraction shrinks the simplex towards its best vertex,
            # which replaces the whole rest of that simplex below.
            accept = np.where(outside, fc <= fr[c], fc < f_worst)
            if not accept.all():
                h = c[~accept]
                best = sim[h, :1]
                shrunk = best + sigma * (sim[h, 1:] - best)
                f_shrunk = objective(
                    shrunk.reshape(-1, n), np.repeat(slots[h], n)
                ).reshape(h.size, n)
                nfev[h] += n

        sim[:, -1] = xr
        fsim[:, -1] = fr
        if any_expand:
            sim[e, -1] = xe
            fsim[e, -1] = fe
        if any_contract:
            sim[c, -1] = xc
            fsim[c, -1] = fc
        if h is not None:
            sim[h, 1:] = shrunk
            fsim[h, 1:] = f_shrunk

    return BatchResult(x=x_out, fun=f_out, nfev=nfev_out)
