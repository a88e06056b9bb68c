"""Batched Nelder-Mead simplex minimizer.

Runs many independent Nelder-Mead searches in lockstep: one "slot" per
search, all slots advancing one iteration per loop pass, with the objective
evaluated for every slot that needs a point in a single vectorized call.
A pass makes at most three objective calls: the reflection of every slot;
one call for every slot's second point, which is an expansion, an outside
contraction or an inside contraction, each centroid + coef * (target -
centroid); and one shrink call where a contraction was rejected. A qubit
readout search of 8 restarts makes a median of 143 objective calls.

The loop carries only the live slots. Its working arrays hold one simplex
per running search; when a slot stops (its simplex collapsed, or one more
iteration could overrun its budget) its best vertex, value, evaluation
count and stop reason are written to the result once and the slot is
dropped from every working array, so no later pass sorts, measures or
indexes it again.

Every vertex is computed with the same floating-point operations, in the
same order, as a plain one-slot sequential run from the same start point
(the tests keep such a run as the reference), so each slot's trajectory,
``x``, ``fun`` and ``nfev`` are bitwise identical however the slots are
batched together and whenever the other slots stop. The one rewritten
formula, an inside contraction's c + g * (w - c) for the reference's
c - g * (c - w), gives the same value, since IEEE negation of a
difference and of a product is exact.

Uses the adaptive coefficients of Gao and Han, which scale the expansion,
contraction and shrink factors with the problem dimension; they behave much
better than the classic constants once the dimension passes ~10, which is
where unitary-group charts live (d**2 - d parameters in the readout
search). The reflection coefficient is 1 in that scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["BatchResult", "minimize_batch"]


@dataclass
class BatchResult:
    """Best point, value, evaluation count and stop reason per slot.

    ``converged`` is true where the slot's simplex collapsed below
    ``fatol`` and ``xatol``, and false where the slot stopped because one
    more iteration could overrun its budget.
    """

    x: np.ndarray  # (slots, n)
    fun: np.ndarray  # (slots,)
    nfev: np.ndarray  # (slots,)
    converged: np.ndarray  # (slots,) bool


def minimize_batch(
    objective: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x0: np.ndarray,
    step: float,
    budget,
    fatol: float,
    xatol: float,
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
    converged_out = np.empty(n_slots, dtype=bool)
    rows = slots[:, None]

    while True:
        order = np.argsort(fsim, axis=1, kind="stable")
        fsim = fsim[rows, order]
        sim = sim[rows, order]

        moving = fsim[:, -1] - fsim[:, 0] > fatol
        if not moving.all():
            # Only a slot whose values have collapsed needs its diameter.
            moving |= np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) > xatol
        live = moving & (nfev <= limit)
        if not live.all():
            done = ~live
            stopped = slots[done]
            x_out[stopped] = sim[done, 0]
            f_out[stopped] = fsim[done, 0]
            nfev_out[stopped] = nfev[done]
            converged_out[stopped] = ~moving[done]
            if not live.any():
                break
            sim = sim[live]
            fsim = fsim[live]
            slots = slots[live]
            nfev = nfev[live]
            limit = limit[live]
            rows = np.arange(slots.size)[:, None]

        centroid = sim[:, :-1].sum(axis=1) / n
        worst = sim[:, -1]
        xr = centroid + (centroid - worst)
        fr = objective(xr, slots)
        nfev += 1

        # Every slot but those whose reflection lands between the best and
        # the second-worst vertex (which keep it as-is) tries one second
        # point, centroid + coef * (target - centroid): an expansion past a
        # reflection that beat the best vertex, an outside contraction
        # towards a reflection that beat only the worst, else an inside
        # contraction towards the worst vertex.
        f_worst = fsim[:, -1]
        expand = fr < fsim[:, 0]
        contract = ~expand & (fr >= fsim[:, -2])
        second = (expand | contract).nonzero()[0]
        h = None
        if second.size:
            inside = contract[second] & ~(fr[second] < f_worst[second])
            cs = centroid[second]
            target = np.where(inside[:, None], worst[second], xr[second])
            coef = np.where(expand[second], chi, gamma)
            x2 = cs + coef[:, None] * (target - cs)
            f2 = objective(x2, slots[second])
            nfev[second] += 1
            # An expansion must beat the reflection, an outside contraction
            # at least tie with it, and an inside contraction beat the worst
            # vertex. A rejected contraction shrinks the simplex towards its
            # best vertex, which replaces the whole rest of that simplex.
            fr2 = fr[second]
            accept = np.where(
                inside,
                f2 < f_worst[second],
                np.where(expand[second], f2 < fr2, f2 <= fr2),
            )
            shrink = ~accept & contract[second]
            if shrink.any():
                h = second[shrink]
                best = sim[h, :1]
                shrunk = best + sigma * (sim[h, 1:] - best)
                f_shrunk = objective(
                    shrunk.reshape(-1, n), np.repeat(slots[h], n)
                ).reshape(h.size, n)
                nfev[h] += n

        sim[:, -1] = xr
        fsim[:, -1] = fr
        if second.size:
            a = second[accept]
            sim[a, -1] = x2[accept]
            fsim[a, -1] = f2[accept]
        if h is not None:
            sim[h, 1:] = shrunk
            fsim[h, 1:] = f_shrunk

    return BatchResult(x=x_out, fun=f_out, nfev=nfev_out, converged=converged_out)
