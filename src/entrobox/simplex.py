"""Probability vectors on the simplex, artificial subsystem tables, and the
classical entropy identities and inequalities built on them.

The central trick: a plain probability vector of dimension N, padded with
zeros when N does not factor, is reread as a joint distribution of two or
three artificial subsystems through the row-major index bijection

    i  <->  (i1, i2)       with  i = (i1 - 1) * N2 + i2,
    i  <->  (i1, i2, i3)   with  i = ((i1 - 1) * N2 + (i2 - 1)) * N3 + i3,

(1-based on the right, matching the usual tableau layout; internally numpy's
C-order reshape realizes exactly this map). Marginals of the table then play
the role of subsystem states, and subadditivity or strong subadditivity of
Shannon entropy become nontrivial inequalities for the single vector.

All entropies are in nats and use the convention 0 ln 0 = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .errors import (
    BadAxisError,
    BadOrderError,
    NegativeProbabilityError,
    ProbabilitySumError,
    ShapeMismatchError,
    ShrinkForbiddenError,
)
from .report import GAP_TOLERANCE, InequalityReport, make_report

__all__ = [
    "ProbVec",
    "ProbTable",
    "EntropyValue",
    "ConditionalSplit",
    "validate_prob_vec",
    "normalized_prob_vec",
    "pad",
    "reshape",
    "marginal2",
    "marginal3",
    "shannon",
    "tsallis",
    "subadditivity_gap",
    "strong_subadditivity_gap",
    "conditional_pair",
    "conditional_entropy",
    "conditional_tsallis",
    "tsallis_monotonicity_check",
    "minimal_padded_dim",
    "admissible_shapes",
]

# Orders this close to 1 are evaluated as the Shannon limit.
_Q_SHANNON_WINDOW = 1e-6


@dataclass(frozen=True, eq=False)
class ProbVec:
    """An immutable probability vector.

    Construct via :func:`validate_prob_vec` for raw external data; direct
    construction is for values already known to lie on the simplex.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ShapeMismatchError("probability vector must be 1-d and nonempty")
        _freeze(self, "values", arr)

    @property
    def dim(self) -> int:
        return self.values.size

    def __len__(self) -> int:
        return self.values.size

    def __iter__(self):
        return iter(self.values)


@dataclass(frozen=True, eq=False)
class ProbTable:
    """A probability vector reread as a joint table of 2 or 3 subsystems.

    ``entries`` keeps the flat row-major order of the source vector, so
    ``flatten`` is exact; ``as_array`` exposes the multi-index view.
    """

    entries: np.ndarray
    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries, dtype=float).reshape(-1)
        shape = _factors(self.shape, None, arr.size)
        if math.prod(shape) != arr.size:
            raise ShapeMismatchError(f"shape {shape} does not index {arr.size} entries")
        _freeze(self, "entries", arr)
        object.__setattr__(self, "shape", shape)

    @property
    def factors(self) -> int:
        return len(self.shape)

    def as_array(self) -> np.ndarray:
        return self.entries.reshape(self.shape)

    def flatten(self) -> ProbVec:
        """Undo :func:`reshape`; bit-identical to the source vector."""
        return ProbVec(self.entries)


@dataclass(frozen=True)
class EntropyValue:
    """An entropy with a tag saying which functional produced it.

    ``kind`` is one of ``"shannon"``, ``"tsallis"``, ``"von_neumann"``,
    ``"conditional"``; ``q`` is set for the Tsallis family.
    """

    value: float
    kind: str
    q: float | None = None

    def __float__(self) -> float:
        return float(self.value)


@dataclass(frozen=True)
class ConditionalSplit:
    """The two conditional 2-vectors carved out of a 4-vector.

    ``v`` renormalizes the first two components, ``v_tilde`` the last two.
    A block whose probability vanishes is replaced by the uniform 2-vector
    and noted in ``flags``.
    """

    v: ProbVec
    v_tilde: ProbVec
    flags: tuple[str, ...] = ()


def _freeze(obj, name: str, arr: np.ndarray) -> None:
    """Set field ``name`` of the frozen dataclass ``obj`` to a read-only
    copy of ``arr``."""
    arr = arr.copy()
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)


def _factors(shape, k: int | None, dim: int) -> tuple[int, ...]:
    """``shape`` as int factors after checking the rereading rule: ``k``
    factors (2 or 3 when ``k`` is None), each >= 2, whose product covers
    ``dim`` entries once the object is zero-padded."""
    shape = tuple(shape)
    if len(shape) not in ((k,) if k else (2, 3)):
        raise ShapeMismatchError(f"need {k or '2 or 3'} factors, got {shape}")
    shape = tuple(int(n) for n in shape)
    if min(shape) < 2:
        raise ShapeMismatchError(f"every factor must be >= 2, got {shape}")
    if math.prod(shape) < dim:
        raise ShapeMismatchError(
            f"shape {shape} covers only {math.prod(shape)} of {dim} entries"
        )
    return shape


def _zero_padded(values: np.ndarray, size: int) -> np.ndarray:
    out = np.zeros(size)
    out[: values.size] = values
    return out


def _as_float_vec(raw) -> np.ndarray:
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise NegativeProbabilityError(f"not a numeric vector: {exc}") from exc
    if arr.ndim != 1:
        raise ShapeMismatchError(f"need a 1-d vector, got shape {arr.shape}")
    return arr


def validate_prob_vec(raw, tol: float = 1e-10) -> ProbVec:
    """Validate raw data as a probability vector.

    Components in ``[-tol, 0)`` are clipped to zero; anything more negative
    raises. The sum must sit within 1e-6 of 1 before the final exact
    renormalization. Use :func:`normalized_prob_vec` for data that is only
    known to be nonnegative.
    """
    arr = _as_float_vec(raw)
    if arr.size == 0:
        raise ShapeMismatchError("probability vector must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise NegativeProbabilityError("probability vector has non-finite entries")
    low = arr.min()
    if low < -tol:
        raise NegativeProbabilityError(
            f"component {low:.3e} is below the clipping tolerance -{tol:.1e}"
        )
    arr = np.clip(arr, 0.0, None)
    total = arr.sum()
    if abs(total - 1.0) > 1e-6:
        raise ProbabilitySumError(f"components sum to {total!r}, not 1")
    return ProbVec(arr / total)


def normalized_prob_vec(raw, tol: float = 1e-10) -> ProbVec:
    """Normalize an arbitrary nonnegative vector onto the simplex.

    The entropy inequalities hold for any nonnegative weights once they are
    normalized; this is the explicit entry point for such data.
    """
    arr = _as_float_vec(raw)
    if arr.size == 0:
        raise ShapeMismatchError("weight vector must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise NegativeProbabilityError("weight vector has non-finite entries")
    if arr.min() < -tol:
        raise NegativeProbabilityError("weight vector has negative entries")
    arr = np.clip(arr, 0.0, None)
    total = arr.sum()
    if total <= 0.0:
        raise ProbabilitySumError("weight vector sums to zero")
    return ProbVec(arr / total)


def pad(p: ProbVec, new_dim: int) -> ProbVec:
    """Append zero components until ``p`` has ``new_dim`` of them.

    Padding never changes the entropy or any marginal-driven quantity; it
    only makes non-factorable dimensions factorable.
    """
    if new_dim < p.dim:
        raise ShrinkForbiddenError(f"cannot pad {p.dim}-vector down to {new_dim}")
    if new_dim == p.dim:
        return p
    return ProbVec(_zero_padded(p.values, new_dim))


def reshape(p: ProbVec, shape: tuple[int, ...]) -> ProbTable:
    """Reread ``p`` as a joint table with the given factor dimensions.

    The product of the factors must equal ``p.dim`` exactly; callers pad
    first. The flat order is preserved, so the row-major bijection between
    the single index and the multi-index is the identity on memory.
    """
    return ProbTable(p.values, shape)


def marginal2(table: ProbTable, keep: int) -> ProbVec:
    """Marginal of a 2-factor table onto subsystem ``keep`` (1 or 2)."""
    if table.factors != 2:
        raise BadAxisError("marginal2 needs a 2-factor table")
    if keep not in (1, 2):
        raise BadAxisError(f"keep must be 1 or 2, got {keep!r}")
    summed = table.as_array().sum(axis=2 - keep)
    return ProbVec(summed)


def marginal3(table: ProbTable, keep: tuple[int, ...]):
    """Marginal of a 3-factor table onto kept subsystems.

    ``keep`` is one of ``(1, 2)``, ``(2, 3)``, ``(2,)``; the first two
    return pair tables, the last the middle single-system marginal. These
    are exactly the three marginals entering strong subadditivity.
    """
    if table.factors != 3:
        raise BadAxisError("marginal3 needs a 3-factor table")
    keep = tuple(int(k) for k in keep)
    arr = table.as_array()
    if keep == (1, 2):
        out = arr.sum(axis=2)
        return ProbTable(out.reshape(-1), out.shape)
    if keep == (2, 3):
        out = arr.sum(axis=0)
        return ProbTable(out.reshape(-1), out.shape)
    if keep == (2,):
        return ProbVec(arr.sum(axis=(0, 2)))
    raise BadAxisError(f"keep must be (1, 2), (2, 3) or (2,), got {keep!r}")


def _shannon_raw(arr: np.ndarray) -> float:
    return float(-xlogy(arr, arr).sum())


def shannon(p: ProbVec) -> EntropyValue:
    """Shannon entropy in nats, with 0 ln 0 = 0."""
    return EntropyValue(_shannon_raw(p.values), "shannon")


def _tsallis_raw(arr: np.ndarray, q: float) -> float:
    if abs(q - 1.0) < _Q_SHANNON_WINDOW:
        return _shannon_raw(arr)
    # 0**q = 0 for q > 0, which numpy honors.
    return float((np.power(arr, q).sum() - 1.0) / (1.0 - q))


def _order(q) -> float:
    q = float(q)
    if not math.isfinite(q) or q <= 0.0:
        raise BadOrderError(f"Tsallis order must be positive, got {q!r}")
    return q


def tsallis(p: ProbVec, q: float) -> EntropyValue:
    """Tsallis entropy of order ``q > 0``; continuous through q = 1.

    Orders within 1e-6 of 1 are evaluated as Shannon entropy, which the
    Tsallis family approaches in that limit.
    """
    q = _order(q)
    return EntropyValue(_tsallis_raw(p.values, q), "tsallis", q=q)


def _exact_shapes(n: int, factors: int) -> list[tuple[int, ...]]:
    shapes: list[tuple[int, ...]] = []
    if factors == 2:
        for a in range(2, n // 2 + 1):
            if n % a == 0 and n // a >= 2:
                shapes.append((a, n // a))
    else:
        for a in range(2, n // 4 + 1):
            if n % a:
                continue
            for b in range(2, n // a // 2 + 1):
                if (n // a) % b == 0 and n // a // b >= 2:
                    shapes.append((a, b, n // (a * b)))
    return shapes


def minimal_padded_dim(dim: int, factors: int) -> int:
    """Smallest N' >= dim admitting ``factors`` factors all >= 2."""
    if factors not in (2, 3):
        raise ShapeMismatchError(f"need 2 or 3 factors, got {factors}")
    n = max(dim, 2**factors)
    while not _exact_shapes(n, factors):
        n += 1
    return n


def admissible_shapes(dim: int, factors: int) -> list[tuple[int, ...]]:
    """All ordered factorizations of the minimally padded dimension.

    For ``factors = 2`` these are the shapes (N1, N2), N1 * N2 = N', with
    N' the smallest integer >= dim that splits into two factors >= 2;
    similarly for 3. Ordered factorizations are kept distinct because the
    row-major bijection makes (2, 4) and (4, 2) genuinely different tables.
    """
    return _exact_shapes(minimal_padded_dim(dim, factors), factors)


def subadditivity_gap(
    p: ProbVec,
    shape: tuple[int, int],
    tolerance: float = GAP_TOLERANCE,
    provenance: str = "",
) -> InequalityReport:
    """Check H(P1) + H(P2) >= H(p) for the 2-factor reading of ``p``.

    ``p`` is padded with zeros up to the product of ``shape`` if needed;
    padding changes none of the three entropies' information content but
    makes the bipartite reading available.
    """
    shape = _factors(shape, 2, p.dim)
    flat = _zero_padded(p.values, math.prod(shape))
    table = flat.reshape(shape)
    h_joint = _shannon_raw(flat)
    h1 = _shannon_raw(table.sum(axis=1))
    h2 = _shannon_raw(table.sum(axis=0))
    return make_report(
        name=f"subadd-{shape[0]}x{shape[1]}",
        lhs=h_joint,
        rhs=h1 + h2,
        tolerance=tolerance,
        entropies={"joint": h_joint, "part1": h1, "part2": h2},
        provenance=provenance,
    )


def strong_subadditivity_gap(
    p: ProbVec,
    shape: tuple[int, int, int],
    tolerance: float = GAP_TOLERANCE,
    provenance: str = "",
) -> InequalityReport:
    """Check H(P12) + H(P23) >= H(p) + H(P2) for the 3-factor reading."""
    shape = _factors(shape, 3, p.dim)
    flat = _zero_padded(p.values, math.prod(shape))
    table = flat.reshape(shape)
    h_joint = _shannon_raw(flat)
    h12 = _shannon_raw(table.sum(axis=2))
    h23 = _shannon_raw(table.sum(axis=0))
    h2 = _shannon_raw(table.sum(axis=(0, 2)))
    name = "strong-subadd-{}x{}x{}".format(*shape)
    return make_report(
        name=name,
        lhs=h_joint + h2,
        rhs=h12 + h23,
        tolerance=tolerance,
        entropies={"joint": h_joint, "pair12": h12, "pair23": h23, "part2": h2},
        provenance=provenance,
    )


def _blocks(p: ProbVec) -> np.ndarray:
    if p.dim != 4:
        raise ShapeMismatchError(f"conditional split needs a 4-vector, got {p.dim}")
    v = p.values
    return np.array([v[0] + v[1], v[2] + v[3]])


def conditional_pair(p: ProbVec) -> ConditionalSplit:
    """Split a 4-vector into its two conditional 2-vectors.

    V = (p1, p2) / (p1 + p2) and V~ = (p3, p4) / (p3 + p4). A zero block
    has no conditional distribution; by convention it becomes the uniform
    2-vector and the replacement is flagged.
    """
    b = _blocks(p)
    flags: list[str] = []
    if b[0] > 0.0:
        v = ProbVec(p.values[:2] / b[0])
    else:
        v = ProbVec(np.array([0.5, 0.5]))
        flags.append("zero-block-1")
    if b[1] > 0.0:
        v_tilde = ProbVec(p.values[2:] / b[1])
    else:
        v_tilde = ProbVec(np.array([0.5, 0.5]))
        flags.append("zero-block-2")
    return ConditionalSplit(v=v, v_tilde=v_tilde, flags=tuple(flags))


def conditional_entropy(p: ProbVec) -> EntropyValue:
    """Conditional Shannon entropy H(V | V~) of the 4-vector split.

    Computed through the exact chain identity
    H(V | V~) = H(p) - H(p1 + p2, p3 + p4), which also holds term by term
    for the weighted sum of block entropies.
    """
    value = _shannon_raw(p.values) - _shannon_raw(_blocks(p))
    return EntropyValue(value, "conditional")


def conditional_tsallis(p: ProbVec, q: float) -> EntropyValue:
    """Tsallis analog of the conditional entropy via the same chain split.

    T_q(V | V~) = T_q(p) - T_q(p1 + p2, p3 + p4); near q = 1 this passes
    into the Shannon conditional entropy.
    """
    q = _order(q)
    value = _tsallis_raw(p.values, q) - _tsallis_raw(_blocks(p), q)
    return EntropyValue(value, "conditional", q=q)


def tsallis_monotonicity_check(
    p: ProbVec,
    q: float,
    tolerance: float = GAP_TOLERANCE,
    provenance: str = "",
) -> InequalityReport:
    """Check the two-sided Tsallis chain bound on a 4-vector.

    Both the coarse-grained entropy T_q(p1 + p2, p3 + p4) and the
    conditional entropy T_q(V | V~) are bounded above by the total T_q(p);
    the two bounds split the total into two nonnegative parts, mirroring
    the Shannon chain rule. The report's gap is the smaller of the two.
    """
    q = _order(q)
    total = _tsallis_raw(p.values, q)
    coarse = _tsallis_raw(_blocks(p), q)
    conditional = total - coarse
    return make_report(
        name=f"tsallis-chain-q{q:g}",
        lhs=max(coarse, conditional),
        rhs=total,
        tolerance=tolerance,
        entropies={
            "total": total,
            "coarse": coarse,
            "conditional": conditional,
        },
        provenance=provenance,
    )
