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

Every check is computed by one private kernel over a stack of vectors, one
per row of an ``(n, N)`` array, with marginals taken by reshape and axis
sums; a kernel returns its check as columns (:class:`CheckColumns`). Each
public single-vector function is its kernel run on a batch of one, so a
vector's result does not depend on the batch it was checked in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
from .report import GAP_TOLERANCE, CheckColumns, InequalityReport

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


def _zero_padded(rows: np.ndarray, size: int) -> np.ndarray:
    """A stack of vectors (n, N), each zero-padded to ``size`` entries."""
    out = np.zeros((rows.shape[0], size))
    out[:, : rows.shape[1]] = rows
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
    return ProbVec(_zero_padded(p.values[None], new_dim)[0])


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


def _shannon_rows(rows: np.ndarray) -> np.ndarray:
    """Shannon entropy of each row (the last axis) of a stack."""
    # 0.0 - x, not -x: a zero entropy is 0.0, not -0.0
    return 0.0 - xlogy(rows, rows).sum(axis=-1)


def shannon(p: ProbVec) -> EntropyValue:
    """Shannon entropy in nats, with 0 ln 0 = 0."""
    return EntropyValue(float(_shannon_rows(p.values[None])[0]), "shannon")


def _tsallis_rows(rows: np.ndarray, q: float) -> np.ndarray:
    """Tsallis entropy of order ``q`` of each row of a stack."""
    if abs(q - 1.0) < _Q_SHANNON_WINDOW:
        return _shannon_rows(rows)
    # 0**q = 0 for q > 0, which numpy honors; adding 0.0 turns -0.0 into 0.0.
    t = (np.power(rows, q).sum(axis=-1) - 1.0) / (1.0 - q)
    t += 0.0
    return t


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
    return EntropyValue(float(_tsallis_rows(p.values[None], q)[0]), "tsallis", q=q)


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
    return list(_admissible_shapes(dim, factors))


# A suite asks for the same few dims' shapes on every chunk.
@lru_cache(maxsize=256)
def _admissible_shapes(dim: int, factors: int) -> tuple[tuple[int, ...], ...]:
    return tuple(_exact_shapes(minimal_padded_dim(dim, factors), factors))


def _padded_tables(rows: np.ndarray, shape, k: int):
    """The checked ``k``-factor ``shape``, the stack ``rows`` zero-padded to
    its product, and that stack read as (n, *shape) tables."""
    shape = _factors(shape, k, rows.shape[1])
    flat = _zero_padded(rows, math.prod(shape))
    return shape, flat, flat.reshape(-1, *shape)


def _subadd_columns(rows: np.ndarray, shape, tolerance: float) -> CheckColumns:
    """:func:`subadditivity_gap` of each row of a stack of vectors."""
    shape, flat, table = _padded_tables(rows, shape, 2)
    h_joint = _shannon_rows(flat)
    h1 = _shannon_rows(table.sum(axis=2))
    h2 = _shannon_rows(table.sum(axis=1))
    return CheckColumns(
        name=f"subadd-{shape[0]}x{shape[1]}",
        lhs=h_joint,
        rhs=h1 + h2,
        entropies={"joint": h_joint, "part1": h1, "part2": h2},
        tolerance=tolerance,
    )


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
    return _subadd_columns(p.values[None], shape, tolerance).report(0, provenance)


def _strong_subadd_columns(rows: np.ndarray, shape, tolerance: float) -> CheckColumns:
    """:func:`strong_subadditivity_gap` of each row of a stack of vectors."""
    shape, flat, table = _padded_tables(rows, shape, 3)
    n = flat.shape[0]
    h_joint = _shannon_rows(flat)
    h12 = _shannon_rows(table.sum(axis=3).reshape(n, -1))
    h23 = _shannon_rows(table.sum(axis=1).reshape(n, -1))
    h2 = _shannon_rows(table.sum(axis=(1, 3)))
    return CheckColumns(
        name="strong-subadd-{}x{}x{}".format(*shape),
        lhs=h_joint + h2,
        rhs=h12 + h23,
        entropies={"joint": h_joint, "pair12": h12, "pair23": h23, "part2": h2},
        tolerance=tolerance,
    )


def strong_subadditivity_gap(
    p: ProbVec,
    shape: tuple[int, int, int],
    tolerance: float = GAP_TOLERANCE,
    provenance: str = "",
) -> InequalityReport:
    """Check H(P12) + H(P23) >= H(p) + H(P2) for the 3-factor reading."""
    return _strong_subadd_columns(p.values[None], shape, tolerance).report(0, provenance)


def _block_rows(rows: np.ndarray) -> np.ndarray:
    """(p1 + p2, p3 + p4) of each row of a stack of 4-vectors."""
    if rows.shape[1] != 4:
        raise ShapeMismatchError(f"conditional split needs a 4-vector, got {rows.shape[1]}")
    return np.stack([rows[:, 0] + rows[:, 1], rows[:, 2] + rows[:, 3]], axis=1)


def _split_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The blocks (n, 2) of a stack of 4-vectors and their conditional
    halves (n, 2, 2); the half of a zero block is the uniform 2-vector."""
    blocks = _block_rows(rows)
    halves = np.full((rows.shape[0], 2, 2), 0.5)
    live = blocks > 0.0
    halves[live] = rows.reshape(-1, 2, 2)[live] / blocks[live][:, None]
    return blocks, halves


def conditional_pair(p: ProbVec) -> ConditionalSplit:
    """Split a 4-vector into its two conditional 2-vectors.

    V = (p1, p2) / (p1 + p2) and V~ = (p3, p4) / (p3 + p4). A zero block
    has no conditional distribution; by convention it becomes the uniform
    2-vector and the replacement is flagged.
    """
    blocks, halves = _split_rows(p.values[None])
    flags = tuple(
        f"zero-block-{k + 1}" for k in range(2) if not blocks[0, k] > 0.0
    )
    return ConditionalSplit(v=ProbVec(halves[0, 0]), v_tilde=ProbVec(halves[0, 1]), flags=flags)


def _conditional_rows(rows: np.ndarray, q: float = 1.0) -> np.ndarray:
    """T_q(p) - T_q(p1 + p2, p3 + p4) of each row of a stack of 4-vectors;
    the Shannon conditional entropy at q = 1."""
    return _tsallis_rows(rows, q) - _tsallis_rows(_block_rows(rows), q)


def conditional_entropy(p: ProbVec) -> EntropyValue:
    """Conditional Shannon entropy H(V | V~) of the 4-vector split.

    Computed through the exact chain identity
    H(V | V~) = H(p) - H(p1 + p2, p3 + p4), which also holds term by term
    for the weighted sum of block entropies.
    """
    return EntropyValue(float(_conditional_rows(p.values[None])[0]), "conditional")


def conditional_tsallis(p: ProbVec, q: float) -> EntropyValue:
    """Tsallis analog of the conditional entropy via the same chain split.

    T_q(V | V~) = T_q(p) - T_q(p1 + p2, p3 + p4); near q = 1 this passes
    into the Shannon conditional entropy.
    """
    q = _order(q)
    return EntropyValue(float(_conditional_rows(p.values[None], q)[0]), "conditional", q=q)


def _tsallis_chain_columns(rows: np.ndarray, q: float, tolerance: float) -> CheckColumns:
    """:func:`tsallis_monotonicity_check` of each row of a stack of 4-vectors."""
    q = _order(q)
    total = _tsallis_rows(rows, q)
    coarse = _tsallis_rows(_block_rows(rows), q)
    conditional = total - coarse
    return CheckColumns(
        name=f"tsallis-chain-q{q:g}",
        # the larger part, the first one on a tie, as max(coarse, conditional)
        lhs=np.where(conditional > coarse, conditional, coarse),
        rhs=total,
        entropies={"total": total, "coarse": coarse, "conditional": conditional},
        tolerance=tolerance,
    )


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
    return _tsallis_chain_columns(p.values[None], q, tolerance).report(0, provenance)
