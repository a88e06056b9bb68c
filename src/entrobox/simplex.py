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

All entropies are in nats and use the convention 0 ln 0 = 0. Every one of
them, Shannon, von Neumann (of a spectrum) and readout entropies alike, is
taken by one numpy kernel, :func:`_shannon_rows`, which sums
p ln max(p, tiny) with tiny the smallest positive float: for p > 0 that is
p ln p, and a zero entry adds 0 * ln(tiny) = 0 without ever taking ln 0.

Every check is computed by one private kernel over a stack of vectors, one
per row of an ``(n, N)`` array; a kernel returns its checks as one block
(:class:`CheckBlock`), under their final ids. Every table inequality is
one entry of one table, :data:`_TABLE_RULES`: its id, and the reduction
and side of each of its roles. The table kernel takes a list of readings,
each a shape with its entry, and for a vector length it builds one cached
plan (:func:`_table_plan`): which entries of a row sum into each cell of
every reduction, each taken once, an entry of the zero padding reading one
zero slot appended to the row, and which entropies make each check. A
list of stacks, a suite step's table jobs, has one cached plan of its own
(:func:`_step_plan`): its stacks' cell plans joined into one for their
rows laid side by side, so that the whole step takes every reduction of
every stack in one gather and one per-cell sum (:func:`_cells`) and every
entropy in one pass of :func:`_shannon_rows`; and index arrays over the
entropy rows of all its stacks, through which every side of every check
is summed at once, giving all their gaps as one block. A stack's spec may
mark its checks as identities, each to its own tolerance.
The cell rule is written once, in :func:`_cell_members`, and the table
rule once, in :data:`_TABLE_RULES`, for vectors and density matrices
alike. Every check of a 4-vector, its table, its Shannon chain identity
and its Tsallis chain bounds, comes from one kernel, :func:`_chain_block`,
which takes H(p) and H(b) from the 2 x 2 table, and T_q(p) and T_q(b) of
every order from one power per order and one sum for them all
(:func:`_tsallis_table`).
Each public single-vector function is its kernel run on a batch of one,
read as the first row of the block's first check (:func:`~.report._first`),
so a vector's result does not depend on the batch it was checked in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    BadAxisError,
    BadOrderError,
    NegativeProbabilityError,
    ProbabilitySumError,
    ShapeMismatchError,
    ShrinkForbiddenError,
)
from .report import (
    GAP_TOLERANCE,
    IDENTITY_TOLERANCE,
    CheckBlock,
    InequalityReport,
    _block,
    _filled,
    _first,
)

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

# The smallest positive float, the floor that keeps ln finite at p = 0, and
# zero, as 0-d arrays: a ufunc takes an array operand faster than a scalar.
_TINY = np.array(np.finfo(float).smallest_subnormal)
_ZERO = np.array(0.0)

# The largest float: validation keeps every sum it takes below it.
_FLOAT_MAX = float(np.finfo(float).max)


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
    """A stack of vectors (n, N), each zero-padded to ``size`` > N entries."""
    out = np.zeros((rows.shape[0], size))
    out[:, : rows.shape[1]] = rows
    return out


def _clipped_vec(raw, tol: float, kind: str) -> np.ndarray:
    """``raw`` as a numeric 1-d array, nonempty and finite, with no entry
    below ``-tol``, clipped at zero; ``kind`` names the vector in errors."""
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise NegativeProbabilityError(f"not a numeric vector: {exc}") from exc
    if arr.ndim != 1:
        raise ShapeMismatchError(f"need a 1-d vector, got shape {arr.shape}")
    if arr.size == 0:
        raise ShapeMismatchError(f"{kind} must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise NegativeProbabilityError(f"{kind} has non-finite entries")
    low = arr.min()
    if not low >= -tol:
        raise NegativeProbabilityError(
            f"component {low:.3e} is below the clipping tolerance -{tol:.1e}"
        )
    return np.clip(arr, 0.0, None)


def validate_prob_vec(raw, tol: float = 1e-10) -> ProbVec:
    """Validate raw data as a probability vector.

    Components in ``[-tol, 0)`` are clipped to zero; anything more negative
    raises. The sum must sit within 1e-6 of 1 before the final exact
    renormalization. Use :func:`normalized_prob_vec` for data that is only
    known to be nonnegative.
    """
    arr = _clipped_vec(raw, tol, "probability vector")
    # Entries this large could overflow the sum, which is far from 1 anyway.
    top = arr.max()
    if not top <= _FLOAT_MAX / (2 * arr.size):
        raise ProbabilitySumError(f"component {top:.3e} is too large to sum to 1")
    total = float(arr.sum())
    if not abs(total - 1.0) <= 1e-6:
        raise ProbabilitySumError(f"components sum to {total!r}, not 1")
    return ProbVec(arr / total)


def normalized_prob_vec(raw, tol: float = 1e-10) -> ProbVec:
    """Normalize an arbitrary nonnegative vector onto the simplex.

    The entropy inequalities hold for any nonnegative weights once they are
    normalized; this is the explicit entry point for such data.
    """
    arr = _clipped_vec(raw, tol, "weight vector")
    if not arr.max() <= _FLOAT_MAX / (2 * arr.size):
        # Entries this large could overflow the sum: scale them by a power
        # of two, which is exact and leaves the normalized vector as it is.
        arr = np.ldexp(arr, -(2 * arr.size).bit_length())
    total = arr.sum()
    if not total > 0.0:
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


def _marginal(table: ProbTable, factors: int, keep) -> ProbVec | ProbTable:
    """The marginal of a ``factors``-factor table onto the subsystems
    ``keep`` of :func:`_public_kept`: a pair table for two, else a vector."""
    if table.factors != factors:
        raise BadAxisError(f"marginal{factors} needs a {factors}-factor table")
    keep = _public_kept(factors, keep)
    plan = _cell_plan(table.entries.size, [(table.shape, keep)], False)
    cells = _cells(table.entries[None], plan)[0, 1:]
    return ProbTable(cells, [table.shape[k - 1] for k in keep]) if keep[1:] else ProbVec(cells)


def marginal2(table: ProbTable, keep: int) -> ProbVec:
    """Marginal of a 2-factor table onto the subsystem ``keep``."""
    return _marginal(table, 2, (keep,))


def marginal3(table: ProbTable, keep: tuple[int, ...]):
    """Marginal of a 3-factor table onto the subsystems ``keep``, one of
    the three marginals entering strong subadditivity: a pair table for
    either pair, a vector for the middle subsystem."""
    return _marginal(table, 3, tuple(keep))


def _shannon_rows(rows: np.ndarray, starts: np.ndarray | None = None) -> np.ndarray:
    """Shannon entropy of each row (the last axis) of a stack; with
    ``starts``, of each segment of the last axis that begins there."""
    # max(p, _TINY) is p for every p > 0, and a p = 0 entry adds 0 * ln(_TINY)
    # = -0.0; NaN and inf propagate. 0 - x, not -x: a zero entropy is 0.0.
    terms = rows * np.log(np.maximum(rows, _TINY))
    if starts is None:
        return _ZERO - np.add.reduce(terms, -1)
    return _ZERO - np.add.reduceat(terms, starts, -1)


def shannon(p: ProbVec) -> EntropyValue:
    """Shannon entropy in nats, with 0 ln 0 = 0."""
    return EntropyValue(float(_shannon_rows(p.values[None])[0]), "shannon")


def _tsallis_rows(rows: np.ndarray, q: float) -> np.ndarray:
    """Tsallis entropy of order ``q`` of each row of a stack."""
    led = np.zeros((len(rows), rows.shape[1] + 1))
    led[:, 1:] = rows
    return _tsallis_table(led, (q,), _WHOLE)[0, :, 0]


# The one segment of a whole row, as the ``starts`` of a reduceat.
_WHOLE = np.zeros(1, dtype=np.intp)


def _tsallis_table(rows: np.ndarray, orders, starts: np.ndarray) -> np.ndarray:
    """Tsallis entropy of each order of ``orders`` of each segment of the
    rows of a stack that begins at ``starts``, as (orders, rows, segments):
    one power per order, and the sums and scalings of all orders at once.
    Each segment is led by a zero entry, so that its sum adds as a row sum
    over its other entries would (as the cells of a :class:`_CellPlan`).
    An order within 1e-6 of 1 is taken as the Shannon limit."""
    powers = np.empty((len(orders), *rows.shape))
    shannon = []
    for i, q in enumerate(orders):
        if abs(q - 1.0) < _Q_SHANNON_WINDOW:
            shannon.append(i)
            powers[i] = 0.0
        else:
            np.power(rows, q, out=powers[i])
    scale = [1.0 if i in shannon else 1.0 - q for i, q in enumerate(orders)]
    # 0**q = 0 for q > 0, which numpy honors; adding 0.0 turns -0.0 into 0.0.
    t = (np.add.reduceat(powers, starts, -1) - 1.0) / np.array(scale)[:, None, None]
    t += 0.0
    for i in shannon:
        t[i] = _shannon_rows(rows, starts)
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
    """Every ordered factorization of ``n`` into ``factors`` factors, each
    >= 2, in lexicographic order: each first factor a leaves room for the
    other factors, and leads the factorizations of n / a."""
    if factors == 1:
        return [(n,)] if n >= 2 else []
    return [
        (a, *rest)
        for a in range(2, n // 2 ** (factors - 1) + 1)
        if n % a == 0
        for rest in _exact_shapes(n // a, factors - 1)
    ]


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


# Every table inequality lhs <= rhs, one entry each under its id stem: the
# factor count of the reading it checks, then its roles in report order,
# each the 1-based subsystems it keeps, () for the joint table, and the side
# it adds to. A shape is checked by the first entry on as many factors, whose
# reductions a public marginal or ReductionPlan keeps; a (stem, shape)
# reading names its entry.
_TABLE_RULES = {
    "subadd": (2, {"joint": ((), "lhs"), "part1": ((1,), "rhs"), "part2": ((2,), "rhs")}),
    "strong-subadd": (3, {"joint": ((), "lhs"), "pair12": ((1, 2), "rhs"),
                          "pair23": ((2, 3), "rhs"), "part2": ((2,), "lhs")}),
    # the middle subsystem against the outer two
    "subadd-middle": (3, {"joint": ((), "lhs"), "part1": ((2,), "rhs"), "part2": ((1, 3), "rhs")}),
}


def _first_rule(factors: int) -> str:
    """The stem of the first entry of :data:`_TABLE_RULES` on ``factors``."""
    return next(stem for stem, (k, _) in _TABLE_RULES.items() if k == factors)


def _public_kept(factors: int, keep) -> tuple[int, ...]:
    """``keep`` as a reduction of the :func:`_first_rule` of ``factors``,
    one a public marginal or ReductionPlan takes, else :class:`BadAxisError`."""
    keep = tuple(keep)
    if keep not in [kept for kept, _ in _TABLE_RULES[_first_rule(factors)][1].values() if kept]:
        raise BadAxisError(f"cannot keep {keep} out of {factors} subsystems")
    return tuple(int(k) for k in keep)


def _cell_members(shape: tuple[int, ...], kept: tuple[int, ...]) -> np.ndarray:
    """The cell rule of a reduction: the padded flat index (K, m) of every
    entry of a ``shape`` table that sums into each of the K cells of its
    reduction onto the 1-based subsystems ``kept``, row c listing them in
    row-major order of the summed-away subsystems."""
    summed = [a for a in range(len(shape)) if a + 1 not in kept]
    grid = np.arange(math.prod(shape)).reshape(shape)
    return grid.transpose([a - 1 for a in kept] + summed).reshape(
        math.prod(shape[a - 1] for a in kept), -1
    )


class _CellPlan(NamedTuple):
    """Where every cell of a list of reductions of one flat row comes from.

    ``members`` lists the row entries each cell sums, cell by cell; an entry
    of the zero padding reads the zero slot appended to the row. ``starts``
    is each cell's first member. Every reduction's cells are led by one
    zero cell, so that the Shannon sum over a reduction's segment of cells,
    ``firsts``, adds as a row sum over its cells alone would. ``dims`` is
    the kept dimension K of each reduction: it has K cells after its zero
    cell, or K x K for a matrix.
    """

    members: np.ndarray
    starts: np.ndarray
    firsts: np.ndarray
    dims: tuple[int, ...]


def _cell_plan(dim: int, reductions, matrix: bool) -> _CellPlan:
    """The :class:`_CellPlan` of ``reductions``, a list of (shape, kept),
    for a vector of ``dim`` entries, or, with ``matrix``, for a d x d
    matrix flattened row-major. A matrix cell (a, b) sums entry
    (r_a, r_b) over each pair of member rows; a vector marginal is the
    diagonal of that map, its cell a summing entry r_a."""
    zero = dim * dim if matrix else dim
    members, sizes, firsts, dims = [], [], [0], []
    for shape, kept in reductions:
        cell = _cell_members(shape, kept)
        if matrix:
            rows, cols = cell[:, None, :], cell[None, :, :]
            flat = np.where((rows < dim) & (cols < dim), rows * dim + cols, zero)
        else:
            flat = np.where(cell < dim, cell, zero)
        flat = flat.reshape(-1, cell.shape[1])  # one cell's members per row
        members += [np.array([zero]), flat.reshape(-1)]
        sizes += [np.ones(1, dtype=np.intp), np.full(len(flat), flat.shape[1])]
        firsts.append(firsts[-1] + 1 + len(flat))
        dims.append(len(cell))
    sizes = np.concatenate(sizes)
    plan = _CellPlan(
        members=np.concatenate(members),
        starts=np.cumsum(sizes) - sizes,
        firsts=np.array(firsts[:-1]),
        dims=tuple(dims),
    )
    for array in (plan.members, plan.starts, plan.firsts):
        array.flags.writeable = False
    return plan


# A suite asks for the same few readings' plans on every chunk.
@lru_cache(maxsize=256)
def _table_plan(dim: int, readings: tuple, matrix: bool) -> tuple[_CellPlan, tuple]:
    """The table checks of ``readings``, each a shape checked by the
    :func:`_first_rule` of as many factors or a (stem, shape) pair, of a
    vector of ``dim`` entries or, with ``matrix``, of a d x d matrix: the
    :func:`_cell_plan` of their reductions, each taken once (a vector's
    joint table, whose entropy sums the padded table, once per padded
    size), and each check's id, role columns and side columns. Column 0 of
    a matrix is its own entropy, the joint one."""
    columns, reductions, checks = ({(): 0} if matrix else {}), [], []
    for reading in readings:
        stem, shape = reading if isinstance(reading[0], str) else (_first_rule(len(reading)), reading)
        rule, roles = _TABLE_RULES[stem][1], {}
        for role, (kept, _) in rule.items():
            kept = kept or tuple(range(1, len(shape) + 1))
            cells = _cell_members(shape, kept)
            key = () if matrix and len(kept) == len(shape) else (cells.shape, cells.tobytes())
            if key not in columns:
                columns[key] = len(columns)
                reductions.append((shape, kept))
            roles[role] = columns[key]
        sides = [tuple(roles[r] for r, (_, s) in rule.items() if s == side) for side in ("lhs", "rhs")]
        name = f"{'q-' if matrix else ''}{stem}-" + "x".join(map(str, shape))
        checks.append((name, tuple(roles.items()), *sides))
    return _cell_plan(dim, reductions, matrix), tuple(checks)


def _cells(flat: np.ndarray, plan: _CellPlan) -> np.ndarray:
    """Every cell of every reduction of ``plan`` for each row of a stack of
    flat rows (n, D), as rows (n, cells): one gather of the members, from
    each row with the zero slot appended, and one per-cell sum."""
    slot = np.zeros((len(flat), 1), dtype=flat.dtype)
    gathered = np.concatenate((flat, slot), axis=1).take(plan.members, axis=1)
    return np.add.reduceat(gathered, plan.starts, axis=1)


class _StepPlan(NamedTuple):
    """The table checks of a list of stacks, taken as one block.

    ``cells`` is one :class:`_CellPlan` for the flat rows of all the stacks
    side by side, each stack's row after the one before it and the zero
    slot after them all: the cell plans of the stacks' :func:`_table_plan`
    in stack order, so every cell of every stack comes from one gather and
    one per-cell sum. ``reductions`` is the number of reductions of each
    stack. Stack by stack, its entropies are rows of one array, in the
    column order of its :func:`_table_plan`, and a row of zeros follows
    them all. Check c is
    named ``names[c]`` and reads stack ``stacks[c]``. The lhs and rhs of
    check c add the entropy rows ``sides[:, 0, c]`` and ``sides[:, 1, c]``
    in role order, a side of fewer terms padded by the zero row (no entropy
    is -0.0, so adding 0.0 leaves every bit as it is), and ``roles[c]``
    pairs each of its roles with its entropy row. ``identities`` maps each
    check that is an identity to its tolerance.
    """

    cells: _CellPlan
    reductions: tuple[int, ...]
    names: tuple[str, ...]
    stacks: np.ndarray
    sides: np.ndarray
    roles: tuple[tuple[tuple[str, int], ...], ...]
    identities: dict[int, float]


# A suite asks for the same few steps' plans on every step.
@lru_cache(maxsize=256)
def _step_plan(specs: tuple, matrix: bool) -> _StepPlan:
    """The :class:`_StepPlan` of ``specs``, one (dim, readings, ids,
    identity) per stack: the checks of ``_table_plan(dim, readings,
    matrix)``, their ids prefixed by ``ids`` or, when ``ids`` is a tuple,
    replaced by its ids, and, unless ``identity`` is None, each an identity
    of its two sides to the tolerance ``identity``."""
    tables, names, stacks, roles, sides, identities, start = [], [], [], [], [], {}, 0
    for j, (dim, readings, ids, identity) in enumerate(specs):
        cells, checks = _table_plan(dim, readings, matrix)
        tables.append((dim * dim if matrix else dim, cells))
        if identity is not None:
            identities.update(dict.fromkeys(range(len(names), len(names) + len(checks)), identity))
        names += [ids + name for name, *_ in checks] if isinstance(ids, str) else ids
        stacks += [j] * len(checks)
        for _, kept, lhs, rhs in checks:
            roles.append(tuple((role, start + i) for role, i in kept))
            sides.append([[start + i for i in side] for side in (lhs, rhs)])
        # a vector's entropy per reduction; a matrix's own entropy first
        start += matrix + len(cells.firsts)
    width = max(len(side) for pair in sides for side in pair)
    padded = [[side + [start] * (width - len(side)) for side in pair] for pair in sides]
    plan = _StepPlan(
        _side_by_side(tables),
        tuple(len(cells.firsts) for _, cells in tables),
        tuple(names),
        np.array(stacks),
        np.array(padded).transpose(2, 1, 0),
        tuple(roles),
        identities,
    )
    for array in (plan.stacks, plan.sides):
        array.flags.writeable = False
    return plan


def _side_by_side(tables: list[tuple[int, _CellPlan]]) -> _CellPlan:
    """One :class:`_CellPlan` from the (width, plan) of each of a list of
    stacks, for their flat rows laid side by side: each stack's members
    shifted past the rows before it, its zero slot moved to the one after
    them all, and its cells after the cells before it."""
    zero = sum(width for width, _ in tables)
    members, starts, firsts, dims, base, cell, member = [], [], [], [], 0, 0, 0
    for width, plan in tables:
        members.append(np.where(plan.members < width, plan.members + base, zero))
        starts.append(plan.starts + member)
        firsts.append(plan.firsts + cell)
        dims += plan.dims
        base += width
        cell += len(plan.starts)
        member += len(plan.members)
    plan = _CellPlan(
        np.concatenate(members), np.concatenate(starts), np.concatenate(firsts), tuple(dims)
    )
    for array in (plan.members, plan.starts, plan.firsts):
        array.flags.writeable = False
    return plan


def _side_by_side_rows(stacks: list[np.ndarray], m: int) -> np.ndarray:
    """The flat rows (m, sum of widths) of a list of stacks laid side by
    side, each filled to ``m`` states, the longest stack's length
    (:func:`~.report._filled`); a lone stack is taken as it is."""
    if len(stacks) == 1:
        return stacks[0]
    return np.concatenate([_filled(rows, m) for rows in stacks], axis=1)


def _plan_block(plan: _StepPlan, e: np.ndarray, lengths: list[int], tolerance: float) -> CheckBlock:
    """The checks of ``plan`` as one block, from the entropies ``e`` of its
    stacks of ``lengths`` states: the plan's entropy rows, zeros last, over
    the states of the longest stack, a shorter stack's last state repeated
    (:func:`~.report._filled`). Every side of every check is summed at once
    through the plan's index array."""
    lhs, rhs = _sides(plan, e)

    rows = np.array(lengths)[plan.stacks]

    def details(c: int) -> tuple[dict[str, np.ndarray], None]:
        return {role: e[i, : rows[c]] for role, i in plan.roles[c]}, None

    return _block(plan.names, lhs, rhs, tolerance, details, plan.identities, rows, plan.stacks)


def _sides(plan: _StepPlan, e: np.ndarray) -> np.ndarray:
    """The lhs and rhs (2, checks, states) of every check of ``plan``, from
    its entropies ``e``, summed through the plan's index array: its terms
    taken in turn along the first axis."""
    return np.add.reduce(e[plan.sides], axis=0)


def _table_entropies(stacks: list[np.ndarray], plan: _StepPlan) -> tuple[np.ndarray, list[int]]:
    """The entropies of :func:`_plan_block` for stacks of vectors (n, N):
    every reduction of every stack from one gather of their rows side by
    side, and every entropy from one pass; and the stacks' lengths."""
    lengths = [len(rows) for rows in stacks]
    m = max(lengths)
    cells = _cells(_side_by_side_rows(stacks, m), plan.cells)
    e = np.zeros((len(plan.cells.firsts) + 1, m))
    e[:-1] = _shannon_rows(cells, plan.cells.firsts).T
    return e, lengths


def _table_block(stacks: list[np.ndarray], plan: _StepPlan, tolerance: float) -> CheckBlock:
    """The table checks of ``plan`` on its stacks of vectors (n, N), as one
    block: every side of every check summed at once."""
    return _plan_block(plan, *_table_entropies(stacks, plan), tolerance)


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
    plan = _step_plan(((p.dim, (shape,), "", None),), False)
    return _first(_table_block([p.values[None]], plan, tolerance), provenance)


def strong_subadditivity_gap(
    p: ProbVec,
    shape: tuple[int, int, int],
    tolerance: float = GAP_TOLERANCE,
    provenance: str = "",
) -> InequalityReport:
    """Check H(P12) + H(P23) >= H(p) + H(P2) for the 3-factor reading."""
    shape = _factors(shape, 3, p.dim)
    plan = _step_plan(((p.dim, (shape,), "", None),), False)
    return _first(_table_block([p.values[None]], plan, tolerance), provenance)


def _block_rows(rows: np.ndarray) -> np.ndarray:
    """(p1 + p2, p3 + p4) of each row of a stack of 4-vectors."""
    if rows.shape[1] != 4:
        raise ShapeMismatchError(f"conditional split needs a 4-vector, got {rows.shape[1]}")
    return rows[:, 0::2] + rows[:, 1::2]


def _split_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The blocks (n, 2) of a stack of 4-vectors and their conditional
    halves (n, 2, 2); the half of a zero block is the uniform 2-vector."""
    blocks = _block_rows(rows)
    halves = np.full((rows.shape[0], 2, 2), 0.5)
    live = blocks > 0.0
    np.divide(rows.reshape(-1, 2, 2), blocks[:, :, None], out=halves, where=live[:, :, None])
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


def conditional_entropy(p: ProbVec) -> EntropyValue:
    """Conditional Shannon entropy H(V | V~) of the 4-vector split.

    Computed through the exact chain identity
    H(V | V~) = H(p) - H(p1 + p2, p3 + p4), which also holds term by term
    for the weighted sum of block entropies.
    """
    chain = _first(_tsallis_block(p.values[None], 1.0, GAP_TOLERANCE))
    return EntropyValue(chain.entropies["conditional"], "conditional")


def conditional_tsallis(p: ProbVec, q: float) -> EntropyValue:
    """Tsallis analog of the conditional entropy via the same chain split.

    T_q(V | V~) = T_q(p) - T_q(p1 + p2, p3 + p4); near q = 1 this passes
    into the Shannon conditional entropy.
    """
    q = _order(q)
    chain = _first(_tsallis_block(p.values[None], q, GAP_TOLERANCE))
    return EntropyValue(chain.entropies["conditional"], "conditional", q=q)


def _order_id(q: float) -> str:
    """The id a Tsallis order takes in check names: ``q2`` for 2.0."""
    return f"q{q:g}"


# A 4-vector and its blocks side by side, each led by a zero entry: the
# segments of T_q(p) and T_q(b).
_CHAIN_SEGMENTS = np.array([0, 5], dtype=np.intp)


def _tsallis_chains(rows: np.ndarray, orders, blocks: np.ndarray) -> tuple:
    """:func:`tsallis_monotonicity_check` of each row of a stack of 4-vectors
    with blocks ``blocks`` (:func:`_block_rows`) for each order, as each
    order's lhs and rhs (orders, n) and entropies, the ``conditional``
    entropy being T_q(p) - T_q(b), the Shannon conditional entropy at q = 1.
    T_q(p) and T_q(b) of every order come from one :func:`_tsallis_table`
    of the vectors and their blocks side by side."""
    both = np.zeros((len(rows), 8))
    both[:, 1:5] = rows
    both[:, 6:] = blocks
    t = _tsallis_table(both, orders, _CHAIN_SEGMENTS)
    total, coarse = t[:, :, 0], t[:, :, 1]
    conditional = total - coarse
    # the larger part, the first one on a tie, as max(coarse, conditional)
    lhs = np.where(conditional > coarse, conditional, coarse)
    entropies = [
        {"total": total[i], "coarse": coarse[i], "conditional": conditional[i]}
        for i in range(len(orders))
    ]
    return lhs, total, entropies


def _chain_id(q: float) -> str:
    """The id of the Tsallis chain bound of order ``q``."""
    return f"tsallis-chain-{_order_id(q)}"


def _tsallis_block(rows: np.ndarray, q: float, tolerance: float) -> CheckBlock:
    """:func:`_tsallis_chains` of a stack of 4-vectors at the one order
    ``q``, as a block of its one check."""
    q = _order(q)
    lhs, rhs, [entropies] = _tsallis_chains(rows, (q,), _block_rows(rows))
    return _block((_chain_id(q),), lhs, rhs, tolerance, lambda c: (entropies, None))


def _chain_block(
    rows: np.ndarray, q_values, tolerance: float, names=("subadd-2x2", "cond-chain-identity")
) -> CheckBlock:
    """Every check of a stack of 4-vectors p with blocks b, from one 2 x 2
    table pass (H(p) and H(b) are its joint and part1 entropies) and one
    block split: the table check and the identity H(V | V~) = H(p) - H(b),
    under the two ids ``names``, each order's Tsallis chain bound, then,
    with any order, ``tsallis-shannon-limit``."""
    blocks, halves = _split_rows(rows)
    plan = _step_plan(((4, ((2, 2),), names[:1], None),), False)
    e, _ = _table_entropies([rows], plan)
    table = {role: e[i] for role, i in plan.roles[0]}
    h, h_halves = table["joint"], _shannon_rows(halves)
    weighted = blocks[:, 0] * h_halves[:, 0] + blocks[:, 1] * h_halves[:, 1]
    conditional = h - table["part1"]  # H(V | V~) = H(p) - H(b)
    [table_lhs, table_rhs] = _sides(plan, e)
    orders = [_order(q) for q in q_values]
    ids = [*names, *map(_chain_id, orders)]
    details = [table, None]
    lhs, rhs = [table_lhs, weighted[None]], [table_rhs, conditional[None]]
    identities = {1: IDENTITY_TOLERANCE}
    if orders:
        # each order's bound, then the Shannon limit from two orders more
        orders += [1.0 + 1e-4, 1.0 - 1e-4]
        chain_lhs, total, entropies = _tsallis_chains(rows, orders, blocks)
        worst = np.maximum.reduce(np.abs(total[-2:] - h), axis=0)
        identities[len(ids)] = 1e-3
        ids.append("tsallis-shannon-limit")
        details += entropies[:-2] + [None]
        lhs += [chain_lhs[:-2], worst[None]]
        rhs += [total[:-2], np.zeros((1, len(rows)))]
    lhs, rhs = np.concatenate(lhs), np.concatenate(rhs)
    return _block(tuple(ids), lhs, rhs, tolerance, lambda c: (details[c], None), identities)


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
    q = _order(q)  # a bad order is refused before a vector of the wrong length
    return _first(_tsallis_block(p.values[None], q, tolerance), provenance)
