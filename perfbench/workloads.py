"""The benchmark's workloads and the checks on their outputs.

Each workload turns the run seed into inputs, exposes rounds of requests
(callables into entrobox's public API) and checks every output against the
oracles in :mod:`oracles`. Requests look entrobox functions up on their
modules at call time, so a tracer that rebinds those names sees them.

A request whose program output reports a failure (a nonzero ``eval`` exit
code, a failed suite instance, a readout minimum that misses the von
Neumann entropy) counts as a failed operation. An output that did not fail
but disagrees with the oracles is wrong, and a run with any wrong output is
not correct.
"""

from __future__ import annotations

import json
import math
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import entrobox
import entrobox.cli as cli
import oracles

GAP_TOLERANCE = 1e-9
# A readout minimum must land in [S - BOUND_SLACK, S + ACCURACY].
BOUND_SLACK = 1e-9
ACCURACY = 1e-6

CLASSICAL_DIMS = tuple(range(4, 13))
QUANTUM_DIMS = (3, 4, 5, 7)
Q_VALUES = (0.5, 2.0, 3.0)

# run_suite trials per request: small enough for over a thousand requests
# in a run, so that the latency percentiles rest on many samples.
SWEEP_FAMILIES = ("classical", "quantum", "discord")
SWEEP_TRIALS = 5

# One eval round: EVAL_PER_CHECK requests of each cheap check and one
# readout-min on a qubit, shuffled.
EVAL_CHEAP = (
    "subadd",
    "strong-subadd",
    "cond-chain",
    "tsallis-chain",
    "q-subadd",
    "q-strong-subadd",
    "discord",
    "axis-subadd",
)
EVAL_PER_CHECK = 6
EVAL_POOL_ROUNDS = 100

# spawn_key component that keeps warm-up and sample inputs apart from rounds.
_WARMUP = 2**31
_SAMPLE = 2**31 + 1


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed % 2**64, spawn_key=key))


def ginibre(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / m.trace().real


def shape_text(shape) -> str:
    return "x".join(str(n) for n in shape)


@dataclass
class Request:
    label: str
    call: Callable[[], object]
    meta: dict = field(default_factory=dict)


@dataclass
class Record:
    request: Request
    latency: float
    output: object


@dataclass
class Verdict:
    """Tally of a run's outputs; ``checks`` and ``states`` count work done."""

    attempted: int = 0
    failed: int = 0
    checks: int = 0
    states: int = 0
    wrong: list[str] = field(default_factory=list)


def expected_checks(family: str, trials: int) -> dict[str, tuple[int, float, bool]]:
    """Check id -> (instances, tolerance, is identity) for one suite family.

    Factorizations come from :func:`oracles.factorizations`, not from the
    program.
    """
    out: dict[str, tuple[int, float, bool]] = {}

    def ineq(name: str) -> None:
        out[name] = (trials, GAP_TOLERANCE, False)

    if family == "classical":
        for name in ("strong-subadd-7", "subadd-7-adjacent", "subadd-7-middle", "subadd-4"):
            ineq(name)
        for q in Q_VALUES:
            ineq(f"tsallis-chain-q{q:g}")
        out["cond-chain-identity"] = (trials, 1e-12, True)
        out["tsallis-shannon-limit"] = (trials, 1e-3, True)
        for d in CLASSICAL_DIMS:
            for shape in oracles.factorizations(oracles.minimal_padded(d, 2), 2):
                ineq(f"dim{d}-subadd-{shape_text(shape)}")
            for shape in oracles.factorizations(oracles.minimal_padded(d, 3), 3):
                ineq(f"dim{d}-strong-subadd-{shape_text(shape)}")
    elif family == "quantum":
        out["q-subadd-mixed-equality"] = (1, 1e-10, True)
        for d in QUANTUM_DIMS:
            for shape in oracles.factorizations(oracles.minimal_padded(d, 2), 2):
                ineq(f"dim{d}-q-subadd-{shape_text(shape)}")
            for shape in oracles.factorizations(oracles.minimal_padded(d, 3), 3):
                ineq(f"dim{d}-q-strong-subadd-{shape_text(shape)}")
    elif family == "discord":
        for prefix in ("", "qutrit-"):
            for name in ("discord-nonneg", "chain-upper", "chain-lower"):
                ineq(prefix + name)
        out["discord-diagonal-zero"] = (trials, 1e-10, True)
    else:
        raise ValueError(f"unknown family {family!r}")
    return out


def suite_states(family: str, trials: int) -> int:
    """States one run_suite call draws: per trial, one per sampled family."""
    return {
        "classical": (2 + len(CLASSICAL_DIMS)) * trials,
        "quantum": len(QUANTUM_DIMS) * trials + 1,
        "discord": 3 * trials,
    }[family]


class Workload:
    """Inputs from a seed, rounds of requests, and checks on their outputs.

    Subclasses provide ``warmup_inputs``, ``warmup``, ``round`` and
    ``verify``; the rest are optional steps.
    """

    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.dir = workdir

    def prepare(self) -> None:
        """Build the run's inputs (untimed)."""

    def cleanup(self) -> None:
        """Remove whatever the workload wrote."""

    def sample_check(self) -> list[str]:
        """Extra oracle checks after the timed loop; what disagrees."""
        return []


class Sweep(Workload):
    """Bulk ``check`` path: run_suite on three families per round."""

    name = "sweep"

    def _seed(self, *key: int) -> int:
        return int(np.random.SeedSequence(self.seed % 2**64, spawn_key=key).generate_state(1)[0])

    def warmup_inputs(self):
        return self._seed(_WARMUP)

    def warmup(self, suite_seed) -> None:
        for family in SWEEP_FAMILIES:
            cli.run_suite(cli.SuiteConfig(suite=family, trials=1, seed=suite_seed))

    def round(self, r: int) -> list[Request]:
        seed = self._seed(r)
        return [
            Request(family, partial(_run_suite, family, seed), {"family": family})
            for family in SWEEP_FAMILIES
        ]

    def verify(self, records: list[Record]) -> Verdict:
        v = Verdict()
        for rec in records:
            family = rec.request.meta["family"]
            want = expected_checks(family, SWEEP_TRIALS)
            rows = {row["id"]: row for row in rec.output["checks"]}
            v.attempted += sum(n for n, _, _ in want.values())
            if set(rows) != set(want):
                v.wrong.append(
                    f"{family}: check ids differ: missing {sorted(set(want) - set(rows))}, "
                    f"unexpected {sorted(set(rows) - set(want))}"
                )
                continue
            for cid, (count, tol, identity) in want.items():
                row = rows[cid]
                if row["count"] != count:
                    v.wrong.append(f"{family}/{cid}: {row['count']} instances, expected {count}")
                    continue
                v.failed += row["failures"]
                if row["failures"]:
                    continue
                ok = -row["min_gap"] <= tol if identity else row["min_gap"] >= -tol
                if not ok:
                    v.wrong.append(f"{family}/{cid}: min_gap {row['min_gap']!r} passed")
            v.checks += sum(n for n, _, _ in want.values())
            v.states += suite_states(family, SWEEP_TRIALS)
        return v

    def sample_check(self) -> list[str]:
        """A sample of states through the suite's public functions, against
        the oracles."""
        rng = rng_for(self.seed, _SAMPLE)
        bad: list[str] = []

        def compare(label: str, report: dict, want: dict) -> None:
            bad.extend(f"{label}: {m}" for m in oracles.mismatches(report, want))

        for d in CLASSICAL_DIMS:
            p = rng.dirichlet(np.ones(d))
            vec = entrobox.ProbVec(p)
            for shape in oracles.factorizations(oracles.minimal_padded(d, 2), 2):
                rep = entrobox.subadditivity_gap(vec, shape).to_dict()
                compare(f"subadd dim{d} {shape}", rep, oracles.expected("subadd", p, shape))
            for shape in oracles.factorizations(oracles.minimal_padded(d, 3), 3):
                rep = entrobox.strong_subadditivity_gap(vec, shape).to_dict()
                compare(f"strong-subadd dim{d} {shape}", rep, oracles.expected("strong-subadd", p, shape))
        p = rng.dirichlet(np.ones(4))
        vec = entrobox.ProbVec(p)
        split = entrobox.conditional_pair(vec)
        weighted = (p[0] + p[1]) * float(entrobox.shannon(split.v)) + (p[2] + p[3]) * float(
            entrobox.shannon(split.v_tilde)
        )
        compare(
            "cond-chain",
            {"lhs": weighted, "rhs": float(entrobox.conditional_entropy(vec))},
            oracles.expected("cond-chain", p),
        )
        for q in Q_VALUES:
            rep = entrobox.tsallis_monotonicity_check(vec, q).to_dict()
            compare(f"tsallis-chain q{q:g}", rep, oracles.expected("tsallis-chain", p, q=q))
        for d in QUANTUM_DIMS:
            rho = ginibre(d, rng)
            state = entrobox.DensityMatrix(rho)
            for shape in oracles.factorizations(oracles.minimal_padded(d, 2), 2):
                rep = entrobox.quantum_subadditivity(state, shape).to_dict()
                compare(f"q-subadd dim{d} {shape}", rep, oracles.expected("q-subadd", rho, shape))
            for shape in oracles.factorizations(oracles.minimal_padded(d, 3), 3):
                rep = entrobox.quantum_strong_subadditivity(state, shape).to_dict()
                compare(f"q-strong-subadd dim{d} {shape}", rep, oracles.expected("q-strong-subadd", rho, shape))
        for d in (4, 3):
            rho = ginibre(d, rng)
            rep = entrobox.discord(entrobox.DensityMatrix(rho)).to_dict()
            compare(f"discord dim{d}", rep, oracles.expected("discord", rho))
        return bad


def _run_suite(family: str, seed: int) -> dict:
    return cli.run_suite(cli.SuiteConfig(suite=family, trials=SWEEP_TRIALS, seed=seed))


def call_main(argv: list[str]) -> int:
    """cli.main as a request: its exit code, argparse exits included.

    Any other exception is a failed request; its traceback goes to stderr.
    """
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # noqa: BLE001 - one bad request must not end the run
        traceback.print_exc()
        return -1


class Eval(Workload):
    """Closed loop, one client: in-process ``entrobox eval`` requests."""

    name = "eval"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.pool: list[list[Request]] = []
        self._count = 0

    def _request(self, check: str, rng: np.random.Generator) -> Request:
        """Draw a state for ``check``, write it, and build the argv."""
        self._count += 1
        path = self.dir / f"state-{self._count:06d}.json"
        out = self.dir / f"out-{self._count:06d}.json"
        argv = ["eval", "--check", check, "--input", str(path)]
        meta = {"check": check, "output": out}
        if check in ("subadd", "strong-subadd", "cond-chain", "tsallis-chain"):
            k = 3 if check == "strong-subadd" else 2
            d = 4 if check in ("cond-chain", "tsallis-chain") else int(rng.integers(4, 13))
            state = rng.dirichlet(np.ones(d))
            payload = [float(x) for x in state]
            state = np.array(payload)
        else:
            if check in ("q-subadd", "q-strong-subadd"):
                d = QUANTUM_DIMS[int(rng.integers(len(QUANTUM_DIMS)))]
                k = 3 if check == "q-strong-subadd" else 2
            else:
                d = {"discord": 3 + int(rng.integers(2)), "axis-subadd": 4, "readout-min": 2}[check]
            rho = ginibre(d, rng)
            payload = {"dim": d, "re": rho.real.tolist(), "im": rho.imag.tolist()}
            state = np.array(payload["re"]) + 1j * np.array(payload["im"])
        if check in ("subadd", "strong-subadd", "q-subadd", "q-strong-subadd"):
            shapes = oracles.factorizations(oracles.minimal_padded(d, k), k)
            meta["shape"] = shapes[int(rng.integers(len(shapes)))]
            argv += ["--shape", shape_text(meta["shape"])]
        elif check == "tsallis-chain":
            meta["q"] = Q_VALUES[int(rng.integers(len(Q_VALUES)))]
            argv += ["--q", repr(meta["q"])]
        elif check == "axis-subadd":
            meta["theta"] = math.acos(rng.uniform(-1.0, 1.0))
            meta["phi"] = rng.uniform(0.0, 2.0 * math.pi)
            argv += ["--theta", repr(meta["theta"]), "--phi", repr(meta["phi"])]
        elif check == "readout-min":
            argv += ["--seed", str(int(rng.integers(0, 2**31)))]
        argv += ["--output", str(out)]
        meta["state"] = state
        path.write_text(json.dumps(payload))
        return Request(check, partial(call_main, argv), meta)

    def warmup_inputs(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        rng = rng_for(self.seed, _WARMUP)
        return [self._request(c, rng) for c in EVAL_CHEAP + ("readout-min",)]

    def warmup(self, requests) -> None:
        for req in requests:
            req.call()

    def prepare(self) -> None:
        for r in range(EVAL_POOL_ROUNDS):
            rng = rng_for(self.seed, r)
            checks = [c for c in EVAL_CHEAP for _ in range(EVAL_PER_CHECK)] + ["readout-min"]
            order = rng.permutation(len(checks))
            self.pool.append([self._request(checks[i], rng) for i in order])

    def cleanup(self) -> None:
        if self.dir.is_dir():
            for f in self.dir.iterdir():
                f.unlink()
            self.dir.rmdir()

    def round(self, r: int) -> list[Request]:
        # Past the pool, rounds repeat; each output file is then rewritten
        # with the same deterministic content.
        return self.pool[r % len(self.pool)]

    def verify(self, records: list[Record]) -> Verdict:
        v = Verdict()
        seen: dict[int, str] = {}
        for rec in records:
            v.attempted += 1
            if rec.output != 0:
                v.failed += 1
                continue
            key = id(rec.request)
            if key not in seen:
                seen[key] = check_eval_output(rec.request.meta)
            verdict = seen[key]
            if verdict == "ok":
                v.checks += 1
                v.states += 1
            elif verdict == "failed":
                v.failed += 1
            else:
                v.wrong.append(f"{rec.request.label}: {verdict}")
        return v


def check_eval_output(meta: dict) -> str:
    """``"ok"``, ``"failed"`` or what disagrees, for one exit-0 request."""
    try:
        report = json.loads(Path(meta["output"]).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return f"unreadable output: {exc}"
    check = meta["check"]
    want = oracles.expected(
        check,
        meta["state"],
        shape=meta.get("shape"),
        q=meta.get("q"),
        theta=meta.get("theta"),
        phi=meta.get("phi"),
    )
    bad = oracles.mismatches(report, want)
    if bad:
        return "; ".join(bad)
    if check == "readout-min":
        s = want["entropies.von_neumann"]
        h_min = oracles.lookup(report, "entropies.minimum_readout")
        if not (h_min >= s - BOUND_SLACK and h_min - s <= ACCURACY):
            return "failed"
    return "ok"


WORKLOADS = {w.name: w for w in (Sweep, Eval)}
