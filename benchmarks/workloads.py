"""The benchmark workloads, each generated from the benchmark seed.

Every input comes from `random.Random(seed)`, so one seed always yields the
same argument lists. The program only ever sees argv. One pass runs each call
of `Workload.calls` once; the harness repeats passes for the measured time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

VERIFY_TRIALS = 10_000
FIGURE_GRID = 1001  # the CLI default; the figure calls pass no --grid
SHOTS = 10_000_000
QUERIES = 1000


@dataclass(frozen=True)
class Call:
    """One `main(argv)` call. Calls of one `kind` cost about the same."""

    kind: str
    argv: tuple[str, ...]
    items: int


@dataclass(frozen=True)
class Workload:
    name: str
    warmup: tuple[Call, ...]
    calls: tuple[Call, ...]
    speed: str = "interpreter"  # the calibration kernel in run.py that resembles the work

    @property
    def items(self) -> int:
        """Work items in one pass."""
        return sum(call.items for call in self.calls)


def _stream_seed(rnd: random.Random) -> str:
    return str(rnd.randrange(2**32))


def _weight(rnd: random.Random) -> str:
    return repr(rnd.random())


# Why: the per-state Python path PureState -> DensityMatrix x3 ->
# partial_trace -> hermitian_eigenvalues x2 -> measures.report, where linalg
# holds most of the self time. The (3,2) half forces the general 3x3 Jacobi,
# so a qubit-only 2x2 shortcut shows on only half the work.
def haar_verify(rnd: random.Random) -> Workload:
    calls = tuple(
        Call(dims, ("verify", "--trials", str(VERIFY_TRIALS), "--dims", dims,
                    "--seed", _stream_seed(rnd)), VERIFY_TRIALS)
        for dims in ("2,2", "3,2")
    )
    warmup = tuple(Call(c.kind, c.argv[:2] + ("50",) + c.argv[3:], 50) for c in calls)
    return Workload("haar-verify", warmup, calls)


# Why: the closed forms in swap, scalar measures.report on diagonal 2x2
# states, and 17-digit CSV formatting in cli. It makes no random draws, so a
# change to rng should not move it. 2b holds most of the pass.
def figure_sweep(rnd: random.Random) -> Workload:
    calls = tuple(Call(which, ("figures", "--which", which), FIGURE_GRID)
                  for which in ("1a", "1b", "2a", "2b"))
    warmup = tuple(Call(c.kind, c.argv + ("--grid", "11"), 11) for c in calls)
    return Workload("figure-sweep", warmup, calls)


# Why: nearly all time is in rng.uniforms, rng.categorical and bincount, and
# memory grows with shots, so chunked streaming shows here while the
# closed-form layers do almost nothing. The (0, 1) pair has zero-probability
# branches, which the categorical sampler must never pick. Its time is array
# streaming, so its speed is calibrated with the streaming kernel.
def shot_sampling(rnd: random.Random) -> Workload:
    pairs = [(_weight(rnd), _weight(rnd)) for _ in range(2)] + [("0", "1")]
    calls = tuple(
        Call("shots", ("swap", "--p", p, "--q", q, "--shots", str(SHOTS),
                       "--seed", _stream_seed(rnd)), SHOTS)
        for p, q in pairs
    )
    warmup = (Call("shots", calls[0].argv[:6] + ("1000",) + calls[0].argv[7:], 1000),)
    return Workload("shot-sampling", warmup, calls, speed="stream")


# Why: the N = 1 path, where argparse and JSON encoding take a large share
# and the rest is scalar swap/measures. A batched rewrite that taxes scalar
# calls shows here and nowhere else. A tenth of the weights are each exactly
# 0 and 1, so branches with a null post state are part of the mix.
def point_queries(rnd: random.Random) -> Workload:
    def weight() -> str:
        roll = rnd.random()
        return "0" if roll < 0.1 else "1" if roll < 0.2 else _weight(rnd)

    calls = tuple(Call("query", ("swap", "--p", weight(), "--q", weight()), 1)
                  for _ in range(QUERIES))
    return Workload("point-queries", calls[:1], calls)


WORKLOADS = {
    "haar-verify": haar_verify,
    "figure-sweep": figure_sweep,
    "shot-sampling": shot_sampling,
    "point-queries": point_queries,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](random.Random(seed))
