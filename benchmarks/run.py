"""entswap benchmark: drives `entswap.cli.main(argv)` in-process and reports metrics.

    python3 benchmarks/run.py --workload haar-verify --seed 1 --seconds 10 --trace 0

The package is imported from `src/` of the checkout that holds this file.
Calls run in this one process, with stdout captured, because a subprocess per
call would add the interpreter start and import to every call; that start-up
is measured once, as `setup_s`. Every output passes a correctness gate.

The host's speed swings by a third or more within seconds, so a fixed
calibration kernel that resembles the workload's own work runs on a timer
during the timed calls, and their times are scaled to a reference speed (see
`KERNELS` and `Speed`). Reported values are therefore times at that speed, not
the program's own wall times; the unscaled ones stay in the run's record.

--trace 0 measures the end-to-end metrics without tracing. --trace 1 alternates
untraced and traced passes and reports per-layer counts and self times, plus
the tracing overhead. The last stdout line is the result, the line before it
the provenance. Full results and the spans go to `.benchmark_out/`.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # one process and no extra threads; set before numpy loads

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from bisect import bisect_left
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import gates
import layers
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".benchmark_out"
DEFAULT_SEED = 1
SETUP_REPEATS = 9
TAIL_MIN_CALLS = 1000
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import entswap.cli; entswap.cli.build_parser()"

CAL_BURST = 25  # calibrations before and after each start-up
SEGMENT_S = 0.05  # measured time between two speed factors; short, to follow brief slow spells
LONG_CALL_S = 0.05  # a call that has run this long may be interrupted to calibrate

E2E_UNITS = {"items_per_s": "1/s", "call_p50_ms": "ms",
             "peak_mem_mb": "MB", "setup_s": "s"}


class Timing(NamedTuple):
    start: float
    seconds: float
    nbytes: int
    peak: int  # tracemalloc peak, when asked for


class Harness:
    """Runs calls, gates every output and counts attempts and failures."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self.attempted = 0
        self.failures: list[str] = []
        self._validated: dict[tuple[str, ...], tuple[object, str]] = {}

    def call(self, call: workloads.Call, mem: bool = False) -> Timing:
        """One gated call."""
        out, err = io.StringIO(), io.StringIO()
        peak = 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if mem:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                code = self.cli.main(list(call.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                code = f"raised {exc!r}"
            elapsed = time.perf_counter() - start
            if mem:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        text = out.getvalue()
        self.attempted += 1
        first = self._validated.get(call.argv)
        if first is None:
            reason = gates.check(call.argv, code, text)
            if reason is None:
                self._validated[call.argv] = (code, text)
        else:
            reason = None if first == (code, text) else "output differs from an earlier run of the same arguments"
        if reason is not None:
            self.failures.append(f"{' '.join(call.argv)}: {reason} {err.getvalue()[-200:]!r}")
        return Timing(start, elapsed, len(text.encode()), peak)

    def run_pass(self, calls) -> float:
        return sum(self.call(call).seconds for call in calls)


def _interpreter_mix() -> None:
    total = 0
    for i in range(2000):
        total += i * i
    a = np.arange(16.0)
    for _ in range(40):
        a = np.sqrt(a + 1.0)
    z = np.arange(4096, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(31)


_STREAM = np.arange(1 << 20, dtype=np.uint64)  # 8 MiB


def _stream_mix() -> None:
    # Fresh arrays on purpose: like the shot sampler's, their pages are
    # faulted in and zeroed by the kernel, whose speed varies on its own.
    z = _STREAM * np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(31)


class Kernel(NamedTuple):
    """A fixed piece of work outside entswap whose time tracks the host's speed."""

    mix: Callable[[], None]
    warm: int  # untimed runs before each timed one
    interval_s: float  # calibration period during the measured work
    reference_s: float  # time of one run in the faster periods; it only sets the scale


# A time scales with the host's speed only as far as the work resembles the
# kernel: when the host is busy, interpreter work slows by up to a half while
# array streaming slows by much less. So each workload names the kernel that
# resembles its own work (`Workload.speed`). Right after a call that swept
# large arrays, a cold kernel takes up to a quarter longer than a warm one, so
# each runs untimed first and the speed factor does not depend on the work
# before it. The interpreter kernel allocates nothing large, so that the
# allocator's state, which the measured program changes, does not enter; the
# stream kernel allocates large arrays as the work it resembles does, and the
# after-work ratio in each run record shows whether it stays independent of
# that work. Reference times are those of the host that recorded the baseline
# (an Intel Xeon with 2 vCPUs, Python 3.11.7, numpy 2.4.6).
KERNELS = {
    "interpreter": Kernel(_interpreter_mix, warm=2, interval_s=0.02, reference_s=0.00016),
    "stream": Kernel(_stream_mix, warm=1, interval_s=0.2, reference_s=0.005),
}


def calibrate(kernel: str = "interpreter") -> float:
    """Seconds for one warm run of the kernel."""
    mix = KERNELS[kernel].mix
    for _ in range(KERNELS[kernel].warm):
        mix()
    start = time.perf_counter()
    mix()
    return time.perf_counter() - start


class Speed:
    """Host speed, sampled while the measured work runs.

    An interval timer marks a calibration pair, calibrate(kernel) twice in a
    row, as due every interval of the kernel. The pair runs in this process
    and on this CPU: between calls, or inside a call that has already run
    LONG_CALL_S (at the next bytecode, so after the array operation that is
    running). Short calls are never interrupted, because a call that holds a
    calibration runs slower after it than the calibration's own time, which
    would set the latency tail. A time is reported at the reference speed: the
    raw time, less the calibration that ran inside it, times the kernel's
    reference time over the median calibration time of its segment. The first calibration of a pair
    follows the measured work and the second follows the first, so the ratio
    of the two shows whether the work leaves the calibration slower or faster.
    """

    def __init__(self, kernel: str) -> None:
        self.kernel = kernel
        self.starts: list[float] = []  # when each pair began
        self.pauses: list[float] = []  # how long it held up the measured work
        self.pairs: list[tuple[float, float]] = []
        self.call_start: float | None = None  # set by the caller while a call runs
        self.due = False
        self._first = 0

    def _on_timer(self, signum, frame) -> None:
        if self.call_start is not None and time.perf_counter() - self.call_start >= LONG_CALL_S:
            self.sample()
        else:
            self.due = True

    def sample(self) -> None:
        """Run one calibration pair now."""
        self.due = False
        start = time.perf_counter()
        self.pairs.append((calibrate(self.kernel), calibrate(self.kernel)))
        self.starts.append(start)
        self.pauses.append(time.perf_counter() - start)

    def __enter__(self) -> "Speed":
        signal.signal(signal.SIGALRM, self._on_timer)
        interval = KERNELS[self.kernel].interval_s
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def paused(self, start: float, seconds: float) -> float:
        """Calibration time that fell inside [start, start + seconds)."""
        return sum(self.pauses[bisect_left(self.starts, start):bisect_left(self.starts, start + seconds)])

    def median(self, first: int = 0) -> float:
        """Median calibration time of the pairs from `first` on."""
        return statistics.median([t for pair in self.pairs[first:] for t in pair] or [calibrate(self.kernel)])

    def factor(self) -> float:
        """Factor for the segment that ends now; the next segment starts."""
        first, self._first = self._first, len(self.pairs)
        return KERNELS[self.kernel].reference_s / self.median(first)

    def after_work_ratio(self) -> float:
        """Median over pairs of first / second calibration time; 1 when the
        measured work does not change the time of the calibration after it."""
        return statistics.median(a / b for a, b in self.pairs) if self.pairs else math.nan


def setup_seconds(harness: Harness) -> tuple[float, list[float]]:
    """Median wall time, at the reference speed, of a fresh interpreter importing
    entswap.cli and building the parser; also the raw times.

    Calibration runs between the start-ups, not during them, because it would
    compete with the child for the one CPU. Start-up is interpreter work, so it
    takes the interpreter kernel whatever the workload.
    """
    raw, scaled = [], []
    before = [calibrate() for _ in range(CAL_BURST)]
    for rep in range(SETUP_REPEATS + 1):  # the first run also writes the bytecode cache
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - start
        after = [calibrate() for _ in range(CAL_BURST)]
        factor = KERNELS["interpreter"].reference_s / statistics.median(before + after)
        before = after
        harness.attempted += 1
        if proc.returncode != 0:
            harness.failures.append(f"setup exited {proc.returncode}: {proc.stderr[-200:]!r}")
        elif rep:
            raw.append(elapsed)
            scaled.append(elapsed * factor)
    return (statistics.median(scaled) if scaled else math.nan), raw


def tail(values: list[float]) -> float:
    """Nearest-rank p99 where ten or more values lie beyond it, else the median.

    Only point-queries holds TAIL_MIN_CALLS calls of one kind in a pass; for
    the other workloads a p99 would be the single slowest call.
    """
    if len(values) < TAIL_MIN_CALLS:
        return statistics.median(values)
    return sorted(values)[math.ceil(0.99 * len(values)) - 1]


def measure_end_to_end(harness: Harness, wl: workloads.Workload, seconds: float) -> tuple[dict, dict]:
    setup_s, setup_samples = setup_seconds(harness)
    for call in wl.warmup:
        harness.call(call)
    # Untimed pass under tracemalloc, one call at a time so the gates stay outside it.
    peak = max(harness.call(call, mem=True).peak for call in wl.calls)

    durations: dict[str, list[float]] = {call.kind: [] for call in wl.calls}
    pass_ends: list[dict[str, int]] = []
    raw_pass_seconds: list[float] = []
    pass_seconds: list[float] = []
    deadline = time.perf_counter() + seconds
    with Speed(wl.speed) as speed:
        # Whole passes only, as many as end by the deadline going by the passes so far.
        while not pass_seconds or time.perf_counter() + statistics.median(raw_pass_seconds) <= deadline:
            segment: list[tuple[str, float]] = []
            raw_pass = scaled_pass = 0.0
            for i, call in enumerate(wl.calls):
                speed.call_start = time.perf_counter()
                timing = harness.call(call)
                speed.call_start = None
                if speed.due:
                    speed.sample()
                elapsed = timing.seconds - speed.paused(timing.start, timing.seconds)
                segment.append((call.kind, elapsed))
                raw_pass += elapsed
                if sum(e for _, e in segment) >= SEGMENT_S or i == len(wl.calls) - 1:
                    factor = speed.factor()
                    for kind, e in segment:
                        durations[kind].append(e * factor)
                        scaled_pass += e * factor
                    segment = []
            raw_pass_seconds.append(raw_pass)
            pass_ends.append({kind: len(d) for kind, d in durations.items()})
            pass_seconds.append(scaled_pass)

    # Calls of different kinds differ in cost, so latency is taken per kind and
    # averaged. The tail is taken per pass and its median over passes is kept,
    # so that one pass hit by a slow spell of the host does not set it. It
    # stays in the run's record and is not a reported metric: over seeds it
    # spread by up to 0.23 of its median, too close to any bound it could have.
    tails = []
    for kind, d in durations.items():
        bounds = [0] + [ends[kind] for ends in pass_ends]
        tails.append(statistics.median(tail(d[a:b]) for a, b in zip(bounds, bounds[1:])))
    metrics = {
        "items_per_s": wl.items / statistics.median(pass_seconds),
        "call_p50_ms": 1e3 * statistics.fmean(statistics.median(d) for d in durations.values()),
        "peak_mem_mb": peak / 1e6,
        "setup_s": setup_s,
    }
    raw = {"items_per_s": wl.items / statistics.median(raw_pass_seconds),
           "setup_s": statistics.median(setup_samples) if setup_samples else math.nan}
    detail = {"raw": raw, "call_p99_ms": 1e3 * statistics.fmean(tails), "calibrations": len(speed.pairs), "cal_median_s": speed.median(),
              "cal_after_work_ratio": speed.after_work_ratio(),
              "raw_pass_seconds": raw_pass_seconds,
              "pass_seconds": pass_seconds, "items_per_pass": wl.items, "setup_samples_s": setup_samples,
              "calls_per_kind": {kind: len(d) for kind, d in durations.items()}}
    return metrics, detail


def measure_layers(harness: Harness, wl: workloads.Workload, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Per-layer counts of the first traced pass, and raw times as medians over passes."""
    for call in wl.warmup:
        harness.call(call)
    tracer = layers.Tracer()
    summaries, overheads, output_bytes = [], [], 0
    deadline = time.perf_counter() + seconds
    while not summaries or time.perf_counter() < deadline:
        untraced = harness.run_pass(wl.calls)
        first = len(tracer.spans)
        traced = 0.0
        output_bytes = 0
        with tracer:
            for call in wl.calls:
                timing = harness.call(call)
                traced += timing.seconds
                output_bytes += timing.nbytes
        summaries.append(tracer.summary(first))
        overheads.append(traced - untraced)
    tracer.write(spans_path)

    counts = summaries[0]
    metrics = {}
    for name in layers.NAMES:
        metrics[f"{name}.calls"] = counts[name]["calls"]
        if name in layers.BATCH:
            metrics[f"{name}.items"] = counts[name]["items"]
        metrics[f"{name}.per_item"] = counts[name]["calls"] / wl.items
        metrics[f"{name}.self_s"] = statistics.median(s[name]["self_s"] for s in summaries)
    metrics["cli.output_bytes"] = output_bytes
    metrics["trace.overhead_s"] = statistics.median(overheads)
    metrics["trace.absent_names"] = len(tracer.absent)
    detail = {
        "passes": len(summaries),
        "absent": tracer.absent,
        "counts_repeat": all(
            {n: (s[n]["calls"], s[n]["items"]) for n in layers.NAMES}
            == {n: (counts[n]["calls"], counts[n]["items"]) for n in layers.NAMES}
            for s in summaries
        ),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, detail


def per_layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    return {"self_s": "s", "overhead_s": "s", "per_item": "calls/item", "output_bytes": "bytes"}.get(stat, "count")


def provenance(seed: int) -> dict:
    cpu_model = platform.processor() or None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu_model)
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "entswap").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "entswap" / "cli.py").is_file():
        print(f"error: no entswap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import entswap.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported entswap from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    wl = workloads.build(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    prov = provenance(args.seed)
    prov["loadavg_start"] = os.getloadavg()
    # The vCPUs slow down at different times; staying on one lets the
    # calibration see the speed of the CPU that runs the work.
    prov["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {prov["pinned_cpu"]})
    harness = Harness(cli)
    if args.trace:
        metrics, detail = measure_layers(harness, wl, args.seconds, OUT_DIR / f"{stem}.spans.json")
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics, detail = measure_end_to_end(harness, wl, args.seconds)
        units = E2E_UNITS
    prov["loadavg_end"] = os.getloadavg()

    result = {
        "correct": not harness.failures,
        "attempted": harness.attempted,
        "failed": len(harness.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    detail["wall_s"] = time.perf_counter() - started
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace, "provenance": prov,
              "detail": detail, "failures": harness.failures[:20], "result": result}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
