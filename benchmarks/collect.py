"""Run the benchmark over seeds 1-10 on every workload and summarise each metric's spread.

    python3 benchmarks/collect.py --trace-runs --out set_a.json
    python3 benchmarks/collect.py --out set_b.json --compare set_a.json

For every workload in BENCHMARK.json it runs `run.py` once per seed for the
contract's run_seconds, then prints, per end-to-end metric, the median and the
quartile spread (Q3 - Q1) / median of the values, as
`statistics.quantiles(values, n=4)` gives them. A metric is steady when its
spread is below its bound in BENCHMARK.json; this holds `setup_s` to its bound
too, although the contract leaves the spread of `setup_s` unchecked.
Each run keeps, besides its result, the unscaled throughput and pass times and
the calibration statistics from its record in `.benchmark_out/`. With
--trace-runs it also makes one traced run per workload at seed 1. With
--compare it prints how far each median moved from the other file's and
checks that none is worse by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)
SECONDS = CONTRACT["run_seconds"]
RAW_KEYS = ("raw", "call_p99_ms", "raw_pass_seconds", "cal_median_s", "cal_after_work_ratio", "calibrations", "wall_s")


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    record = json.loads((ROOT / ".benchmark_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    detail = {key: record["detail"][key] for key in RAW_KEYS if key in record["detail"]}
    return {"seed": seed, "provenance": json.loads(lines[-2])["provenance"], **json.loads(lines[-1]),
            "detail": detail}


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def worse_by(metric: dict, new: float, old: float) -> float:
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace-runs", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--compare", type=Path, help="an earlier --out file of the same code")
    args = parser.parse_args(argv)

    doc = {"run_seconds": SECONDS, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in CONTRACT["workloads"]):
        runs = [run_once(workload, seed, 0) for seed in SEEDS]
        entry = {"runs": runs, "summary": {}}
        ok &= all(run["correct"] for run in runs)
        for metric in CONTRACT["end_to_end"]:
            name = metric["name"]
            median, rel = spread([run["metrics"][name]["value"] for run in runs])
            entry["summary"][name] = {"median": median, "spread": rel, "bound": metric["bound"]}
            steady = rel < metric["bound"]
            ok &= steady
            print(f"{workload:14s} {name:12s} median {median:12.6g} {metric['unit']:4s} "
                  f"spread {rel:7.4f} bound {metric['bound']:.3f}{'' if steady else '  UNSTEADY'}")
        ratio = statistics.median(run["detail"]["cal_after_work_ratio"] for run in runs)
        entry["summary"]["cal_after_work_ratio"] = {"median": ratio}
        print(f"{workload:14s} calibration after work / after calibration: median {ratio:.4f}")
        if args.trace_runs:
            entry["traced"] = run_once(workload, SEEDS[0], 1)
        doc["workloads"][workload] = entry
        print(f"{workload:14s} correct in all runs: {all(run['correct'] for run in runs)}", flush=True)

    if args.compare:
        before = json.loads(args.compare.read_text())["workloads"]
        doc["compared_with"] = args.compare.name
        for workload, entry in doc["workloads"].items():
            for metric in CONTRACT["end_to_end"]:
                name = metric["name"]
                old = before[workload]["summary"][name]["median"]
                change = worse_by(metric, entry["summary"][name]["median"], old)
                entry["summary"][name]["worse_than_compared_by"] = change
                held = change <= metric["bound"]
                ok &= held
                print(f"{workload:14s} {name:12s} worse by {change:+.4f} (bound {metric['bound']}){'' if held else '  REGRESSED'}")
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print("all steady and correct" if ok else "NOT all steady and correct")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
