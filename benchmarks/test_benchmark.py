"""Tests of the benchmark itself: every gate can fail, and the tracer counts right.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import gates  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from entswap import cli, swap  # noqa: E402


def call(*argv: str) -> tuple[tuple[str, ...], int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return argv, code, buf.getvalue()


def edit_json(out: str, change) -> str:
    doc = json.loads(out)
    change(doc)
    return json.dumps(doc, indent=2) + "\n"


@pytest.fixture(scope="module")
def verify_out():
    return call("verify", "--trials", "20", "--dims", "3,2", "--seed", "5")


@pytest.fixture(scope="module")
def shots_out():
    return call("swap", "--p", "0.2", "--q", "0.7", "--shots", "5000", "--seed", "3")


def test_verify_gate_passes_and_fails(verify_out):
    argv, code, out = verify_out
    assert gates.check(argv, code, out) is None
    assert gates.check(argv, 1, out)
    assert gates.check(argv, code, edit_json(out, lambda d: d.update({"pass": False})))
    assert gates.check(argv, code, edit_json(out, lambda d: d.update(max_vn_residual=2e-9)))
    assert gates.check(argv, code, out.replace('"max_linear_residual": ', '"max_linear_residual": NaN, "x": '))
    assert gates.check(argv, code, edit_json(out, lambda d: d.update(seed=6)))
    assert gates.check(argv, code, out[:-10])


@pytest.mark.parametrize("which", ["1a", "1b", "2a", "2b"])
def test_figure_gate_passes_and_fails(which):
    argv, code, out = call("figures", "--which", which, "--grid", "11")
    assert gates.check(argv, code, out) is None
    lines = out.split("\n")
    cells = lines[4].split(",")
    cells[-1] = repr(float(cells[-1]) + 1e-9)
    assert gates.check(argv, code, "\n".join(lines[:4] + [",".join(cells)] + lines[5:]))
    assert gates.check(argv, code, "\n".join(lines[:4] + lines[5:]))
    assert gates.check(argv, code, out.replace(lines[0], lines[0] + "x"))
    assert gates.check(argv, code, out.rstrip("\n"))


def test_figure_gate_expects_the_default_grid():
    argv, code, out = call("figures", "--which", "2a", "--grid", "11")
    assert gates.check(argv[:3], code, out)


@pytest.mark.parametrize("p, q", [("0", "1"), ("0.25", "0.6"), ("1", "1")])
def test_point_query_gate_passes_and_fails(p, q):
    argv, code, out = call("swap", "--p", p, "--q", q)
    assert gates.check(argv, code, out) is None

    def shift(doc):
        doc["outcomes"][2]["probability_full"] += 1e-9

    def fill_or_empty(doc):
        for o in doc["outcomes"]:
            o["post_state"] = [[1.0, 0.0]] * 4 if o["post_state"] is None else None

    assert gates.check(argv, code, edit_json(out, shift))
    assert gates.check(argv, code, edit_json(out, fill_or_empty))
    assert gates.check(argv, code, edit_json(out, lambda d: d["initial"].update(svn_pair_q_full=0.5)))


def test_shot_gate_passes_and_fails(shots_out, monkeypatch):
    argv, code, out = shots_out
    assert gates.check(argv, code, out) is None

    def move_one(doc):
        counts = doc["empirical"]["counts"]
        counts["phi+"] -= 1
        counts["psi+"] += 1
        doc["empirical"]["frequencies"] = {k: v / 5000 for k, v in counts.items()}

    assert gates.check(argv, code, edit_json(out, move_one))
    assert gates.check(argv, code, edit_json(out, lambda d: d["empirical"]["frequencies"].update({"phi+": 0.0})))
    assert gates.check(argv, code, edit_json(out, lambda d: d.pop("empirical")))

    def skew(doc):
        doc["empirical"]["counts"] = {"phi+": 0, "phi-": 0, "psi+": 2500, "psi-": 2500}
        doc["empirical"]["frequencies"] = {"phi+": 0.0, "phi-": 0.0, "psi+": 0.5, "psi-": 0.5}

    monkeypatch.setattr(gates, "reference_counts", lambda *a: [0, 0, 2500, 2500])
    assert "sigma" in gates.check(argv, code, edit_json(out, skew))


def test_reference_stream_reproduces_the_seed_commit_counts():
    wl = workloads.build("shot-sampling", run.DEFAULT_SEED)
    for c in wl.calls:
        opts = dict(zip(c.argv[1::2], c.argv[2::2]))
        key = (opts["--p"], opts["--q"], int(opts["--shots"]), int(opts["--seed"]))
        assert gates.reference_counts(float(key[0]), float(key[1]), key[2], key[3]) == gates.SEED_COMMIT_COUNTS[key]


def test_reference_stream_is_chunk_invariant():
    whole = gates.stream_uniforms(11, 0, 1000)
    parts = [gates.stream_uniforms(11, s, n) for s, n in ((0, 333), (333, 1), (334, 666))]
    assert (whole == np.concatenate(parts)).all()
    assert gates.reference_counts(0.3, 0.8, 1000, 11, chunk=7) == gates.reference_counts(0.3, 0.8, 1000, 11)


class FakeCli:
    def __init__(self, behaviour):
        self.behaviour = behaviour

    def main(self, argv):
        return self.behaviour(argv)


def test_harness_counts_crashes_exit_codes_and_changed_reruns(verify_out):
    argv, _, out = verify_out
    good = workloads.Call("3,2", argv, 20)

    def crash(_):
        raise RuntimeError("boom")

    def usage(_):
        raise SystemExit(2)

    def fail(_):
        sys.stdout.write(out)
        return 1

    for behaviour in (crash, usage, fail):
        harness = run.Harness(FakeCli(behaviour))
        harness.call(good)
        assert (harness.attempted, len(harness.failures)) == (1, 1)

    outputs = iter([out, out.replace("2.2", "2.3")])
    harness = run.Harness(FakeCli(lambda _: sys.stdout.write(next(outputs)) and 0))
    harness.call(good)
    harness.call(good)
    assert (harness.attempted, len(harness.failures)) == (2, 1)
    assert "earlier run" in harness.failures[0]


def traced_pass(calls) -> layers.Tracer:
    harness = run.Harness(cli)
    with layers.Tracer() as tracer:
        for c in calls:
            harness.call(c)
    assert not harness.failures
    return tracer


def test_tracer_counts_the_verify_pipeline():
    trials = 30
    argv = ("verify", "--trials", str(trials), "--dims", "3,2", "--seed", "9")
    stats = traced_pass([workloads.Call("3,2", argv, trials)]).summary()
    assert stats["linalg.DensityMatrix"]["calls"] == 3 * trials
    assert stats["linalg.hermitian_eigenvalues"]["calls"] == 2 * trials
    assert stats["measures.report"]["calls"] == trials
    assert stats["rng.uniforms"]["items"] == 2 * 3 * 2 * trials
    assert stats["states.haar_states"]["items"] == trials


def test_tracer_counts_shots_and_restores_the_package():
    original = swap.bbm_outcomes
    argv = ("swap", "--p", "0.4", "--q", "0.9", "--shots", "777", "--seed", "2")
    tracer = traced_pass([workloads.Call("shots", argv, 777)])
    stats = tracer.summary()
    assert stats["rng.uniforms"]["items"] == 777
    assert stats["experiment.run_ensemble"]["items"] == 777
    assert stats["cli.main"]["calls"] == 1
    assert swap.bbm_outcomes is original and not hasattr(cli.run_ensemble, "__wrapped__")
    top = [s for s in tracer.spans if s[3] == -1]
    total_self = sum(v["self_s"] for v in stats.values())
    assert total_self == pytest.approx(sum(s[2] - s[1] for s in top), rel=1e-9)


def test_tracer_reports_a_missing_name_and_goes_on(monkeypatch):
    monkeypatch.delattr(swap, "special_case_probs")
    argv = ("swap", "--p", "0.5", "--q", "0.5")
    tracer = traced_pass([workloads.Call("query", argv, 1)])
    assert tracer.absent == ["swap.special_case_probs"]
    assert tracer.summary()["swap.bbm_outcomes"]["calls"] == 1


def test_workloads_follow_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 4) == workloads.build(name, 4)
    assert workloads.build("point-queries", 4) != workloads.build("point-queries", 5)
    weights = {w for c in workloads.build("point-queries", 4).calls for w in c.argv[2::2]}
    assert {"0", "1"} <= weights


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "point-queries", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_is_a_p99_only_with_ten_calls_beyond_it():
    assert run.tail([float(i) for i in range(999)]) == 499.0
    assert run.tail([float(i) for i in range(1000)]) == 989.0


@pytest.mark.parametrize("kernel", sorted(run.KERNELS))
def test_speed_samples_during_a_call_and_subtracts_itself(kernel):
    with run.Speed(kernel) as speed:
        speed.call_start = start = time.perf_counter()
        while time.perf_counter() - start < 5 * run.KERNELS[kernel].interval_s:
            pass
        seconds = time.perf_counter() - start
    assert len(speed.pairs) >= 3
    assert speed.paused(start, seconds) == pytest.approx(sum(speed.pauses))
    assert speed.paused(start + seconds, 1.0) == 0
    assert speed.factor() > 0
    assert 0.5 < speed.after_work_ratio() < 2


def test_speed_leaves_short_calls_alone():
    with run.Speed("interpreter") as speed:
        speed.call_start = time.perf_counter()
        time.sleep(2 * run.KERNELS["interpreter"].interval_s)  # a call shorter than LONG_CALL_S
        speed.call_start = None
        assert speed.due and not speed.pairs
        speed.sample()
    assert len(speed.pairs) == 1 and not speed.due
