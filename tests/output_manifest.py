"""The committed output manifest: the sha256 of the stdout of each argv in ARGVS.

`output_manifest.json` maps each argv, joined by spaces, to the sha256 of
the UTF-8 text that `entswap.cli.main` writes to stdout for it, and records
the build it was made on. Most byte pins hold on that build alone, so the
Tier-1 test that reads the manifest recomputes it there and skips elsewhere.
The PORTABLE argvs are checked on every build, and so is the portable part
of each `swap` document, whose sha256 `portable_swap_sha256` records.

Regenerate it, and list the argvs whose stdout or portable `swap` part moved, with

    PYTHONPATH=src python tests/output_manifest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np

from entswap import swap
from entswap.cli import main
from entswap.experiment import RunConfig, run_ensemble
from entswap.states import BELL_LABELS
from oracles import BYTE_CHECK_DIMS, DOCUMENT_SHAPES

MANIFEST = Path(__file__).with_name("output_manifest.json")

# a `swap` run of every document shape, without and with shots: (p, q, shots); the seed is 3
SWAP_RUNS = [(p, q, shots) for p, q in DOCUMENT_SHAPES for shots in (None, 200003)]
SWAP_SEED = 3


def swap_argv(p: float, q: float, shots: int | None) -> list[str]:
    shot_args = [] if shots is None else ["--shots", str(shots), "--seed", str(SWAP_SEED)]
    return ["swap", "--p", repr(p), "--q", repr(q), *shot_args]


ARGVS = (
    [["verify", "--trials", "3000", "--dims", dims] for dims in BYTE_CHECK_DIMS]
    + [swap_argv(*run) for run in SWAP_RUNS]
    + [["figures", "--which", which, "--grid", str(grid)]
       for which in ("1a", "1b", "2a", "2b") for grid in (2, 342, 1001, 4097)]
)
# figure 2a is +, -, *, / and sqrt alone, each correctly rounded under IEEE 754, printed
# by Python's correctly rounded '%.17g': the same bytes on every build
PORTABLE = [argv for argv in ARGVS if argv[:3] == ["figures", "--which", "2a"]]

# the `swap` leaves that read a logarithm: left out of a document's portable part. C_re
# is S - S of one entropy, 0.0 on every build, so it stays
SWAP_ENTROPY_KEYS = ("svn", "svn_full", "pvn", "pvn_full")


def portable_swap(p: float, q: float, shots: int | None) -> str:
    """The portable part of the `swap` document of a run, built from `swap._branches` and `run_ensemble`.

    p, q, the probabilities and the post states are +, -, *, / and sqrt, and
    the `--shots` block is the integer stream cut at `np.cumsum`'s
    boundaries, so its bytes are the same on every build. The entropy leaves
    (`initial` and each outcome's SWAP_ENTROPY_KEYS) read log2 and are left
    out; a live branch's C_re, the difference of one entropy with itself, is
    0.0. json.dumps(indent=2) of the rest, as `portable_part` gives it.
    """
    probabilities, _, amplitudes = swap._branches(p, q)
    outcomes = []
    for label, probability, row in zip(BELL_LABELS, probabilities.tolist(), amplitudes.tolist()):
        live = not math.isnan(row[0])  # a dead branch's row is NaN: it has no post state or measures
        outcomes.append({
            "label": label,
            "probability": round(probability, 4),
            "probability_full": probability,
            "post_state": [[x, 0.0] for x in row] if live else None,
            "cre": 0.0 if live else None,
            "cre_full": 0.0 if live else None,
        })
    doc = {"p": p, "q": q, "outcomes": outcomes}
    if shots is not None:
        result = run_ensemble(RunConfig(p, q, shots, SWAP_SEED))
        doc["empirical"] = {
            "shots": shots,
            "seed": SWAP_SEED,
            "counts": result.counts,
            "frequencies": result.empirical_freq,
            "max_abs_error": float(max(result.freq_error().values())),
        }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def portable_part(document: str) -> str:
    """A printed `swap` document less its entropy leaves, as json.dumps(indent=2) writes the rest."""
    doc = json.loads(document)
    del doc["initial"]
    for entry in doc["outcomes"]:
        for key in SWAP_ENTROPY_KEYS:
            del entry[key]
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def build() -> dict[str, str]:
    """The Python, numpy and machine whose bits the hashes pin."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": f"{platform.system()} {platform.machine()}"}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")
    return out.getvalue()


def stdout_sha256(argv: list[str]) -> str:
    return sha256(stdout(argv))


def hashes() -> dict[str, str]:
    return {" ".join(argv): stdout_sha256(argv) for argv in ARGVS}


def portable_swap_hashes() -> dict[str, str]:
    return {" ".join(swap_argv(*run)): sha256(portable_swap(*run)) for run in SWAP_RUNS}


def moved(recorded: dict[str, str], now: dict[str, str]) -> list[str]:
    """The argvs whose hash differs, or that only one side has."""
    return [key for key in {**recorded, **now} if recorded.get(key) != now.get(key)]


def regenerate() -> int:
    recorded = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    now = {"stdout_sha256": hashes(), "portable_swap_sha256": portable_swap_hashes()}
    MANIFEST.write_text(json.dumps({"build": build(), **now}, indent=2) + "\n")
    for section, current in now.items():
        before = recorded.get(section, {})
        for key in moved(before, current):
            print(f"{section}: {'new' if key not in before else 'gone' if key not in current else 'moved'}: {key}")
    print(f"{len(now['stdout_sha256'])} argvs written to {MANIFEST.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
