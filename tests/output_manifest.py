"""The committed output manifest: the sha256 of the stdout of each argv in ARGVS.

`output_manifest.json` maps each argv, joined by spaces, to the sha256 of
the UTF-8 text that `entswap.cli.main` writes to stdout for it, and records
the build it was made on. Most byte pins hold on that build alone, so the
Tier-1 test that reads the manifest recomputes it there and skips elsewhere.
The PORTABLE argvs are checked on every build.

Regenerate it, and list the argvs whose stdout moved, with

    PYTHONPATH=src python tests/output_manifest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
from pathlib import Path

import numpy as np

from entswap.cli import main
from oracles import BYTE_CHECK_DIMS, DOCUMENT_SHAPES

MANIFEST = Path(__file__).with_name("output_manifest.json")

ARGVS = (
    [["verify", "--trials", "3000", "--dims", dims] for dims in BYTE_CHECK_DIMS]
    + [["swap", "--p", repr(p), "--q", repr(q), *shots]
       for p, q in DOCUMENT_SHAPES for shots in ([], ["--shots", "200003", "--seed", "3"])]
    + [["figures", "--which", which, "--grid", str(grid)]
       for which in ("1a", "1b", "2a", "2b") for grid in (2, 342, 1001, 4097)]
)
# figure 2a is +, -, *, / and sqrt alone, each correctly rounded under IEEE 754, printed
# by Python's correctly rounded '%.17g': the same bytes on every build
PORTABLE = [argv for argv in ARGVS if argv[:3] == ["figures", "--which", "2a"]]


def build() -> dict[str, str]:
    """The Python, numpy and machine whose bits the hashes pin."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": f"{platform.system()} {platform.machine()}"}


def stdout_sha256(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def hashes() -> dict[str, str]:
    return {" ".join(argv): stdout_sha256(argv) for argv in ARGVS}


def moved(recorded: dict[str, str], now: dict[str, str]) -> list[str]:
    """The argvs whose hash differs, or that only one side has."""
    return [key for key in {**recorded, **now} if recorded.get(key) != now.get(key)]


def regenerate() -> int:
    recorded = json.loads(MANIFEST.read_text())["stdout_sha256"] if MANIFEST.exists() else {}
    now = hashes()
    MANIFEST.write_text(json.dumps({"build": build(), "stdout_sha256": now}, indent=2) + "\n")
    for key in moved(recorded, now):
        print(f"{'new' if key not in recorded else 'gone' if key not in now else 'moved'}: {key}")
    print(f"{len(now)} argvs written to {MANIFEST.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
