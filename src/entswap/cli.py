"""Command line: figure data as CSV, verification and swap reports as JSON.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
CSV cells carry 17 significant digits so values round-trip exactly; JSON
summaries show 4 decimals with the full-precision value in a `_full`
sibling field.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from . import measures, states, swap
from .experiment import RunConfig, run_ensemble

FIGURE_Q_SET = (0.1, 0.25, 0.5, 0.75, 0.9)
FIGURE_HEADERS = {
    "1a": ["p"] + [f"svn_phi_q{q:g}" for q in FIGURE_Q_SET],
    "1b": ["p"] + [f"svn_psi_q{q:g}" for q in FIGURE_Q_SET],
    "2a": ["q", "pr_phi", "pr_psi", "pl_initial"],
    "2b": ["q", "svn_initial", "pvn_initial", "svn_psi", "pvn_final_psi"],
}
DEFAULT_GRID = 1001
DEFAULT_SEED = 7
VERIFY_TOL = 1e-9
VERIFY_CHUNK = 1024  # states per batch in `verify`: bounds memory for any --trials
FIGURE_CHUNK = 4096  # grid points per batch in `figures`: bounds memory for any --grid
VERIFY_MAX_DIM = 16  # largest DA*DB of `verify --dims`: bounds a chunk's rho_A stack

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _shown(name: str, value: float | None) -> dict:
    """`name` rounded to 4 decimals and `name_full` at full precision; two nulls for None."""
    return {name: None if value is None else round(float(value), 4), f"{name}_full": value}


def _reduce(psi: np.ndarray) -> np.ndarray:
    """rho_A of each pure state in a stack of amplitude matrices psi[N, dA, dB]."""
    return np.einsum("nab,ncb->nac", psi, psi.conj())


def _figure_rows(which: str, x: np.ndarray) -> np.ndarray:
    """Rows of one figure at the sweep points x, each column computed over all of x at once."""
    if which in ("1a", "1b"):
        pick = 0 if which == "1a" else 1
        columns = [x, swap.post_entropies(x[:, None], np.array(FIGURE_Q_SET))[pick]]
    elif which == "2a":
        pr_phi, pr_psi = swap.special_case_probs(x)
        columns = [x, pr_phi, pr_psi, swap.predictability_probability(x)[2]]
    elif which == "2b":
        p = 1.0 - x
        initial_diag = np.zeros((len(x), 2, 2))
        initial_diag[:, 0, 0], initial_diag[:, 1, 1] = p, 1.0 - p
        initial = measures.report(initial_diag)
        psi_plus = swap._post_amplitudes(p, x)[:, states.BELL_LABELS.index("psi+")]
        final = measures.report(_reduce(psi_plus.reshape(len(x), 2, 2)))
        columns = [x, initial.s_vn, initial.p_vn, final.s_vn, final.p_vn]
    else:
        raise ValueError(f"unknown figure {which!r}")
    return np.column_stack(columns)


def _csv_lines(rows: np.ndarray) -> str:
    """The rows as CSV lines of `%.17g` cells, the whole block formatted by one `%`."""
    n, k = rows.shape
    return ((",".join(["%.17g"] * k) + "\n") * n) % tuple(rows.ravel().tolist())


def _figure_csv(which: str, grid: int):
    """CSV text of one figure: the header, then one piece per FIGURE_CHUNK rows."""
    yield ",".join(FIGURE_HEADERS[which]) + "\n"
    for start in range(0, grid, FIGURE_CHUNK):
        x = np.arange(start, min(start + FIGURE_CHUNK, grid)) / (grid - 1)
        yield _csv_lines(_figure_rows(which, x))


def _emit(pieces: Iterable[str], out: str | None) -> int:
    """Write the text pieces to stdout, or atomically (temp file + rename) to `out`."""
    if out is None:
        try:
            for piece in pieces:
                sys.stdout.write(piece)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader is gone: point stdout's descriptor at devnull, as the
            # Python docs advise, so that no later write or exit flush can raise
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            print("error: cannot write to stdout: the reader closed the pipe", file=sys.stderr)
            return EXIT_IO
        return EXIT_OK
    path = Path(out)
    try:
        parent = str(path.parent) or "."
        fd, tmp_name = tempfile.mkstemp(dir=parent, prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", newline="") as fh:
                for piece in pieces:
                    fh.write(piece)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_figures(args: argparse.Namespace) -> int:
    return _emit(_figure_csv(args.which, args.grid), args.out)


def cmd_verify(args: argparse.Namespace) -> int:
    da, db = args.dims
    vn_target = math.log2(da)
    l_target = (da - 1) / da
    max_vn = 0.0
    max_l = 0.0
    for start in range(0, args.trials, VERIFY_CHUNK):
        count = min(VERIFY_CHUNK, args.trials - start)
        psi = states.haar_states(da, db, args.seed, count, start=start).reshape(count, da, db)
        rep = measures.report(_reduce(psi))
        # np.maximum and np.max propagate NaN, where Python's max would drop it
        max_vn = float(np.maximum(max_vn, np.max(np.abs(rep.vn_sum - vn_target))))
        max_l = float(np.maximum(max_l, np.max(np.abs(rep.l_sum - l_target))))
    ok = bool(np.isfinite([max_vn, max_l]).all()) and max_vn < VERIFY_TOL and max_l < VERIFY_TOL
    doc = {
        "trials": args.trials,
        "dims": [da, db],
        "seed": args.seed,
        "vn_target": vn_target,
        "linear_target": l_target,
        "max_vn_residual": max_vn,
        "max_linear_residual": max_l,
        "tolerance": VERIFY_TOL,
        "pass": ok,
    }
    code = _emit([json.dumps(doc, indent=2) + "\n"], args.out)
    if code != EXIT_OK:
        return code
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_swap(args: argparse.Namespace) -> int:
    outcomes = swap.bbm_outcomes(args.p, args.q)
    pairs = [states.schmidt_pair(args.p), states.schmidt_pair(args.q)]
    posts = [o.post_state for o in outcomes if o.post_state is not None]
    amps = np.stack([state.amplitudes for state in pairs + posts]).reshape(-1, 2, 2)
    rep = measures.report(_reduce(amps))  # one report for both source pairs and every branch
    pair_p, pair_q = rep.s_vn[:2].tolist()
    branch_measures = zip(rep.s_vn[2:].tolist(), rep.p_vn[2:].tolist(), rep.c_re[2:].tolist())
    entries = []
    for o in outcomes:
        live = o.post_state is not None
        s_vn, p_vn, c_re = next(branch_measures) if live else (None, None, None)
        entries.append({
            "label": o.label,
            **_shown("probability", o.probability),
            "post_state": [[z.real, z.imag] for z in o.post_state.amplitudes] if live else None,
            **_shown("svn", s_vn), **_shown("pvn", p_vn), **_shown("cre", c_re),
        })
    doc = {
        "p": args.p,
        "q": args.q,
        "initial": {**_shown("svn_pair_p", pair_p), **_shown("svn_pair_q", pair_q)},
        "outcomes": entries,
    }
    if args.shots is not None:
        result = run_ensemble(RunConfig(args.p, args.q, args.shots, args.seed))
        doc["empirical"] = {
            "shots": args.shots,
            "seed": args.seed,
            "counts": result.counts,
            "frequencies": result.empirical_freq,
            "max_abs_error": max(result.freq_error().values()),
        }
    return _emit([json.dumps(doc, indent=2) + "\n"], args.out)


def _weight_arg(text: str) -> float:
    try:
        return float(states.require_weight(float(text)))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number in [0, 1]") from None


def _dims_arg(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("dims must look like DA,DB")
    try:
        da, db = (int(part) for part in parts)
    except ValueError:
        raise argparse.ArgumentTypeError("dims must be integers") from None
    if da < 2 or db < 2:
        raise argparse.ArgumentTypeError("each dimension must be >= 2")
    if da * db > VERIFY_MAX_DIM:
        raise argparse.ArgumentTypeError(f"DA*DB must be <= {VERIFY_MAX_DIM}")
    return da, db


def _int_arg(minimum: int):
    """An argparse type for integers >= minimum."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"value must be >= {minimum}")
        return value

    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `entswap` parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="entswap",
        description="Entanglement swapping from partially entangled pairs: "
        "figure data, complementarity verification, outcome tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figures", help="CSV sweep data behind the entropy/probability figures")
    fig.add_argument("--which", required=True, choices=tuple(FIGURE_HEADERS),
                     help="which figure's data to produce")
    fig.add_argument("--grid", type=_int_arg(2), default=DEFAULT_GRID,
                     help="points per sweep, endpoints included (default 1001)")
    fig.add_argument("--out", default=None,
                     help="output path, written atomically (default: stdout, streamed as computed)")
    fig.set_defaults(func=cmd_figures)

    ver = sub.add_parser("verify", help="complementarity-sum residuals over Haar-random states")
    ver.add_argument("--trials", type=_int_arg(1), default=10000,
                     help="number of random states (default 10000)")
    ver.add_argument("--dims", type=_dims_arg, default=(2, 2),
                     help="bipartite dimensions DA,DB (default 2,2)")
    ver.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ver.add_argument("--out", default=None, help="output path (default: stdout)")
    ver.set_defaults(func=cmd_verify)

    swp = sub.add_parser("swap", help="analytic outcome table for one (p, q), optionally sampled")
    swp.add_argument("--p", type=_weight_arg, required=True, help="Schmidt weight of the first pair")
    swp.add_argument("--q", type=_weight_arg, required=True, help="Schmidt weight of the second pair")
    swp.add_argument("--shots", type=_int_arg(1), default=None,
                     help="if given, append empirical frequencies from this many draws")
    swp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    swp.add_argument("--out", default=None, help="output path (default: stdout)")
    swp.set_defaults(func=cmd_swap)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
