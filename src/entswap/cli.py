"""Command line: figure data as CSV, verification and swap reports as JSON.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
CSV cells carry 17 significant digits so values round-trip exactly; JSON
summaries show 4 decimals with the full-precision value in a `_full`
sibling field.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
import tempfile
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from . import measures, rng, states, swap
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
VERIFY_CHUNK = 2048  # states per batch in `verify`: bounds memory for any --trials
FIGURE_CHUNK = 4096  # grid points per batch in `figures`: bounds memory for any --grid
VERIFY_MAX_DIM = 16  # largest DA*DB of `verify --dims`: bounds a chunk's amplitude planes

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _figure_rows(which: str, x: np.ndarray) -> np.ndarray:
    """Rows of one figure at the sweep points x, each column computed over all of x at once."""
    if which in ("1a", "1b"):
        # every q in FIGURE_Q_SET is inside (0, 1), so both families are live at every p;
        # 1a divides phi's products, 1b psi's, and neither is held past the division
        family = 0 if which == "1a" else 1
        spectrum = swap._family(*swap._products(x[:, None], np.array(FIGURE_Q_SET))[family])
        columns = [x, measures._entropy(spectrum)]
    elif which == "2a":
        pr_phi, pr_psi = swap.special_case_probs(x)
        columns = [x, pr_phi, pr_psi, swap.predictability_probability(x)[2]]
    elif which == "2b":
        p = 1.0 - x
        # both rho_A are diagonal: their populations (p, 1 - p) and psi+'s (c, d) are their spectra
        initial = measures._diagonal_report(np.stack([p, 1.0 - p]))
        final = measures._diagonal_report(swap._family(*swap._products(p, x)[1]))
        columns = [x, initial.s_vn, initial.p_vn, final.s_vn, final.p_vn]
    else:
        raise ValueError(f"unknown figure {which!r}")
    return np.column_stack(columns)


# `%.17g` of a cell with 1e-4 <= |v| < 10 is fixed notation: decimal exponent X in
# [-4, 0], 17 digits, trailing zeros dropped. `_csv_words` writes such a cell with
# array arithmetic as three 8-byte words, whose bytes the cell does not show are NUL,
# and every other cell as the placeholder `%`, which `'%.17g' %` then replaces.
CSV_CELLS = 2048  # cells per sub-block of `_csv_pieces`: bounds its temporaries and its text
# i = how many of these are <= |v|. Each double is at or above its power of ten,
# so i = X + 5 exactly for the cells above; i is 0 or 6 for the rest, NaN included.
_DECADES = np.array([1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0])
_FAST = np.array([False, True, True, True, True, True, False])
# 10^(16 - X) by i: an exact double for X >= -4, so |v| * 10^(16 - X) is in [1e16, 1e17)
_SCALE = np.array([1e16, 1e20, 1e19, 1e18, 1e17, 1e16, 1e16])
_SCALE_HI = _SCALE * 134217729.0 - (_SCALE * 134217729.0 - _SCALE)  # Veltkamp split at 2^27 + 1
_SCALE_LO = _SCALE - _SCALE_HI


def _quad_table() -> np.ndarray:
    """The 4 ASCII digits of each g in 0..9999 as one uint32 in memory order.

    At 10000 + g the same, with the zeros after g's last nonzero digit as
    NUL: the digits of a 4-digit group that no nonzero digit follows.
    """
    quads = np.empty((2, 10, 10, 10, 10, 4), np.uint8)
    for j in range(4):  # byte j is digit j of g, thousands first
        quads[..., j] = np.arange(ord("0"), ord("0") + 10).reshape((10,) + (1,) * (3 - j))
    shown = quads[1] > ord("0")
    for j in (2, 1, 0):
        shown[..., j] |= shown[..., j + 1]
    quads[1] *= shown
    return quads.view(np.uint32).ravel()


def _prefix_table() -> np.ndarray:
    """A cell's first word, by key 4 * (10 * i + lead digit) + 2 * sign + (any other digit shown).

    Its bytes are `,`, the separator before the cell, then for a cell of
    decades 1..5 `-` if negative, and for X < 0 `0.`, -X-1 zeros and the
    lead digit, for X = 0 the lead digit and a `.` when a digit follows;
    for a cell of decade 0 or 6 the placeholder `%`. NUL pads it to 8.
    """
    prefixes = []
    decades = enumerate(_FAST.tolist())
    for (i, fast), lead, sign, dot in itertools.product(decades, "0123456789", ("", "-"), ("", ".")):
        x = i - 5
        body = sign + ("0." + "0" * (-x - 1) + lead if x < 0 else lead + dot) if fast else "%"
        prefixes.append(("," + body).ljust(8, "\0"))
    return np.frombuffer("".join(prefixes).encode("ascii"), np.uint64)


_QUADS = _quad_table()
_PREFIX = _prefix_table()


def _csv_digits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first numeric stage: each cell's decade i, whether it is fast, and y, its 17 digits.

    y = |v| * 10^(16 - X) rounded half to even, an integer in [1e16, 1e17).
    Every step past the decade writes into an array it owns, so the stage
    holds seven rows of v at most, and all but the three it returns die
    when it does.
    """
    a = np.abs(v)
    i = np.searchsorted(_DECADES, a, "right")
    fast = _FAST[i]
    np.copyto(a, 1.0, where=~fast)  # other cells take a value that no cast below warns on
    # y = a * 10^(16 - X) exactly, as hi + lo (Dekker's product): lo is
    # ((a_hi b_hi - hi) + a_hi b_lo + a_lo b_hi) + a_lo b_lo, added in that order
    hi = _SCALE[i]
    hi *= a
    a_hi = a * 134217729.0  # big
    t = a_hi - a
    a_hi -= t  # big - (big - a)
    a_lo = np.subtract(a, a_hi, out=a)
    b = _SCALE_HI[i]
    lo = a_hi * b
    lo -= hi
    np.multiply(a_lo, b, out=t)  # a_lo b_hi
    np.take(_SCALE_LO, i, out=b)
    a_hi *= b
    lo += a_hi
    lo += t
    a_lo *= b
    lo += a_lo
    # hi >= 2^53 is an even integer, so rounding lo half to even rounds y half to even.
    # No double below 10^(X+1) is within 8 of its last digit, so y < 10^17 - 8 and
    # the 17 digits never carry into an 18th. Other cells take y = 10^16: no fraction digit.
    digits = a_hi.view(np.int64)  # the spent rows take the integers
    np.copyto(digits, hi, casting="unsafe")
    np.copyto(t.view(np.int64), np.rint(lo, out=lo), casting="unsafe")
    digits += t.view(np.int64)
    return i, fast, digits


def _csv_words(v: np.ndarray, k: int) -> tuple[bytearray, np.ndarray]:
    """The numeric stage of `_csv_cells`: the cells' words, NUL-padded, and which cells are fast.

    Every array it computes dies when it returns, so none of them is held
    beside the text that `_csv_cells` then builds from the words.
    """
    i, fast, digits = _csv_digits(v)
    n = len(v)
    # each cell is three words: separator and prefix, then fraction digits 1-8 and 9-16
    buf = bytearray(24 * n + 8)  # zeroed: the last word holds only the last line's end
    words = np.frombuffer(buf, np.uint64)[:-1].reshape(n, 3)
    quads = words[:, 1:].view(np.uint32)
    hidden = np.full(n, 10000)  # 10000 where no later group has a nonzero digit
    group = np.empty_like(digits)
    for j in (3, 2, 1, 0):
        np.divmod(digits, 10000, out=(digits, group))
        quads[:, j] = _QUADS[group + hidden]
        hidden *= group == 0
    # the prefix key, summed in place over the spent decades, digits and groups
    key = np.multiply(i, 40, out=i)
    key += np.multiply(digits, 4, out=group)
    sign = np.right_shift(v.view(np.int64), 63, out=group)  # -1 where v's sign bit is set
    key -= sign
    key -= sign
    hidden ^= 10000
    hidden >>= 13
    key += hidden  # 1 where any fraction digit is nonzero: 10000 >> 13 is 1
    words[:, 0] = _PREFIX[key]
    np.frombuffer(buf, np.uint8)[::24 * k] = ord("\n")  # a line's first separator ends the line before
    buf[0] = 0  # which the first line has not
    return buf, fast


def _csv_cells(v: np.ndarray, k: int) -> Iterator[str]:
    """The cells v, k to a line, as CSV lines of `%.17g` text in pieces: the text stage of `_csv_words`."""
    buf, fast = _csv_words(v, k)
    text = buf.translate(None, b"\0")
    del buf  # the words are spent once their NULs are gone
    text = text.decode("ascii")
    start = 0
    for value in v[~fast].tolist():  # str.index finds each `%` by memchr; str.split was 7x slower
        end = text.index("%", start)
        yield text[start:end]
        yield "%.17g" % value
        start = end + 1
    yield text[start:]


def _csv_pieces(rows: np.ndarray) -> Iterator[str]:
    """The rows as CSV lines of `%.17g` cells in pieces, formatted CSV_CELLS cells at a time."""
    n, k = rows.shape
    step = max(1, CSV_CELLS // k)
    for start in range(0, n, step):
        yield from _csv_cells(rows[start:start + step].ravel(), k)


def _figure_csv(which: str, grid: int) -> Iterator[str]:
    """CSV text of one figure: the header, then each sub-block's pieces as they are formatted."""
    yield ",".join(FIGURE_HEADERS[which]) + "\n"
    for start in range(0, grid, FIGURE_CHUNK):
        # no name holds the sweep points or a chunk's text: each piece dies once written
        yield from _csv_pieces(
            _figure_rows(which, np.arange(start, min(start + FIGURE_CHUNK, grid)) / (grid - 1)))


def _emit(pieces: Iterable[str], out: str | None) -> int:
    """Write the text pieces to stdout, or atomically (temp file + rename) to `out`."""
    if out is None:
        try:
            for piece in pieces:
                sys.stdout.write(piece)
            sys.stdout.flush()
        except OSError as exc:
            # a closed pipe, a full disk: point stdout's descriptor at devnull, as
            # the Python docs advise, so that no later write or exit flush can raise
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
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
        # strerror, not str(exc): that would name the temp file, not `out`
        reason = exc.strerror if exc.strerror is not None else str(exc)
        print(f"error: cannot write {out}: {reason}", file=sys.stderr)
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
        # no name holds the states or the planes, so each dies when its last reader returns:
        # the states when `_planes` does, the planes before the spectrum is taken
        rep = measures._gram_report(*measures._plane_gram(measures._planes(
            states.haar_states(da, db, args.seed, count, start).reshape(count, da, db))))
        # np.maximum and np.max propagate NaN, where Python's max would drop it
        max_vn = float(np.maximum(max_vn, np.max(np.abs(rep.vn_sum - vn_target))))
        max_l = float(np.maximum(max_l, np.max(np.abs(rep.l_sum - l_target))))
        del rep  # the next chunk's draw must not share the peak with this report
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


_HOLE = "<leaf>"  # a skeleton leaf of `_swap_template`


@functools.cache
def _swap_template(live: tuple[bool, ...], shots: bool) -> str:
    """The `swap` document as a `%` template with one `%s` per leaf value.

    `live` says which branches have a post state and `shots` whether the
    empirical block is present; together they fix every key, bracket,
    indent and null. json.dumps(indent=2) writes a skeleton whose leaves
    are a marker, and each quoted marker becomes a `%s`.
    """
    def shown(name: str, alive: bool = True) -> dict:
        leaf = _HOLE if alive else None
        return {name: leaf, f"{name}_full": leaf}

    skeleton = {
        "p": _HOLE,
        "q": _HOLE,
        "initial": {**shown("svn_pair_p"), **shown("svn_pair_q")},
        "outcomes": [
            {
                "label": label,
                **shown("probability"),
                "post_state": [[_HOLE, _HOLE]] * 4 if alive else None,
                **shown("svn", alive), **shown("pvn", alive), **shown("cre", alive),
            }
            for label, alive in zip(states.BELL_LABELS, live)
        ],
    }
    if shots:
        skeleton["empirical"] = {
            "shots": _HOLE,
            "seed": _HOLE,
            "counts": dict.fromkeys(states.BELL_LABELS, _HOLE),
            "frequencies": dict.fromkeys(states.BELL_LABELS, _HOLE),
            "max_abs_error": _HOLE,
        }
    text = json.dumps(skeleton, indent=2).replace("%", "%%")
    return text.replace(json.dumps(_HOLE), "%s") + "\n"


def _json_floats(values: list[float]) -> list:
    """The float leaves of a template fill: `%s` writes a finite float as its repr, as json does.

    It would write NaN and the infinities as nan and inf, so a list that
    holds one is spelled by json.dumps, value by value, instead.
    """
    if all(map(math.isfinite, values)):
        return values
    return [json.dumps(value) for value in values]


def cmd_swap(args: argparse.Namespace) -> int:
    outcomes = swap.bbm_outcomes(args.p, args.q)
    live = tuple(o.post_state is not None for o in outcomes)
    # every state is in Schmidt form, so rho_A is diagonal and its populations are its
    # spectrum: (w, 1 - w) for a source pair, the closed-form eigenvalues for a branch;
    # a dead family's are NaN, and so are its report entries, which no leaf reads
    a, b, c, d = swap._spectrum(args.p, args.q)
    populations = [(args.p, 1.0 - args.p), (args.q, 1.0 - args.q), (a, b), (a, b), (c, d), (c, d)]
    rep = measures._diagonal_report(np.array(populations).T)  # one report for every state
    branch_measures = zip(rep.s_vn[2:].tolist(), rep.p_vn[2:].tolist(), rep.c_re[2:].tolist())
    # the leaves in the template's order; each shown value is followed by its `_full` value
    floats = [args.p, args.q]
    for value in rep.s_vn[:2].tolist():
        floats += (round(value, 4), value)
    for o, values in zip(outcomes, branch_measures):
        probability = float(o.probability)
        floats += (round(probability, 4), probability)
        if o.post_state is not None:
            floats += o.post_state.amplitudes.view(float).tolist()
            for value in values:
                floats += (round(value, 4), value)
    leaves = _json_floats(floats)
    if args.shots is not None:
        result = run_ensemble(RunConfig(args.p, args.q, args.shots, args.seed))
        leaves += (args.shots, args.seed, *result.counts.values())
        leaves += _json_floats([*result.empirical_freq.values(), float(max(result.freq_error().values()))])
    text = _swap_template(live, args.shots is not None) % tuple(leaves)
    return _emit([text], args.out)


def _weight_arg(text: str) -> float:
    try:
        # + 0.0 reads -0 as 0, so a weight's sign never reaches the document
        return float(states.require_weight(float(text))) + 0.0
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


def _int_arg(minimum: int, maximum: int | None = None):
    """An argparse type for integers >= minimum and, if given, <= maximum."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"value must be >= {minimum}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"value must be <= {maximum}")
        return value

    return parse


def _out_arg(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("the output path must not be empty")
    return text


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
    fig.add_argument("--out", type=_out_arg, default=None,
                     help="output path, written atomically (default: stdout, streamed as computed)")
    fig.set_defaults(func=cmd_figures)

    ver = sub.add_parser("verify", help="complementarity-sum residuals over Haar-random states")
    ver.add_argument("--trials", type=_int_arg(1), default=10000,
                     help="number of random states (default 10000)")
    ver.add_argument("--dims", type=_dims_arg, default=(2, 2),
                     help="bipartite dimensions DA,DB (default 2,2)")
    ver.add_argument("--seed", type=_int_arg(0, rng.MASK64), default=DEFAULT_SEED,
                     help="seed of the random stream, in [0, 2^64) (default 7)")
    ver.add_argument("--out", type=_out_arg, default=None, help="output path (default: stdout)")
    ver.set_defaults(func=cmd_verify)

    swp = sub.add_parser("swap", help="analytic outcome table for one (p, q), optionally sampled")
    swp.add_argument("--p", type=_weight_arg, required=True, help="Schmidt weight of the first pair")
    swp.add_argument("--q", type=_weight_arg, required=True, help="Schmidt weight of the second pair")
    swp.add_argument("--shots", type=_int_arg(1), default=None,
                     help="if given, append empirical frequencies from this many draws")
    swp.add_argument("--seed", type=_int_arg(0, rng.MASK64), default=DEFAULT_SEED,
                     help="seed of the random stream, in [0, 2^64) (default 7)")
    swp.add_argument("--out", type=_out_arg, default=None, help="output path (default: stdout)")
    swp.set_defaults(func=cmd_swap)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
