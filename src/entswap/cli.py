"""Command line: figure data as CSV, verification and swap reports as JSON.

Exit codes: 0 success, 1 verification failure or a non-finite swap value, 2 usage error, 3 I/O error.
CSV cells carry 17 significant digits so values round-trip exactly; JSON
summaries show 4 decimals with the full-precision value in a `_full`
sibling field.
"""

from __future__ import annotations

import argparse
import errno
import functools
import itertools
import json
import math
import os
import sys
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
VERIFY_MAX_DIM = 16  # largest DA*DB of `verify --dims`: bounds the bytes of a chunk's states

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _figure_rows(which: str, x: np.ndarray) -> np.ndarray:
    """Rows of one figure at the sweep points x, each column computed over all of x at once."""
    if which in ("1a", "1b"):
        # every q in FIGURE_Q_SET is inside (0, 1), so both families are live at every p;
        # 1a divides phi's products, 1b psi's, and neither is held past the division. The
        # sweep is the inner axis, so each numpy loop runs over all of x, not five q values,
        # and the five entropy rows are the columns after p
        family = 0 if which == "1a" else 1
        spectrum = swap._family(*swap._products(x, np.array(FIGURE_Q_SET)[:, None])[family])
        columns = [x, *measures._entropy(spectrum)]
    elif which == "2a":
        pr_phi, pr_psi = swap.special_case_probs(x)
        columns = [x, pr_phi, pr_psi, swap.predictability_probability(x)[2]]
    elif which == "2b":
        p = 1.0 - x
        # both rho_A are diagonal: their populations (p, 1 - p) and psi+'s (c, d) are their spectra
        svn_initial, pvn_initial, _ = measures._diagonal_vn(np.stack([p, 1.0 - p]))
        svn_final, pvn_final, _ = measures._diagonal_vn(swap._family(*swap._products(p, x)[1]))
        columns = [x, svn_initial, pvn_initial, svn_final, pvn_final]
    return np.column_stack(columns)


# `%.17g` of a cell with 1e-4 <= v < 1 is fixed notation: decimal exponent X in
# [-4, -1], 17 digits, trailing zeros dropped. `_csv_words` writes such a cell with
# array arithmetic as three 8-byte words, whose bytes the cell does not show are NUL,
# and every other cell as the placeholder `%`, which `'%.17g' %` then replaces.
# Every figure cell is in [0, 1] and none is -0.0: at grid 1001 the placeholder
# takes only the zeros, the cells below 1e-4 and the few exact 1.0s
CSV_CELLS = 2048  # cells per sub-block of `_csv_pieces`: bounds its temporaries and its text
# i = how many of these are <= v. Each double is at or above its power of ten,
# so i = X + 5 exactly for the cells above; i is 0 or 5 for the rest, NaN included.
_DECADES = np.array([1e-4, 1e-3, 1e-2, 1e-1, 1.0])
_FAST = np.array([False, True, True, True, True, False])
# 10^(16 - X) by i: an exact double for X >= -4, so v * 10^(16 - X) is in [1e16, 1e17)
_SCALE = np.array([1e16, 1e20, 1e19, 1e18, 1e17, 1e16])
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
    """A cell's first word, by key 10 * i + lead digit.

    Its bytes are `,`, the separator before the cell, then for a cell of
    decades 1..4 `0.`, -X-1 = 4 - i zeros and the lead digit; for a cell of
    decade 0 or 5 the placeholder `%`. NUL pads it to 8.
    """
    prefixes = []
    for (i, fast), lead in itertools.product(enumerate(_FAST.tolist()), "0123456789"):
        body = "0." + "0" * (4 - i) + lead if fast else "%"
        prefixes.append(("," + body).ljust(8, "\0"))
    return np.frombuffer("".join(prefixes).encode("ascii"), np.uint64)


_QUADS = _quad_table()
_PREFIX = _prefix_table()


def _csv_digits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first numeric stage: each cell's decade i, whether it is fast, and y, its 17 digits.

    y = v * 10^(16 - X) rounded half to even, an integer in [1e16, 1e17).
    A negative cell falls in decade 0, so it is not fast. Every step past the
    decade writes into an array it owns, so the stage holds seven rows of v
    at most, and all but the three it returns die when it does.
    """
    a = v.copy()
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
        # divmod by floor division: numpy divides by a constant in a vector loop, but runs
        # divmod element by element. Every y is positive, so the remainder is divmod's
        np.floor_divide(digits, 10000, out=group)
        digits -= group * 10000
        digits, group = group, digits  # the quotient goes on, the group is the remainder
        group += hidden  # the table index, in place: it equals hidden exactly where the group is 0
        quads[:, j] = _QUADS[group]
        if j:  # group 0 is the last pass, and nothing reads hidden after it
            hidden *= group == hidden
    # the prefix key, summed in place over the spent decades
    key = np.multiply(i, 10, out=i)
    key += digits  # the lead digit
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
            sys.stdout.writelines(pieces)  # each piece is dropped once written, before the next is made
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
        if path.is_dir():  # checked first, so no temp file is made for it
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        # the mode open(out, "w") gives a new file, 0o666 less the umask, which the rename
        # keeps (tempfile.mkstemp's would be 0o600); O_EXCL opens no file that is already there.
        # The temp name is not built from out's, so an out name at NAME_MAX still fits
        tmp_name = str(path.parent / f".entswap-{os.urandom(8).hex()}.tmp")
        fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", newline="") as fh:
                fh.writelines(pieces)
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
    max_vn = max_l = 0.0
    for start in range(0, args.trials, VERIFY_CHUNK):
        count = min(VERIFY_CHUNK, args.trials - start)
        # no name holds the states, so they die when `_plane_gram`, their last reader, returns,
        # before the spectrum is taken
        rep = measures._gram_report(*measures._plane_gram(
            states.haar_states(da, db, args.seed, count, start).reshape(count, da, db)))
        # np.maximum and np.max propagate NaN, where Python's max would drop it
        max_vn = float(np.maximum(max_vn, np.max(np.abs(rep.vn_sum - vn_target))))
        max_l = float(np.maximum(max_l, np.max(np.abs(rep.l_sum - l_target))))
        del rep  # the next chunk's draw must not share the peak with this report
    ok = max_vn < VERIFY_TOL and max_l < VERIFY_TOL  # NaN and inf fail
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
    return EXIT_OK if ok else EXIT_FAIL


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
                # an amplitude's imaginary part is always +0.0: the table is real
                "post_state": [[_HOLE, 0.0]] * 4 if alive else None,
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


def _swap_leaves(p: float, q: float) -> tuple[tuple[bool, ...], list] | None:
    """Which branches are live, and the `swap` leaves before the empirical block in the template's order.

    Each shown value is followed by its `_full` value. The measures are the
    printed S_vn, P_vn and C_re alone. The two branches of a family share
    their probability and measures, so these are spelled once, and the same
    text fills both branches' slots. None if a printed value is not finite:
    `%s` would write nan or inf, which is not JSON. The arrays and lists the
    leaves come from die when it returns, so none is held beside the text.
    """
    # the parser has checked both weights, so the closed forms are read unchecked
    probabilities, (a, b, c, d), amplitudes = swap._branches(p, q)
    rows = amplitudes.tolist()
    # every state is in Schmidt form, so rho_A is diagonal and its populations are its
    # spectrum: (w, 1 - w) for a source pair, the closed-form eigenvalues for a family;
    # a dead family's are NaN, and so are its measures, which no leaf reads
    s_vn, p_vn, c_re = measures._diagonal_vn(np.array([(p, 1.0 - p), (q, 1.0 - q), (a, b), (c, d)]).T)
    svn, pvn, cre = s_vn.tolist(), p_vn.tolist(), c_re.tolist()
    leaves = [p, q]
    for value in svn[:2]:
        leaves += (round(value, 4), value)
    printed = [p, q, *svn[:2]]  # each value the leaves spell, once
    live = []
    for k, probability in enumerate(probabilities[::2].tolist()):  # phi, then psi
        # a dead family's rows are NaN (`swap._norm2`): it has no post state and no measures
        alive = not math.isnan(rows[2 * k][0])
        values = [probability, svn[k + 2], pvn[k + 2], cre[k + 2]] if alive else [probability]
        printed += values
        spelled = [text for value in values for text in (repr(round(value, 4)), repr(value))]
        for row in rows[2 * k:2 * k + 2]:
            leaves += spelled[:2]
            if alive:
                leaves += row
                printed += row
                leaves += spelled[2:]
        live += (alive, alive)
    if not all(map(math.isfinite, printed)):
        return None
    return tuple(live), leaves


def cmd_swap(args: argparse.Namespace) -> int:
    p, q, shots = args.p, args.q, args.shots
    empirical = []
    if shots is not None:  # first, so that no peak holds its buffers beside the document
        result = run_ensemble(RunConfig(p, q, shots, args.seed))
        empirical = [shots, args.seed, *result.counts.values(), *result.empirical_freq.values(),
                     float(max(result.freq_error().values()))]
    built = _swap_leaves(p, q)
    if built is None or not all(map(math.isfinite, empirical)):
        print("error: swap: a value of the document is not finite", file=sys.stderr)
        return EXIT_FAIL
    live, leaves = built
    template = _swap_template(live, shots is not None)
    leaves += empirical
    return _emit([template % tuple(leaves)], args.out)


def _weight_arg(text: str) -> float:
    try:
        # + 0.0 reads -0 as 0, so a weight's sign never reaches the document
        w = float(text) + 0.0
    except ValueError:
        w = math.nan
    if not 0.0 <= w <= 1.0:  # `states.require_weight`'s rule, which NaN fails
        raise argparse.ArgumentTypeError(f"{text!r} is not a number in [0, 1]")
    return w


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
    if text.endswith((os.sep, os.altsep or os.sep)):
        # Path would drop the separator and write a file where a directory was named
        raise argparse.ArgumentTypeError(f"{text!r} names a directory, not a file")
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
    parser.commands = sub.choices  # each command's parser by name, for `main`'s one parse
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        # the parse the subparsers action runs on the command's words, without the
        # top-level pass over the same words that hands them to it
        args, extra = command.parse_known_args(argv[1:])
        if not extra:
            return args.func(args)
    # no command first (none, `-h`, `--` or a word that is not exactly a command's name)
    # or words the command's parser leaves: the full parse prints the top-level usage or error
    args = parser.parse_args(argv)
    return args.func(args)
