import argparse
import dataclasses
import errno
import functools
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from entswap import cli, experiment, linalg, measures, rng, states, swap
from entswap.cli import main


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_figures_headers_are_stable(capsys):
    expected = {
        "1a": "p,svn_phi_q0.1,svn_phi_q0.25,svn_phi_q0.5,svn_phi_q0.75,svn_phi_q0.9",
        "1b": "p,svn_psi_q0.1,svn_psi_q0.25,svn_psi_q0.5,svn_psi_q0.75,svn_psi_q0.9",
        "2a": "q,pr_phi,pr_psi,pl_initial",
        "2b": "q,svn_initial,pvn_initial,svn_psi,pvn_final_psi",
    }
    for which, header in expected.items():
        code, out, _ = run_main(capsys, ["figures", "--which", which, "--grid", "3"])
        assert code == 0
        assert out.splitlines()[0] == header


def test_figures_cells_round_trip_exactly(capsys):
    # 1a and 1b: every entropy cell is post_entropies' value, bit for bit, at grid 2 (zero
    # cells, which take the `%` fallback), the default grid and 4097 (two FIGURE_CHUNK chunks)
    for grid in (2, cli.DEFAULT_GRID, 4097):
        x = np.arange(grid) / (grid - 1)
        expected = swap.post_entropies(x[:, None], np.array(cli.FIGURE_Q_SET))
        for which, entropies in zip(("1a", "1b"), expected):
            code, out, _ = run_main(capsys, ["figures", "--which", which, "--grid", str(grid)])
            assert code == 0
            cells = np.array([[float(cell) for cell in line.split(",")] for line in out.splitlines()[1:]])
            assert oracles.bits(cells[:, 0]).tolist() == oracles.bits(x).tolist(), (which, grid)
            assert oracles.bits(cells[:, 1:]).tolist() == oracles.bits(entropies).tolist(), (which, grid)
    code, out, _ = run_main(capsys, ["figures", "--which", "2b", "--grid", "21"])
    assert code == 0
    for line in out.splitlines()[1:]:
        cells = [float(cell) for cell in line.split(",")]
        x = cells[0]
        # svn_psi is the psi branch's entropy on the line p = 1 - q, endpoints included
        assert oracles.bits(cells[3]) == oracles.bits(swap.post_entropies(1.0 - x, x)[1]), x


@pytest.mark.parametrize("which", ["1a", "1b", "2a", "2b"])
def test_figures_match_the_pointwise_math_oracle(capsys, which):
    code, out, _ = run_main(capsys, ["figures", "--which", which, "--grid", "101"])
    assert code == 0
    cells = np.array([[float(cell) for cell in line.split(",")] for line in out.splitlines()[1:]])
    assert cells.shape == (101, 6 if which in ("1a", "1b") else 4 if which == "2a" else 5)
    assert np.abs(cells - np.array(oracles.figure_rows(which, 101))).max() <= 1e-15


def test_figures_phi_entropy_peaks_on_matching_rows(capsys):
    _, out, _ = run_main(capsys, ["figures", "--which", "1a", "--grid", "21"])
    rows = {}
    for line in out.splitlines()[1:]:
        cells = [float(cell) for cell in line.split(",")]
        rows[cells[0]] = cells[1:]
    for column, p_star in enumerate((0.9, 0.75, 0.5, 0.25, 0.1)):
        assert abs(rows[p_star][column] - 1.0) < 1e-12


def test_figures_reruns_identical_and_atomic(tmp_path):
    target = tmp_path / "fig.csv"
    assert main(["figures", "--which", "2b", "--grid", "11", "--out", str(target)]) == 0
    first = target.read_bytes()
    assert main(["figures", "--which", "2b", "--grid", "11", "--out", str(target)]) == 0
    assert target.read_bytes() == first
    assert b"\r" not in first and first.endswith(b"\n")
    leftovers = [p for p in tmp_path.iterdir() if p != target]
    assert leftovers == []


@pytest.mark.parametrize("grid", [2, 7, 8, 50])
def test_figures_chunks_give_the_unchunked_bytes(capsys, monkeypatch, grid):
    argvs = [["figures", "--which", which, "--grid", str(grid)] for which in ("1a", "1b", "2a", "2b")]
    whole = [run_main(capsys, argv) for argv in argvs]  # grid <= FIGURE_CHUNK: one chunk
    monkeypatch.setattr(cli, "FIGURE_CHUNK", 7)
    assert [run_main(capsys, argv) for argv in argvs] == whole
    assert all(len(out.splitlines()) == grid + 1 for _, out, _ in whole)


# the kinds of cell: any double; one near the figure range, where about half the cells take the
# array path; or a negative one whose |v| would take it, but which must keep its sign on the fallback
_CELL_KINDS = (st.floats(allow_nan=True, allow_infinity=True), st.floats(1e-5, 2.0),
               st.floats(-1.0, -1e-4, exclude_max=True))


@st.composite
def _row_blocks(draw):
    """Up to 20 rows of k = 4 to 6 cells. A row's one draw in [0, 3^k) picks each of its cells' kinds
    by base-3 digit, so a cell costs one draw, where `st.one_of` of the kinds took two."""
    k = draw(st.integers(4, 6))
    patterns = draw(st.lists(st.integers(0, 3**k - 1), max_size=20))
    rows = [[draw(_CELL_KINDS[pattern // 3**j % 3]) for j in range(k)] for pattern in patterns]
    return np.array(rows, dtype=float).reshape(-1, k)


@settings(max_examples=300)
@given(_row_blocks())
def test_csv_lines_match_the_per_cell_formatter(rows):
    assert "".join(cli._csv_pieces(rows)) == oracles.csv_lines_per_cell(rows)


def test_csv_lines_match_the_per_cell_formatter_on_edge_cells():
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0 - 2.0**-53,
             1e16, 1e17, 0.1, math.nan, math.inf, -math.inf]
    for k in (4, 5, 6):
        rows = np.resize(np.array(edges), (len(edges), k))
        assert "".join(cli._csv_pieces(rows)) == oracles.csv_lines_per_cell(rows)
    for k in (4, 6):
        assert "".join(cli._csv_pieces(np.empty((0, k)))) == oracles.csv_lines_per_cell(np.empty((0, k))) == ""


def _cell_showing(x: int, sign: str, digits: str, rng) -> float:
    """A double whose `%.17g` text has decimal exponent x, the given sign and 17 digits.

    `digits` is a pattern with `?` for a free digit and `+` for a nonzero
    one. Free digits are drawn until the text of the nearest double is the
    pattern's own, trailing zeros dropped; a cell's text cannot be forced,
    because most 17-digit decimals have no double that prints them.
    """
    for _ in range(10_000):
        drawn = "".join(str(rng.integers(0 if d == "?" else 1, 10)) if d in "?+" else d for d in digits)
        if x < 0:
            text = "0." + "0" * (-x - 1) + drawn.rstrip("0")
        else:
            fraction = drawn[1:].rstrip("0")
            text = drawn[0] + ("." + fraction if fraction else "")
        value = float(sign + text)
        if "%.17g" % value == sign + text:
            return value
    raise AssertionError(f"no double prints as {digits} at 10^{x}")


def _formatter_edge_cells() -> np.ndarray:
    """Cells of every decade X in [-4, 0] and both signs with every pattern of zero 4-digit
    groups and with their last nonzero digit at each of the 16 fraction digits.

    The positive cells below 1 take the array path; the negative cells and X = 0
    take the `%` fallback, which must give the same bytes.
    """
    rng = np.random.default_rng(17)
    patterns = []
    for zero in range(16):  # bit j set: fraction digits 4j+1..4j+4 are all zero
        groups = ["0000" if zero >> j & 1 else "??+?" for j in range(4)]
        patterns.append("+" + "".join(groups))
    for last in range(1, 17):  # the last nonzero digit is fraction digit `last`
        patterns.append("+" + "?" * (last - 1) + "+" + "0" * (16 - last))
    cells = [_cell_showing(x, sign, digits, rng)
             for x in range(-4, 1) for sign in ("", "-") for digits in patterns]
    # a lead digit and no other, which `%.17g` writes with no `.`
    cells += [float(sign + lead) for sign in ("", "-") for lead in "123456789"]
    return np.array(cells)


@pytest.mark.parametrize("k", [4, 5, 6])
def test_csv_lines_match_the_per_cell_formatter_on_digit_patterns(monkeypatch, k):
    cells = _formatter_edge_cells()
    # each cell once in every column, so each separator follows every pattern
    rows = np.stack([np.roll(cells, -column) for column in range(k)], axis=1)
    assert "".join(cli._csv_pieces(rows)) == oracles.csv_lines_per_cell(rows)
    monkeypatch.setattr(cli, "CSV_CELLS", k)  # one line per sub-block
    assert "".join(cli._csv_pieces(rows)) == oracles.csv_lines_per_cell(rows)


def _assert_same_lines(got, want):
    """got == want, shown by the first differing lines: a diff of the whole text would take minutes."""
    assert [(g, w) for g, w in zip(got.split("\n"), want.split("\n")) if g != w][:3] == []
    assert got.count("\n") == want.count("\n")


def _assert_cells_match(values, k=4):
    """`_csv_pieces` joined, on the values, k to a row (padded with the first), equals the per-cell oracle."""
    values = np.asarray(values, dtype=float)
    rows = np.resize(values, (-(-len(values) // k), k))
    _assert_same_lines("".join(cli._csv_pieces(rows)), oracles.csv_lines_per_cell(rows))


def test_csv_decades_are_exact():
    # each threshold double is at or above its power of ten, so counting the ones
    # at or below |v| gives v's decimal exponent with no correction
    for i, threshold in enumerate(cli._DECADES.tolist()):
        assert Fraction(threshold) >= Fraction(10) ** (i - 4)
        assert Fraction(np.nextafter(threshold, 0.0)) < Fraction(10) ** (i - 4)


@pytest.mark.parametrize("x", range(-4, 1))
def test_csv_lines_round_exact_ties_half_to_even(x):
    # y = j / 2^e * 10^(16 - x) ends in exactly .5 when j is odd and e = 17 - x. The
    # array path rounds the positive ties below 1; x = 0 and the negations hold the fallback
    e = 17 - x
    low, high = math.ceil(10.0**x * 2**e), math.floor(10.0 ** (x + 1) * 2**e)
    j = np.random.default_rng(100 + e).integers(low // 2, high // 2, 4000) * 2 + 1
    ties = j / 2.0**e
    assert all((Fraction(t) * 10 ** (16 - x)).denominator == 2 for t in ties[:200].tolist())
    assert ((ties >= 10.0**x) & (ties < 10.0 ** (x + 1))).all()
    for values in (ties, -ties, np.nextafter(ties, 0.0), np.nextafter(ties, 20.0)):
        _assert_cells_match(values)


def test_csv_lines_match_around_powers_of_ten():
    # the ulps on both sides of 1e-5 ... 10, into the neighbouring decade and to 10 itself
    values = []
    for k in range(-5, 2):
        value = below = float(f"1e{k}")
        for _ in range(12):
            values += [value, below]
            value, below = np.nextafter(value, 100.0), np.nextafter(below, 0.0)
    values = np.array(values)
    _assert_cells_match(np.concatenate([values, -values]), k=5)


def test_csv_lines_match_on_seeded_values_across_the_fast_decades(monkeypatch):
    values = 10.0 ** np.random.default_rng(2024).uniform(-5.0, math.log10(20.0), 100_000)
    values = values[values < 20.0]
    _assert_cells_match(values, k=5)
    monkeypatch.setattr(cli, "CSV_CELLS", 7)  # sub-blocks of one row
    _assert_cells_match(values[:5000], k=6)


# at grid 2 the zero cells take the `%` fallback; at 342 the last sub-block of 1a and 1b
# (341 rows each) is one row; 4097 and 5000 span two row chunks and many sub-blocks
@pytest.mark.parametrize("grid", [2, 342, 1001, 4097, 5000])
@pytest.mark.parametrize("which", ["1a", "1b", "2a", "2b"])
def test_figures_bytes_match_the_per_cell_formatter_across_chunks(capsys, which, grid):
    code, out, _ = run_main(capsys, ["figures", "--which", which, "--grid", str(grid)])
    assert code == 0
    rows = cli._figure_rows(which, np.arange(grid) / (grid - 1))
    _assert_same_lines(out, ",".join(cli.FIGURE_HEADERS[which]) + "\n" + oracles.csv_lines_per_cell(rows))


def test_csv_lines_peak_memory_stays_near_the_text():
    # the pieces of one FIGURE_CHUNK block, each dropped as it arrives: the peak is a few
    # sub-blocks' text (3.31x the largest piece measured), where a join over the block
    # held its whole text twice (2.0x the text, 23.6x the largest piece)
    rows = cli._figure_rows("1a", np.arange(cli.FIGURE_CHUNK) / (cli.FIGURE_CHUNK - 1))
    sizes = [len(piece) for piece in cli._csv_pieces(rows)]
    peak = oracles.peak_bytes(lambda: max(map(len, cli._csv_pieces(rows))))
    assert len(sizes) > 10
    assert peak <= 4.2 * max(sizes), (peak, max(sizes))


@pytest.mark.parametrize("which", ["1a", "1b", "2a", "2b"])
def test_figures_peak_at_their_text(monkeypatch, which):
    # peaks at FIGURE_CHUNK = CSV_CELLS = 2048 and grid 4097, with each size doubled and at
    # four times the grid. A chunk row holds, in 1a and 1b, the sweep point, the family's
    # products, their stack and `_norm2`'s sum, mask and result (8 + 80 + 80 + 40 + 5 + 40);
    # in 2a its row; in 2b the point, p, two diagonal reports and its row (16 + 128 + 40);
    # 252.8, 32.0 and 183.8 B measured. A cell holds at most ten words: the digit stage's
    # eight (66.0 B measured in 2a, about 0 B in the others). `_emit` writes each sub-block's
    # text as it comes; writing one join of them grew the peak by 1.9 to 2.9 MB at four
    # times the grid. A larger grid holds nothing more: -64 to +1,824 B measured at four times
    def peak(chunk, cells, grid):
        monkeypatch.setattr(cli, "FIGURE_CHUNK", chunk)
        monkeypatch.setattr(cli, "CSV_CELLS", cells)
        return oracles.main_peak_bytes(["figures", "--which", which, "--grid", str(grid)])

    base = peak(2048, 2048, 4097)
    per_row = (peak(4096, 2048, 4097) - base) / 2048
    per_cell = (peak(2048, 4096, 4097) - base) / 2048
    assert per_row <= {"1a": 253, "1b": 253, "2a": 32, "2b": 184}[which] + 1, per_row
    assert per_cell <= 10 * 8, per_cell
    assert peak(2048, 2048, 16385) - base <= 4096


def test_figures_out_peak_does_not_grow_with_the_grid(tmp_path):
    # `_emit`'s file branch writes each piece as it comes, as its stdout branch does: four
    # times the grid holds no more (-3,060 B measured); one join of the pieces grew 1.9 MB
    def peak(grid):
        return oracles.main_peak_bytes(["figures", "--which", "2a", "--grid", str(grid), "--out", str(tmp_path / "2a")])

    assert peak(16385) - peak(4097) <= 4096


def test_figures_out_streams_the_stdout_bytes(capsys, monkeypatch, tmp_path):
    # sub-blocks of one row and chunks of 64 rows, the last of one row: hundreds of
    # pieces through `_emit`'s file branch
    monkeypatch.setattr(cli, "CSV_CELLS", 7)
    monkeypatch.setattr(cli, "FIGURE_CHUNK", 64)
    real_rows, real_cells, chunks, blocks = cli._figure_rows, cli._csv_cells, [], set()
    monkeypatch.setattr(cli, "_figure_rows", lambda which, x: chunks.append(len(x)) or real_rows(which, x))
    monkeypatch.setattr(cli, "_csv_cells", lambda v, k: blocks.add(len(v) // k) or real_cells(v, k))
    grid = 129
    for which in ("1a", "1b", "2a", "2b"):
        target = tmp_path / f"{which}.csv"
        assert main(["figures", "--which", which, "--grid", str(grid), "--out", str(target)]) == 0
        code, out, _ = run_main(capsys, ["figures", "--which", which, "--grid", str(grid)])
        assert code == 0
        rows = real_rows(which, np.arange(grid) / (grid - 1))
        expected = ",".join(cli.FIGURE_HEADERS[which]) + "\n" + oracles.csv_lines_per_cell(rows)
        assert target.read_bytes() == out.encode("ascii") == expected.encode("ascii")
    assert chunks == [64, 64, 1] * 8 and blocks == {1}


def test_figures_failure_midway_leaves_no_file(tmp_path, monkeypatch):
    real_rows = cli._figure_rows
    chunks = []

    def fail_on_second_chunk(which, x):
        chunks.append(len(x))
        if len(chunks) == 2:
            raise RuntimeError("second chunk")
        return real_rows(which, x)

    monkeypatch.setattr(cli, "FIGURE_CHUNK", 7)
    monkeypatch.setattr(cli, "_figure_rows", fail_on_second_chunk)
    target = tmp_path / "fig.csv"
    with pytest.raises(RuntimeError):
        main(["figures", "--which", "2b", "--grid", "20", "--out", str(target)])
    assert chunks == [7, 7]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, header", [
    # the header is read, then the pipe closes with most of the 100001 rows unwritten
    (["figures", "--which", "2b", "--grid", "100001"], "q,svn_initial,pvn_initial,svn_psi,pvn_final_psi\n"),
    # the pipe closes before anything is read: the JSON is still in stdout's buffer
    (["swap", "--p", "0.1", "--q", "0.75"], None),
])
def test_a_closed_stdout_exits_3_without_a_traceback(argv, header):
    proc = subprocess.Popen(
        [sys.executable, "-m", "entswap", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    if header is not None:
        assert proc.stdout.readline() == header
    proc.stdout.close()
    assert proc.wait(timeout=60) == 3
    err = proc.stderr.read()
    proc.stderr.close()
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("argv", [
    ["swap", "--p", "0.5", "--q", "0.5"],
    ["verify", "--trials", "10"],
    ["figures", "--which", "2a", "--grid", "5"],
])
def test_a_full_stdout_exits_3_without_a_traceback(argv):
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "entswap", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: cannot write to stdout: ") and proc.stderr.count("\n") == 1


def test_verify_passes_and_reports(capsys):
    code, out, _ = run_main(capsys, ["verify", "--trials", "50", "--dims", "3,2", "--seed", "11"])
    assert code == 0
    doc = json.loads(out)
    assert doc["trials"] == 50
    assert doc["dims"] == [3, 2]
    assert doc["seed"] == 11
    assert doc["pass"] is True
    assert doc["max_vn_residual"] < doc["tolerance"]
    assert doc["max_linear_residual"] < doc["tolerance"]
    assert doc["vn_target"] == pytest.approx(1.584962500721156)
    assert doc["linear_target"] == pytest.approx(2 / 3)


def test_verify_is_reproducible(capsys):
    first = run_main(capsys, ["verify", "--trials", "20", "--seed", "4"])
    second = run_main(capsys, ["verify", "--trials", "20", "--seed", "4"])
    assert first == second


def test_verify_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "VERIFY_TOL", 1e-30)
    code, out, _ = run_main(capsys, ["verify", "--trials", "5"])
    assert code == 1
    assert json.loads(out)["pass"] is False


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["vn_sum", "l_sum"])
def test_verify_fails_closed_on_a_nan_residual(capsys, monkeypatch, field, bad):
    # `ok` is two comparisons with VERIFY_TOL, which NaN and inf both fail
    real_report = measures._gram_report

    def poisoned(re, im, populations):
        rep = real_report(re, im, populations)
        values = getattr(rep, field).copy()
        values[len(values) // 2] = bad
        return dataclasses.replace(rep, **{field: values})

    monkeypatch.setattr(measures, "_gram_report", poisoned)
    code, out, _ = run_main(capsys, ["verify", "--trials", str(cli.VERIFY_CHUNK + 5)])
    assert code == 1
    assert json.loads(out)["pass"] is False


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "vn_sum is log2 d for any spectrum and l_sum is (d-1)/d for any Hermitian rho, "
    "so verify checks only rounding and cannot see a broken eigensolver"))
def test_verify_fails_on_an_eigensolver_that_ignores_coherences(capsys, monkeypatch):
    calls = []

    def sorted_diagonal(re, im):
        calls.append(len(re))
        return np.sort(np.diagonal(re), axis=-1).T

    monkeypatch.setattr(measures, "_eigenvalues", sorted_diagonal)
    code, _, _ = run_main(capsys, ["verify", "--trials", "2000", "--dims", "3,2"])
    chunks = [2] * -(-2000 // cli.VERIFY_CHUNK)  # one qubit spectrum per chunk
    if calls != chunks:  # pytest.fail is no AssertionError, so a solver that never ran fails this test
        pytest.fail(f"the sorted-diagonal solver ran on {calls}, not on {chunks}")
    assert code == 1


def test_verify_chunks_match_the_states_one_at_a_time(capsys, monkeypatch):
    # chunks of 128 states: each still runs numpy's loops over whole vectors and a tail, and
    # the one-at-a-time reference takes 263 reports where VERIFY_CHUNK's 2048 took 4,103
    chunk = 128
    monkeypatch.setattr(cli, "VERIFY_CHUNK", chunk)
    da, db, seed = 3, 2, 5
    last = 2 * chunk + 7
    # reference: one N = 1 kernel call per state, state by state, and the
    # entropy of the same state through a checked rho_A and its own spectrum
    # (a checked stack gives each matrix the bits it gets alone)
    ref_psi = states.haar_states(da, db, seed, last).reshape(last, da, db)
    ref_vn, ref_l = [], []
    for psi in ref_psi:
        rep = oracles.pure_report(psi[None])
        ref_vn.append(abs(rep.vn_sum[0] - math.log2(da)))
        ref_l.append(abs(rep.l_sum[0] - (da - 1) / da))
    ref_svn = measures.report(oracles.reduced_stack(ref_psi)).s_vn
    # a fold that keeps only the last chunk's maxima fails: the third run's largest vn residual (state
    # 234, the stream's first nonzero one) and the second run's largest l residual come before each run's last chunk
    assert max(ref_vn[:2 * chunk]) > max(ref_vn[2 * chunk:]) and max(ref_l[:chunk]) > ref_l[chunk]

    real_gram, real_report = measures._plane_gram, measures._gram_report
    pending, seen = [], []

    def gram_spy(psi):
        pending.append(psi)  # the states the kernel saw, exactly
        return real_gram(psi)

    def report_spy(re, im, populations):
        rep = real_report(re, im, populations)
        seen.append((pending.pop(), rep))  # each report follows the Gram stage of its own chunk
        return rep

    monkeypatch.setattr(measures, "_plane_gram", gram_spy)
    monkeypatch.setattr(measures, "_gram_report", report_spy)
    for trials, sizes in ((chunk - 1, [chunk - 1]), (chunk + 1, [chunk, 1]), (last, [chunk, chunk, 7])):
        seen.clear()
        argv = ["verify", "--trials", str(trials), "--dims", f"{da},{db}", "--seed", str(seed)]
        code, out, _ = run_main(capsys, argv)
        doc = json.loads(out)
        assert code == 0
        assert not pending
        assert [len(psi) for psi, _ in seen] == sizes  # the patched chunk took effect
        assert np.array_equal(np.concatenate([psi for psi, _ in seen]), ref_psi[:trials])
        vn = np.abs(np.concatenate([rep.vn_sum for _, rep in seen]) - math.log2(da))
        lin = np.abs(np.concatenate([rep.l_sum for _, rep in seen]) - (da - 1) / da)
        assert np.array_equal(vn, ref_vn[:trials])
        assert np.array_equal(lin, ref_l[:trials])
        s_vn = np.concatenate([rep.s_vn for _, rep in seen])
        assert np.abs(s_vn - ref_svn[:trials]).max() <= 1e-14
        assert doc["max_vn_residual"] == max(ref_vn[:trials])
        assert doc["max_linear_residual"] == max(ref_l[:trials])


# the dims of the chunk peak slope test, and how far above its draw each chunk may peak
CHUNK_PEAK_DIMS = pytest.mark.parametrize("da, db, over", [(3, 2, 0.0), (2, 3, 0.0), (3, 3, 0.0), (4, 4, 0.0),
                                                           (5, 3, 0.0), (8, 2, 0.0), (2, 8, 0.0), (2, 2, 0.29)])


def draw(da, db):
    """A chunk's draw as `verify` makes it: Haar states, shaped (N, DA, DB)."""
    return states.haar_states(da, db, 5, cli.VERIFY_CHUNK).reshape(cli.VERIFY_CHUNK, da, db)


def verify_peak(da, db, trials):
    return oracles.main_peak_bytes(["verify", "--trials", str(trials), "--dims", f"{da},{db}", "--seed", "5"])


def test_verify_chunk_memory_stays_within_a_few_planes():
    # the only test that kills `haar_states` scaling its rows out of place (2.76x here). No
    # draw slope can: that raises the draw's per-state growth only below D = 8 (135.4 to
    # 200 B at 2,2, 200 to 232 at 3,2) and lowers it from there up (608 to 568 B at 4,4)
    peak = verify_peak(3, 2, cli.VERIFY_CHUNK)
    states_bytes = 3 * 2 * 16 * cli.VERIFY_CHUNK  # the states' real planes, read in place
    assert peak <= 2.15 * states_bytes, (peak, states_bytes)  # 2.100 measured


@CHUNK_PEAK_DIMS
def test_verify_chunk_peak_grows_by_the_draw_per_state(monkeypatch, da, db, over):
    # peaks at VERIFY_CHUNK states and at twice as many, so the parser's and the JSON's bytes
    # cancel: a chunk holds no more per state than its draw (held by the Haar test), but for
    # 2,2's report rows (176 B against 136, 1.294x; 3.5 or 4 B under the bound at every
    # dims), and three chunks hold no more than one (80 to 992 B more measured)
    chunk, draw_one = cli.VERIFY_CHUNK, oracles.peak_bytes(lambda: draw(da, db))
    one, three = verify_peak(da, db, chunk), verify_peak(da, db, 3 * chunk)
    monkeypatch.setattr(cli, "VERIFY_CHUNK", 2 * chunk)
    per_draw = (oracles.peak_bytes(lambda: draw(da, db)) - draw_one) / chunk
    per_verify = (verify_peak(da, db, 2 * chunk) - one) / chunk
    assert per_verify <= (1.0 + over) * per_draw + 4, (per_verify, per_draw)
    assert three - one <= 4096, three - one


# DB < DA takes each spectrum from rho_B, DB >= DA from rho_A: the closed 2x2 form
# from rows (2,2 2,8) and from columns (3,2 8,2), LAPACK at 3x3 and 4x4; 5,3's
# 15-amplitude rows are summed pairwise, then one term at a time. The report works
# in place, so a warning (log2 of 0, an invalid operation) is an error
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dims", [f"{da},{db}" for da, db in oracles.VERIFY_DIMS])
def test_verify_passes_at_every_accepted_dims(capsys, dims):
    # 3000 states: two chunks, the second a partial one
    code, out, _ = run_main(capsys, ["verify", "--trials", "3000", "--seed", "7", "--dims", dims])
    assert code == 0
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize("dims", oracles.BYTE_CHECK_DIMS)
def test_verify_gives_the_same_bytes_at_any_chunk_size(capsys, monkeypatch, dims):
    # each chunk is drawn from its own counter range and read in place by its report;
    # the document's maxima alone can match when every chunk redraws the first states,
    # so the counter each chunk starts at is checked too
    argv = ["verify", "--trials", "4097", "--seed", "7", "--dims", dims]
    starts = []
    real_draw = states.haar_states

    def recorded_draw(da, db, seed, count, start):
        starts.append(start)
        return real_draw(da, db, seed, count, start)

    monkeypatch.setattr(states, "haar_states", recorded_draw)
    whole = run_main(capsys, argv)
    assert whole[0] == 0
    assert starts == [0, 2048, 4096]
    starts.clear()
    monkeypatch.setattr(cli, "VERIFY_CHUNK", 7)
    assert run_main(capsys, argv) == whole
    assert starts == list(range(0, 4097, 7))  # 586 chunks


def test_swap_worked_example_document(capsys):
    code, out, _ = run_main(capsys, ["swap", "--p", "0.1", "--q", "0.75"])
    assert code == 0
    doc = json.loads(out)
    assert doc["p"] == 0.1 and doc["q"] == 0.75
    assert doc["initial"]["svn_pair_p"] == 0.469
    assert doc["initial"]["svn_pair_q"] == 0.8113
    by_label = {entry["label"]: entry for entry in doc["outcomes"]}
    assert list(by_label) == ["phi+", "phi-", "psi+", "psi-"]
    for label in ("phi+", "phi-"):
        assert by_label[label]["probability"] == 0.15
        assert by_label[label]["svn"] == 0.8113
    for label in ("psi+", "psi-"):
        assert by_label[label]["probability"] == 0.35
        assert by_label[label]["svn"] == 0.2223
    entry = by_label["phi+"]
    assert abs(entry["probability_full"] - 0.15) < 1e-12
    assert entry["pvn"] == round(1.0 - entry["svn_full"], 4)
    assert entry["cre"] == 0.0
    amp = entry["post_state"]
    assert len(amp) == 4 and all(len(pair) == 2 for pair in amp)
    assert abs(amp[0][0] - 0.5) < 1e-12 and amp[0][1] == 0.0


@pytest.mark.parametrize("p, q", [
    ("1", "5e-324"), ("5e-324", "1"), ("0", "5e-324"),  # a branch probability underflows to 0.0
    ("0", "0"), ("0", "1"), ("1", "0"), ("1", "1"), ("0.3", "0.6"),
])
def test_swap_post_state_is_null_exactly_when_the_probability_is_zero(capsys, p, q):
    # and every route agrees, family by family: a dead family's spectrum and entropy are NaN
    outcomes = swap.bbm_outcomes(float(p), float(q))
    dead = [outcome.probability == 0.0 for outcome in outcomes]
    assert [outcome.post_state is None for outcome in outcomes] == dead
    spectra = swap._branches(float(p), float(q))[1]
    assert np.isnan(spectra).tolist() == dead  # a, b are phi's, c, d psi's
    s_phi, s_psi = swap.post_entropies(float(p), float(q))
    assert np.isnan([s_phi, s_phi, s_psi, s_psi]).tolist() == dead
    code, out, _ = run_main(capsys, ["swap", "--p", p, "--q", q])
    assert code == 0
    for entry in json.loads(out)["outcomes"]:
        null = entry["probability_full"] == 0.0
        assert (entry["post_state"] is None) == null, entry["label"]
        assert (entry["svn_full"] is None) == null, entry["label"]


def test_swap_post_state_keeps_a_negated_zero(capsys):
    code, out, _ = run_main(capsys, ["swap", "--p", "0.3", "--q", "1"])
    assert code == 0
    # phi- at q = 1 is sqrt(p)|00> - 0|11>: the negated zero keeps its sign
    assert json.loads(out)["outcomes"][1]["post_state"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-0.0, 0.0]]
    assert '[\n          -0.0,\n          0.0\n        ]' in out


# the whole stdout of `swap` at the two weight pairs below, taken as the
# bytes of record: key order, indentation, null branches and the negated zero
SWAP_P1_Q0 = """\
{
  "p": 1.0,
  "q": 0.0,
  "initial": {
    "svn_pair_p": 0.0,
    "svn_pair_p_full": 0.0,
    "svn_pair_q": 0.0,
    "svn_pair_q_full": 0.0
  },
  "outcomes": [
    {
      "label": "phi+",
      "probability": 0.0,
      "probability_full": 0.0,
      "post_state": null,
      "svn": null,
      "svn_full": null,
      "pvn": null,
      "pvn_full": null,
      "cre": null,
      "cre_full": null
    },
    {
      "label": "phi-",
      "probability": 0.0,
      "probability_full": 0.0,
      "post_state": null,
      "svn": null,
      "svn_full": null,
      "pvn": null,
      "pvn_full": null,
      "cre": null,
      "cre_full": null
    },
    {
      "label": "psi+",
      "probability": 0.5,
      "probability_full": 0.5,
      "post_state": [
        [
          0.0,
          0.0
        ],
        [
          1.0,
          0.0
        ],
        [
          0.0,
          0.0
        ],
        [
          0.0,
          0.0
        ]
      ],
      "svn": 0.0,
      "svn_full": 0.0,
      "pvn": 1.0,
      "pvn_full": 1.0,
      "cre": 0.0,
      "cre_full": 0.0
    },
    {
      "label": "psi-",
      "probability": 0.5,
      "probability_full": 0.5,
      "post_state": [
        [
          0.0,
          0.0
        ],
        [
          1.0,
          0.0
        ],
        [
          -0.0,
          0.0
        ],
        [
          0.0,
          0.0
        ]
      ],
      "svn": 0.0,
      "svn_full": 0.0,
      "pvn": 1.0,
      "pvn_full": 1.0,
      "cre": 0.0,
      "cre_full": 0.0
    }
  ]
}
"""

SWAP_HALF_HALF = """\
{
  "p": 0.5,
  "q": 0.5,
  "initial": {
    "svn_pair_p": 1.0,
    "svn_pair_p_full": 1.0,
    "svn_pair_q": 1.0,
    "svn_pair_q_full": 1.0
  },
  "outcomes": [
    {
      "label": "phi+",
      "probability": 0.25,
      "probability_full": 0.25,
      "post_state": [
        [
          0.7071067811865475,
          0.0
        ],
        [
          0.0,
          0.0
        ],
        [
          0.0,
          0.0
        ],
        [
          0.7071067811865475,
          0.0
        ]
      ],
      "svn": 1.0,
      "svn_full": 1.0,
      "pvn": 0.0,
      "pvn_full": 0.0,
      "cre": 0.0,
      "cre_full": 0.0
    },
    {
      "label": "phi-",
      "probability": 0.25,
      "probability_full": 0.25,
      "post_state": [
        [
          0.7071067811865475,
          0.0
        ],
        [
          0.0,
          0.0
        ],
        [
          0.0,
          0.0
        ],
        [
          -0.7071067811865475,
          0.0
        ]
      ],
      "svn": 1.0,
      "svn_full": 1.0,
      "pvn": 0.0,
      "pvn_full": 0.0,
      "cre": 0.0,
      "cre_full": 0.0
    },
    {
      "label": "psi+",
      "probability": 0.25,
      "probability_full": 0.25,
      "post_state": [
        [
          0.0,
          0.0
        ],
        [
          0.7071067811865475,
          0.0
        ],
        [
          0.7071067811865475,
          0.0
        ],
        [
          0.0,
          0.0
        ]
      ],
      "svn": 1.0,
      "svn_full": 1.0,
      "pvn": 0.0,
      "pvn_full": 0.0,
      "cre": 0.0,
      "cre_full": 0.0
    },
    {
      "label": "psi-",
      "probability": 0.25,
      "probability_full": 0.25,
      "post_state": [
        [
          0.0,
          0.0
        ],
        [
          0.7071067811865475,
          0.0
        ],
        [
          -0.7071067811865475,
          0.0
        ],
        [
          0.0,
          0.0
        ]
      ],
      "svn": 1.0,
      "svn_full": 1.0,
      "pvn": 0.0,
      "pvn_full": 0.0,
      "cre": 0.0,
      "cre_full": 0.0
    }
  ]
}
"""


@pytest.mark.parametrize("p, q, golden", [("1", "0", SWAP_P1_Q0), ("0.5", "0.5", SWAP_HALF_HALF)],
                         ids=["p1-q0", "half-half"])
def test_swap_document_bytes_are_pinned(capsys, p, q, golden):
    assert run_main(capsys, ["swap", "--p", p, "--q", q]) == (0, golden, "")


def test_figures_and_swap_run_no_eigensolver(capsys, monkeypatch):
    # every state that figures and swap report is in Schmidt form, so each rho_A is
    # diagonal and is reported from its populations: no spectrum is ever solved for
    weights = ("0", "1", "0.5", "0.3", "5e-324")
    argvs = [["figures", "--which", which, "--grid", str(grid)]
             for which in ("1a", "1b", "2a", "2b") for grid in (11, 1001)]
    argvs += [["swap", "--p", p, "--q", q, *shots] for p in weights for q in weights
              for shots in ([], ["--shots", "7"])]

    def outputs():
        return [run_main(capsys, argv)[:2] for argv in argvs]

    expected = outputs()

    def no_eigensolver(*args):
        raise AssertionError("an eigensolver ran")

    # every binding of the spectrum dispatch and of the solvers behind it, wherever a module holds one
    solvers = ("_eigenvalues", "_qubit_eigenvalues", "hermitian_eigenvalues")
    held = [(module, name) for key, module in list(sys.modules.items()) if key.split(".")[0] == "entswap"
            for name in solvers if hasattr(module, name)]
    assert {(linalg, name) for name in solvers} | {(measures, "_eigenvalues")} <= set(held)
    for module, name in held + [(np.linalg, "eigvalsh"), (np.linalg, "eigh")]:
        monkeypatch.setattr(module, name, no_eigensolver)
    assert outputs() == expected


def test_swap_empirical_block(capsys):
    code, out, _ = run_main(
        capsys, ["swap", "--p", "0.1", "--q", "0.75", "--shots", "20000", "--seed", "7"]
    )
    assert code == 0
    doc = json.loads(out)
    emp = doc["empirical"]
    assert emp["shots"] == 20000 and emp["seed"] == 7
    assert sum(emp["counts"].values()) == 20000
    probs = {o.label: o.probability for o in swap.bbm_outcomes(0.1, 0.75)}
    assert emp["max_abs_error"] == max(
        abs(emp["frequencies"][k] - probs[k]) for k in emp["counts"]
    )
    rerun = run_main(capsys, ["swap", "--p", "0.1", "--q", "0.75", "--shots", "20000", "--seed", "7"])
    assert rerun[1] == out


# 200003 shots span four chunks: all branches live, the phi pair dead, the psi pair dead
SHOT_PAIRS = [("0.3", "0.6"), ("0", "1"), ("1", "0")]


@pytest.mark.parametrize("p, q", SHOT_PAIRS)
def test_swap_shots_give_the_same_bytes_at_any_mix_block(capsys, monkeypatch, p, q):
    # each shot chunk's words are made in its draws' own memory, one block at a time
    argv = ["swap", "--p", p, "--q", q, "--shots", "200003", "--seed", "3"]
    blocks = []
    real_steps = rng._counter_steps

    def recorded_steps(block):
        blocks.append(block)
        return real_steps(block)

    monkeypatch.setattr(rng, "_counter_steps", recorded_steps)
    whole = run_main(capsys, argv)
    assert whole[0] == 0
    assert set(blocks) == {rng._MIX_BLOCK}
    blocks.clear()
    monkeypatch.setattr(rng, "_MIX_BLOCK", 7)
    assert run_main(capsys, argv) == whole
    assert set(blocks) == {7}


@pytest.mark.parametrize("p, q", SHOT_PAIRS)
def test_swap_shots_peak_at_one_chunk_and_one_block(monkeypatch, p, q):
    # peaks at half the SHOT_CHUNK and _MIX_BLOCK and 200003 shots (seven chunks), with each
    # size doubled and with twice the shots, so the parser's and the JSON's bytes cancel: a
    # chunk is drawn into the run's one buffer through one scratch block, 8 B per draw and
    # per block word (7.997 and 7.976 to 7.996 measured), and more shots hold nothing
    def peak(chunk, block, shots):
        monkeypatch.setattr(rng, "SHOT_CHUNK", chunk)
        monkeypatch.setattr(rng, "_MIX_BLOCK", block)
        return oracles.main_peak_bytes(["swap", "--p", p, "--q", q, "--shots", str(shots), "--seed", "3"])

    chunk, block = rng.SHOT_CHUNK // 2, rng._MIX_BLOCK // 2
    base = peak(chunk, block, 200003)
    assert (peak(2 * chunk, block, 200003) - base) / chunk <= 8 + 1
    assert (peak(chunk, 2 * block, 200003) - base) / block <= 8 + 1
    assert peak(chunk, block, 400003) - base <= 4096


def test_swap_shots_hold_the_ensemble_without_the_document():
    # the ensemble runs before the document's template and leaves are made, so the run's peak
    # is the ensemble's own and what the parser holds: 0.8 to 1.0 KB over it measured with
    # every branch live, where the template and the leaves made before the ensemble held 2.3
    # to 2.8 KB
    argv = ["swap", "--p", "0.3", "--q", "0.6", "--shots", "200003", "--seed", "3"]
    config = experiment.RunConfig(0.3, 0.6, 200003, 3)
    ensemble = oracles.peak_bytes(lambda: experiment.run_ensemble(config))
    assert oracles.main_peak_bytes(argv) - ensemble <= 1792


def _swap_argv(p, q, shots, seed):
    argv = ["swap", "--p", repr(p), "--q", repr(q), "--seed", str(seed)]
    return argv if shots is None else argv + ["--shots", str(shots)]


# weights where a branch dies or a probability underflows, next to any weight in [0, 1]
swap_weights = st.sampled_from([0.0, -0.0, 1.0, 0.5, 5e-324, 1e-300]) | st.floats(0.0, 1.0)


def _at_every_document_shape(test):
    """Examples of every `swap` document shape (`oracles.DOCUMENT_SHAPES`), with and without shots."""
    for p, q in oracles.DOCUMENT_SHAPES:
        for shots in (None, 1000):
            test = example(p=p, q=q, shots=shots, seed=3)(test)
    return test


@_at_every_document_shape
# run_main reads capsys empty on every call, so one fixture serves every example
@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(p=swap_weights, q=swap_weights, shots=st.none() | st.integers(1, 50),
       seed=st.sampled_from([0, 5, 2**32, 2**63, 2**64 - 1]) | st.integers(0, 2**64 - 1))
def test_swap_bytes_match_the_reference_builder(capsys, p, q, shots, seed):
    code, out, err = run_main(capsys, _swap_argv(p, q, shots, seed))
    # the CLI reads a -0 weight as 0
    assert (code, out, err) == (0, oracles.swap_document(p + 0.0, q + 0.0, shots, seed), "")
    doc = json.loads(out)
    for entry in doc["outcomes"]:
        assert (entry["post_state"] is None) == (entry["probability_full"] == 0.0), entry
    if shots is not None:
        assert sum(doc["empirical"]["counts"].values()) == shots


def test_swap_reads_the_closed_forms_and_builds_no_pure_state(capsys, monkeypatch):
    # the reference builder copies each post state through PureState; the CLI must
    # reach the same bytes from `swap._branches` alone, at every document shape
    cases = [(p, q, shots) for p, q in oracles.DOCUMENT_SHAPES for shots in (None, 1000)]
    expected = [oracles.swap_document(p, q, shots, 3) for p, q, shots in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("swap reached code it has no use for")

    monkeypatch.setattr(swap, "bbm_outcomes", refuse)
    monkeypatch.setattr(states.PureState, "__post_init__", refuse)
    with pytest.raises(AssertionError):
        states.schmidt_pair(0.5)  # the patch has taken effect
    # and it forms the closed forms once per document, and once more for an ensemble;
    # it takes one entropy per document and no linear field: no purity, no full report
    passes, entropies = [], []
    products, entropy = swap._products, measures._entropy
    monkeypatch.setattr(swap, "_products", lambda p, q: passes.append((p, q)) or products(p, q))
    monkeypatch.setattr(measures, "_entropy", lambda lam: entropies.append(lam) or entropy(lam))
    monkeypatch.setattr(measures, "_gram_report", refuse)
    monkeypatch.setattr(measures, "_purity", refuse)
    for (p, q, shots), document in zip(cases, expected):
        passes.clear()
        entropies.clear()
        assert run_main(capsys, _swap_argv(p, q, shots, 3)) == (0, document, ""), (p, q, shots)
        assert len(passes) == (1 if shots is None else 2), (p, q, shots, passes)
        assert len(entropies) == 1, (p, q, shots, entropies)


@pytest.mark.parametrize("shots", [[], ["--shots", "1000"]])
@pytest.mark.parametrize("p, q", [("-0", "0.5"), ("0.5", "-0"), ("-0", "-0.0"), ("1", "-0")])
def test_swap_reads_a_negative_zero_weight_as_zero(capsys, p, q, shots):
    signed = run_main(capsys, ["swap", "--p", p, "--q", q, *shots])
    unsigned = run_main(capsys, ["swap", "--p", p.lstrip("-"), "--q", q.lstrip("-"), *shots])
    assert signed == unsigned and signed[0] == 0


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(p=swap_weights, q=swap_weights)
def test_swap_branch_entropies_are_post_entropies_bit_for_bit(capsys, p, q):
    s_phi, s_psi = swap.post_entropies(p, q)
    code, out, _ = run_main(capsys, _swap_argv(p, q, None, 7))
    assert code == 0
    for entry, s_vn in zip(json.loads(out)["outcomes"], (s_phi, s_phi, s_psi, s_psi)):
        if entry["post_state"] is None:  # a dead family: no state, and a NaN entropy
            assert entry["svn_full"] is None and math.isnan(s_vn), entry["label"]
        else:
            assert oracles.bits(entry["svn_full"]) == oracles.bits(s_vn), entry["label"]


# weights where a branch dies or a population underflows, and interior weights
KERNEL_WEIGHTS = (0.0, 1.0, 0.5, 5e-324, 1e-300, 0.125, 0.3, 1 / 3, 0.6, 0.9)


def test_swap_measures_match_the_pure_state_kernel_of_the_printed_states(capsys):
    # a route that shares no population or spectrum with the CLI's: each printed
    # post state, and each source pair, through the Gram matrix and its eigenvalues
    fields = {"svn_full": "s_vn", "pvn_full": "p_vn", "cre_full": "c_re"}
    for p in KERNEL_WEIGHTS:
        for q in KERNEL_WEIGHTS:
            code, out, _ = run_main(capsys, _swap_argv(p, q, None, 7))
            assert code == 0
            doc = json.loads(out)
            pairs = oracles.pure_report(np.stack([states.schmidt_pair(w).amplitudes.reshape(2, 2) for w in (p, q)]))
            for name, s_vn in zip(("svn_pair_p_full", "svn_pair_q_full"), pairs.s_vn):
                assert abs(doc["initial"][name] - s_vn) <= 1e-12, (p, q, name)
            for entry in doc["outcomes"]:
                if entry["post_state"] is None:
                    continue
                re, im = np.array(entry["post_state"]).T
                rep = oracles.pure_report((re + 1j * im).reshape(1, 2, 2))
                for key, field in fields.items():
                    assert abs(entry[key] - getattr(rep, field)[0]) <= 1e-12, (p, q, entry["label"], key)


def test_swap_with_a_non_finite_value_writes_no_document(capsys, monkeypatch, tmp_path):
    # no accepted (p, q) reaches a NaN or an infinity, and neither is JSON, so poisoned
    # population measures or a poisoned empirical frequency fail the run: exit 1, one
    # error line, nothing on stdout and no `--out` file, not even a temp file
    real_measures, real_ensemble = measures._diagonal_vn, cli.run_ensemble

    def poisoned(populations):
        s_vn, p_vn, c_re = real_measures(populations)
        return np.full_like(s_vn, np.nan), np.full_like(p_vn, -np.inf), c_re

    def nan_frequency(cfg):
        result = real_ensemble(cfg)
        return dataclasses.replace(result, empirical_freq={**result.empirical_freq, "psi+": math.nan})

    cases = [(measures, "_diagonal_vn", poisoned, 0.3, 0.6, None, 7),
             (measures, "_diagonal_vn", poisoned, 1.0, 0.0, 10, 5),
             (cli, "run_ensemble", nan_frequency, 0.3, 0.6, 10, 7)]
    for module, name, poison, p, q, shots, seed in cases:
        with monkeypatch.context() as patch:
            patch.setattr(module, name, poison)
            for out in ([], ["--out", str(tmp_path / "swap.json")]):
                code, stdout, err = run_main(capsys, _swap_argv(p, q, shots, seed) + out)
                assert (code, stdout) == (1, ""), (name, p, q, out)
                assert len(err.splitlines()) == 1 and err.startswith("error: "), err
                assert list(tmp_path.iterdir()) == []


def test_swap_templates_are_one_per_document_shape(capsys):
    weights = ("0", "1", "0.5", "0.3", "5e-324", "1e-300")
    for p in weights:
        for q in weights:
            for extra in ([], ["--shots", "5"]):
                assert run_main(capsys, ["swap", "--p", p, "--q", q, *extra])[0] == 0
    # all four branches live, the phi pair dead or the psi pair dead; with and without shots
    assert cli._swap_template.cache_info().currsize <= 6


def _check_weight_text(text):
    """`cli._weight_arg` accepts text exactly when `states.require_weight(float(text))` does, as +0.0 + that weight."""
    try:
        expected = float(states.require_weight(float(text)))
    except ValueError:
        with pytest.raises(argparse.ArgumentTypeError):
            cli._weight_arg(text)
        return
    weight = cli._weight_arg(text)
    assert type(weight) is float and oracles.bits(weight) == oracles.bits(expected + 0.0), text


# the interval's closed ends, signed zeros, the neighbours of 0 and 1, NaN, infinities and non-numbers
@pytest.mark.parametrize("text", ["0", "1", "1.0", "-0", "-0.0", "5e-324", "-5e-324", "0.9999999999999999",
                                  "1.0000000000000002", "0.5", " 0.25 ", "nan", "-nan", "inf", "-inf", "1e309",
                                  "", "abc", "0x1p-1", "1_0"])
def test_weight_arg_accepts_the_weights_require_weight_accepts(text):
    _check_weight_text(text)


@given(st.floats(0.0, 1.0).map(repr) | st.floats().map(repr))
def test_weight_arg_accepts_the_weights_require_weight_accepts_on_any_float(text):
    _check_weight_text(text)


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"])
def test_out_files_take_the_mode_of_a_plain_write(tmp_path, umask, mode):
    # 0o666 less the umask, as open(path, "w") makes a new file, for a new path and a replaced one
    target = tmp_path / "doc.json"
    old = os.umask(umask)
    try:
        for _ in range(2):
            assert main(["swap", "--p", "0.5", "--q", "0.5", "--out", str(target)]) == 0
            assert target.stat().st_mode & 0o777 == mode
    finally:
        os.umask(old)
    assert [path.name for path in tmp_path.iterdir()] == ["doc.json"]


def test_an_out_at_the_longest_file_name_is_written(capsys, tmp_path):
    # the temp file's name is not built from out's, so any name open(out, "w") takes is taken
    if os.pathconf(tmp_path, "PC_NAME_MAX") < 255:
        pytest.skip("this file system takes no 255-byte file name")
    argv = ["figures", "--which", "2a", "--grid", "3"]
    _, expected, _ = run_main(capsys, argv)
    target = tmp_path / ("f" * 255)
    assert main([*argv, "--out", str(target)]) == 0
    assert target.read_bytes() == expected.encode()
    assert [path.name for path in tmp_path.iterdir()] == [target.name]


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "entswap", "figures", "--which", "2a", "--grid", "3"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "q,pr_phi,pr_psi,pl_initial"


def _outcome(capsys, run, argv):
    """The exit code, stdout and stderr of run(argv), an argparse exit included."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    return code, *capsys.readouterr()


@functools.cache
def _reference_parser():
    """`build_parser`'s body, run once here: a parser that `main` never touches, which parsing leaves unchanged."""
    return cli.build_parser.__wrapped__()


def _full_parse(argv):
    """`main` as the reference parser runs argv: the top-level parse over every word, then the command."""
    args = _reference_parser().parse_args(argv)
    return args.func(args)


_SWAP_WORDS = ["swap", "--p", "0.3", "--q", "0.4"]
# a small accepted argv of each command, and of the two that take a seed
_OUT_COMMANDS = (["figures", "--which", "2a", "--grid", "3"], ["verify", "--trials", "3"],
                 ["swap", "--p", "0.5", "--q", "0.5"])
_SEEDED = (["verify", "--trials", "3"], ["swap", "--p", "0.5", "--q", "0.5", "--shots", "3"])
# argvs at the edge of `main`'s dispatch that it does not refuse: help, abbreviated and repeated options
DISPATCH_ARGVS = [
    ["-h"], ["--help"], ["-h", "swap"], ["swap", "-h"], ["figures", "--help"], ["verify", "-h"],
    [*_SWAP_WORDS, "-h"], ["swap", "-h", "junk"],
    ["figures", "--which=2b", "--grid", "3"], ["figures", "--wh", "2a", "--gr", "3"],
    ["verify", "--tr", "3", "--di", "3,2", "--se", "5"],
    ["swap", "--p", "0.1", "--q", "0.75", "--sh", "20", "--se", "5"],
    ["swap", "--p", "0.1", "--p", "0.2", "--q", "0.5"], ["swap", "--p=-0", "--q=1"],
    [*_SWAP_WORDS, "--shots", "9", "--seed", str(2**64 - 1)],
    ["figures", "--which", "2a", "--grid", "5"], ["swap", "--p", "0.1", "--q", "0.75", "--shots", "100"],
]


@pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=str)
def test_main_prints_what_a_full_parse_prints(capsys, argv):
    assert _outcome(capsys, main, argv) == _outcome(capsys, _full_parse, argv)


_NO_COMMAND = "the following arguments are required: command"
_NOT_A_COMMAND = "argument command: invalid choice"
_NO_OUT = "argument --out: the output path must not be empty"
# argvs the parser refuses (exit 2), each with argparse's message from the argument's name on
USAGE_ERRORS = [
    # no command, `--`, or a first word that is not exactly a command's name
    ([], _NO_COMMAND), (["--"], _NO_COMMAND), ([""], _NOT_A_COMMAND), (["--", *_SWAP_WORDS], _NOT_A_COMMAND),
    (["--", "--"], _NOT_A_COMMAND), (["sw", "--p", "0.3", "--q", "0.4"], _NOT_A_COMMAND), (["swa"], _NOT_A_COMMAND),
    (["Swap", "--p", "0.3", "--q", "0.4"], _NOT_A_COMMAND), (["--swap", "--p", "0.3", "--q", "0.4"], _NOT_A_COMMAND),
    (["-swap", "--p", "0.3", "--q", "0.4"], _NOT_A_COMMAND), (["--verify", "--trials", "3"], _NOT_A_COMMAND),
    (["--figures", "--which", "2a", "--grid", "3"], _NOT_A_COMMAND), (["junk", *_SWAP_WORDS], _NOT_A_COMMAND),
    # words the command's parser leaves, or a value given to help
    ([*_SWAP_WORDS, "--help=x"], "argument -h/--help: ignored explicit argument"),
    *[([*_SWAP_WORDS, word], f"unrecognized arguments: {word}")
      for word in ("--", "junk", "--junk", "--junk=1", "-x", "verify")],
    (["swap", "junk", "--p", "0.3", "--q", "0.4"], "unrecognized arguments: junk"),
    (["figures", "--which", "2a", "--grid", "3", "swap"], "unrecognized arguments: swap"),
    (["verify", "--trials", "3", "extra"], "unrecognized arguments: extra"),
    # a required option or a value missing
    (["swap"], "the following arguments are required: --p, --q"),
    (["swap", "swap"], "the following arguments are required: --p, --q"),
    (["swap", "--", "--p", "0.3", "--q", "0.4"], "the following arguments are required: --p, --q"),
    (["swap", "--p", "0.3"], "the following arguments are required: --q"),
    (["swap", "--p", "0.3", "--", "--q", "0.4"], "the following arguments are required: --q"),
    (["swap", "--p"], "argument --p: expected one argument"),
    (["figures"], "the following arguments are required: --which"),
    # figures
    (["figures", "--which", "9z"], "argument --which: invalid choice"),
    (["figures", "--which", "3c"], "argument --which: invalid choice"),
    (["figures", "--which", "1a", "--grid", "1"], "argument --grid: value must be >= 2"),
    (["figures", "--which", "2a", "--grid", "1"], "argument --grid: value must be >= 2"),
    (["figures", "--which", "1a", "--grid", "abc"], "argument --grid: 'abc' is not an integer"),
    # verify's dims
    (["verify", "--dims", "3"], "argument --dims: dims must look like DA,DB"),
    (["verify", "--dims", "2,1"], "argument --dims: each dimension must be >= 2"),
    (["verify", "--dims", "a,b"], "argument --dims: dims must be integers"),
    *[(["verify", "--dims", dims], "argument --dims: DA*DB must be <= 16") for dims in ("5,4", "17,2")],
    (["verify", "--trials", "3", "--dims", "5,5"], "argument --dims: DA*DB must be <= 16"),
    # swap's weights and shots
    (["swap", "--p", "1.5", "--q", "0.5"], "argument --p: '1.5' is not a number in [0, 1]"),
    (["swap", "--p", "0.5", "--q", "-0.1"], "argument --q: '-0.1' is not a number in [0, 1]"),
    (["swap", "--p", "0.5", "--q", "nope"], "argument --q: 'nope' is not a number in [0, 1]"),
    *[(["swap", "--p", weight, "--q", "0.4"], f"argument --p: {weight!r} is not a number in [0, 1]")
      for weight in ("abc", "nan", "")],
    (["swap", "--p", "0.5", "--q", "0.5", "--shots", "0"], "argument --shots: value must be >= 1"),
    ([*_SWAP_WORDS, "--shots", "0"], "argument --shots: value must be >= 1"),
    # the stream reads a seed modulo 2^64, so -1 and 2^64 - 1 would draw the same
    # states yet print different "seed" fields; the parser takes [0, 2^64) only
    *[([*command, "--seed", str(seed)], "argument --seed: value must be " + (">= 0" if seed < 0 else f"<= {2**64 - 1}"))
      for command in _SEEDED for seed in (-1, 2**64, -(2**64 - 1), 2**70)],
    ([*_SWAP_WORDS, "--shots", "9", "--seed", str(2**64)], f"argument --seed: value must be <= {2**64 - 1}"),
    # an empty --out, or one that ends in a separator: Path("sub/") is Path("sub"), so
    # without the check a file named sub would be written
    *[([*command, "--out", ""], _NO_OUT) for command in _OUT_COMMANDS],
    ([*_SWAP_WORDS, "--out="], _NO_OUT), (["figures", "--which", "2a", "--grid", "3", "--o="], _NO_OUT),
    *[(["swap", "--p", "0.5", "--q", "0.5", "--out", out], f"argument --out: {out!r} names a directory, not a file")
      for out in ("sub/", "sub" + os.sep + os.sep, os.sep)],
    ([*_SWAP_WORDS, "--out", "d/"], "argument --out: 'd/' names a directory, not a file"),
]


@pytest.mark.parametrize("argv, fragment", USAGE_ERRORS, ids=[str(argv) for argv, _ in USAGE_ERRORS])
def test_a_usage_error_exits_2_and_writes_nothing(capsys, tmp_path, monkeypatch, argv, fragment):
    monkeypatch.chdir(tmp_path)
    code, out, err = outcome = _outcome(capsys, main, argv)
    assert (code, out) == (2, "") and f"error: {fragment}" in err, err
    assert outcome == _outcome(capsys, _full_parse, argv)
    assert list(tmp_path.iterdir()) == []


def test_the_ends_of_the_accepted_ranges_run(capsys):
    # the largest dims and the first and last seeds, next to the usage errors just past them
    code, out, _ = run_main(capsys, ["verify", "--dims", "4,4", "--trials", "3"])
    assert code == 0 and json.loads(out)["dims"] == [4, 4]
    for command in _SEEDED:
        for seed in (0, 2**64 - 1):
            code, out, _ = run_main(capsys, [*command, "--seed", str(seed)])
            assert code == 0 and f'"seed": {seed}' in out, (command, seed)


# an --out the parser takes but that cannot be written (exit 3): one in a missing
# directory, and a directory named relatively or absolutely ({cwd} is the run's cwd)
OUT_ERRORS = [(_OUT_COMMANDS[0], os.path.join("missing", "fig.csv"), errno.ENOENT)] + [
    (command, out, errno.EISDIR) for command in _OUT_COMMANDS for out in (".", "sub", os.path.join("{cwd}", "sub"))]


@pytest.mark.parametrize("command, out, code", OUT_ERRORS,
                         ids=[f"{command[0]} {out}" for command, out, _ in OUT_ERRORS])
def test_an_out_that_cannot_be_written_exits_3(capsys, tmp_path, monkeypatch, command, out, code):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    out = out.format(cwd=tmp_path)
    assert run_main(capsys, [*command, "--out", out]) == (3, "", f"error: cannot write {out}: {os.strerror(code)}\n")
    # no temp file is left beside the target or in it
    assert [path.name for path in tmp_path.iterdir()] == ["sub"]
    assert list((tmp_path / "sub").iterdir()) == []


_WEIGHT_WORDS = st.floats(0.0, 1.0).map(repr) | st.sampled_from(
    ["0", "1", "-0", "nan", "inf", "5e-324", "1.0000000000000002", "", "abc"])
# an option with a value, abbreviated or not, or one word alone, each (name, value) pair one draw;
# every size is small, and no word names a file that a run could write
_OPTION_WORDS = st.one_of(
    *[st.sampled_from(list(itertools.product(names, values))) for names, values in [
        (["--which", "--wh"], ["2a", "1b", "3c"]), (["--grid", "--gr"], ["3", "1"]),
        (["--trials", "--tr"], ["2", "0"]), (["--dims", "--di"], ["3,2", "9,9"]),
        (["--shots", "--sh"], ["3", "0"]), (["--seed", "--se"], ["5", "-1", str(2**64)])]],
    st.tuples(st.sampled_from(["--p", "--q"]), _WEIGHT_WORDS),
    st.sampled_from([(word,) for word in ["-h", "--", "junk", "--junk", "-x", "--which=2b", "--p=0.5", "--q=-0",
                                          "--out="]]),
)
_MORE_OPTIONS = st.lists(_OPTION_WORDS, max_size=4)
# a command's name, or a first word that is not
_FIRST_WORDS = {command: st.just(command) | st.sampled_from(["sw", "--swap", "-h", "--", "junk", ""])
                for command in ("figures", "verify", "swap")}


@st.composite
def _dispatch_argvs(draw):
    """A command's required options and up to four more, in any order, after its name or a word that is not."""
    command = draw(st.sampled_from(list(_FIRST_WORDS)))
    if command == "swap":  # only swap's required options are drawn
        required = [("--p", draw(_WEIGHT_WORDS)), ("--q", draw(_WEIGHT_WORDS))]
    else:
        required = [{"figures": ("--which", "2a"), "verify": ("--trials", "2")}[command]]
    options = draw(st.permutations(required + draw(_MORE_OPTIONS)))
    return [draw(_FIRST_WORDS[command]), *itertools.chain.from_iterable(options)]


# _outcome reads capsys empty on every call, so one fixture serves every example
@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_dispatch_argvs())
def test_main_prints_what_a_full_parse_prints_on_any_words(capsys, argv):
    assert _outcome(capsys, main, argv) == _outcome(capsys, _full_parse, argv)


# one argv of each shape the benchmark workloads run, at small sizes, and README's examples
ONE_PARSE_ARGVS = [
    ["verify", "--trials", "50", "--dims", "3,2", "--seed", "2718281828"],
    ["figures", "--which", "2b"],
    ["swap", "--p", "0.3", "--q", "0.6", "--shots", "1000", "--seed", "31"],
    ["swap", "--p", "0", "--q", "1"],
    ["figures", "--which", "2a", "--grid", "5"],
    ["verify", "--trials", "10000", "--dims", "3,2", "--seed", "7"],
    ["swap", "--p", "0.1", "--q", "0.75"],
    ["swap", "--p", "0.1", "--q", "0.75", "--shots", "1000000"],
]


def test_a_well_formed_command_runs_one_parse(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    expected = [_outcome(capsys, _full_parse, argv) for argv in ONE_PARSE_ARGVS]
    assert all(code == 0 for code, _, _ in expected)

    def refuse(*args, **kwargs):
        raise AssertionError("a well-formed command went through the top-level parse")

    parses = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        parses.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    monkeypatch.setattr(cli.build_parser(), "parse_args", refuse)
    for argv, outcome in zip(ONE_PARSE_ARGVS, expected):
        parses.clear()
        assert _outcome(capsys, main, argv) == outcome, argv
        assert parses == [f"entswap {argv[0]}"], argv
