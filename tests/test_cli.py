import contextlib
import dataclasses
import errno
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
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


def test_figures_grid_covers_unit_interval(capsys):
    code, out, _ = run_main(capsys, ["figures", "--which", "2a", "--grid", "5"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    first_col = [float(row.split(",")[0]) for row in lines[1:]]
    assert first_col == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_figures_cells_round_trip_exactly(capsys):
    # 1a and 1b at the default grid: every entropy cell is post_entropies' value, bit for bit
    x = np.arange(cli.DEFAULT_GRID) / (cli.DEFAULT_GRID - 1)
    expected = swap.post_entropies(x[:, None], np.array(cli.FIGURE_Q_SET))
    for which, entropies in zip(("1a", "1b"), expected):
        code, out, _ = run_main(capsys, ["figures", "--which", which])
        assert code == 0
        cells = np.array([[float(cell) for cell in line.split(",")] for line in out.splitlines()[1:]])
        assert oracles.bits(cells[:, 0]).tolist() == oracles.bits(x).tolist(), which
        assert oracles.bits(cells[:, 1:]).tolist() == oracles.bits(entropies).tolist(), which
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


def test_figures_2a_psi_dominates(capsys):
    _, out, _ = run_main(capsys, ["figures", "--which", "2a", "--grid", "101"])
    for line in out.splitlines()[1:]:
        q, pr_phi, pr_psi, _ = (float(cell) for cell in line.split(","))
        if q == 0.5:
            assert abs(pr_psi - pr_phi) < 1e-15
        else:
            assert pr_psi > pr_phi


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


# any double, or one near the figure range, where most cells take the array path
_CELLS = st.floats(allow_nan=True, allow_infinity=True) | st.floats(1e-5, 20.0)
_ROW_BLOCKS = st.integers(4, 6).flatmap(
    lambda k: st.lists(st.lists(_CELLS, min_size=k, max_size=k), max_size=20).map(
        lambda rows: np.array(rows, dtype=float).reshape(-1, k)
    )
)


@settings(max_examples=300, deadline=None)
@given(_ROW_BLOCKS)
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
    """Cells of every fast decade and both signs with every pattern of zero 4-digit groups
    and with their last nonzero digit at each of the 16 fraction digits."""
    rng = np.random.default_rng(17)
    patterns = []
    for zero in range(16):  # bit j set: fraction digits 4j+1..4j+4 are all zero
        groups = ["0000" if zero >> j & 1 else "??+?" for j in range(4)]
        patterns.append("+" + "".join(groups))
    for last in range(1, 17):  # the last nonzero digit is fraction digit `last`
        patterns.append("+" + "?" * (last - 1) + "+" + "0" * (16 - last))
    cells = [_cell_showing(x, sign, digits, rng)
             for x in range(-4, 1) for sign in ("", "-") for digits in patterns]
    # a lead digit and no other, so X = 0 writes no `.`
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
    # y = j / 2^e * 10^(16 - x) ends in exactly .5 when j is odd and e = 17 - x
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
    # sub-blocks' text (4.76x the largest piece measured), where a join over the block
    # held its whole text twice (2.0x the text, 23.6x the largest piece)
    rows = cli._figure_rows("1a", np.arange(cli.FIGURE_CHUNK) / (cli.FIGURE_CHUNK - 1))
    tracemalloc.start()
    try:
        sizes = [len(piece) for piece in cli._csv_pieces(rows)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sizes) > 10
    assert peak <= 5.5 * max(sizes), (peak, max(sizes))


def _figures_peak(which: str, grid: int) -> int:
    """The tracemalloc peak of a second whole `figures` call, its stdout captured as the benchmark does."""
    argv = ["figures", "--which", which, "--grid", str(grid)]

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0

    return traced_peak(call)


# bytes: the measured peaks plus about 16 KB; the chunk-wide join and the
# numeric temporaries held through the text peaked at 454,881 / 403,324 / 428,504 B
# at grid 1001, and at 1,344,954 / 777,620 / 984,084 B at grid 4097 (1a and 1b, 2a, 2b)
_FIGURE_PEAKS = {"1a": (290_000, 1_055_000), "1b": (290_000, 1_055_000),
                 "2a": (236_000, 574_000), "2b": (251_000, 774_000)}


@pytest.mark.parametrize("which", ["1a", "1b", "2a", "2b"])
def test_figures_peak_at_their_text(which):
    for grid, bound in zip((1001, 4097), _FIGURE_PEAKS[which]):
        peak = _figures_peak(which, grid)
        assert peak <= bound, (grid, peak, bound)


def test_figures_out_streams_the_stdout_bytes(capsys, monkeypatch, tmp_path):
    # sub-blocks of one row: thousands of pieces through `_emit`'s file branch
    monkeypatch.setattr(cli, "CSV_CELLS", 7)
    grid = 4097
    for which in ("1a", "1b", "2a", "2b"):
        target = tmp_path / f"{which}.csv"
        assert main(["figures", "--which", which, "--grid", str(grid), "--out", str(target)]) == 0
        code, out, _ = run_main(capsys, ["figures", "--which", which, "--grid", str(grid)])
        assert code == 0
        rows = cli._figure_rows(which, np.arange(grid) / (grid - 1))
        expected = ",".join(cli.FIGURE_HEADERS[which]) + "\n" + oracles.csv_lines_per_cell(rows)
        assert target.read_bytes() == out.encode("ascii") == expected.encode("ascii")


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


def test_figures_bad_flags_exit_2(capsys):
    for argv in (
        ["figures", "--which", "9z"],
        ["figures", "--which", "1a", "--grid", "1"],
        ["figures", "--which", "1a", "--grid", "abc"],
        ["figures"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_figures_unwritable_out_exits_3(tmp_path, capsys):
    target = tmp_path / "missing" / "fig.csv"
    code = main(["figures", "--which", "2a", "--grid", "3", "--out", str(target)])
    assert code == 3
    err = capsys.readouterr().err
    assert err == f"error: cannot write {target}: {os.strerror(errno.ENOENT)}\n"
    assert ".tmp" not in err


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


@pytest.mark.parametrize("field", ["vn_sum", "l_sum"])
def test_verify_fails_closed_on_a_nan_residual(capsys, monkeypatch, field):
    real_report = measures._gram_report

    def poisoned(re, im, populations):
        rep = real_report(re, im, populations)
        values = getattr(rep, field).copy()
        values[len(values) // 2] = np.nan
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
    chunk = cli.VERIFY_CHUNK
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

    real_gram, real_report = measures._plane_gram, measures._gram_report
    pending, seen = [], []

    def gram_spy(planes):
        psi = np.empty((planes.shape[-1], da, db), dtype=complex)  # the states the kernel saw, exactly
        psi.real, psi.imag = planes[:, :, 0].transpose(2, 0, 1), planes[:, :, 1].transpose(2, 0, 1)
        pending.append(psi)
        return real_gram(planes)

    def report_spy(re, im, populations):
        rep = real_report(re, im, populations)
        seen.append((pending.pop(), rep))  # each report follows the Gram stage of its own chunk
        return rep

    monkeypatch.setattr(measures, "_plane_gram", gram_spy)
    monkeypatch.setattr(measures, "_gram_report", report_spy)
    for trials in (chunk - 1, chunk + 1, last):
        seen.clear()
        argv = ["verify", "--trials", str(trials), "--dims", f"{da},{db}", "--seed", str(seed)]
        code, out, _ = run_main(capsys, argv)
        doc = json.loads(out)
        assert code == 0
        assert not pending
        sizes = [len(psi) for psi, _ in seen]
        assert max(sizes) <= chunk and sum(sizes) == trials
        assert np.array_equal(np.concatenate([psi for psi, _ in seen]), ref_psi[:trials])
        vn = np.abs(np.concatenate([rep.vn_sum for _, rep in seen]) - math.log2(da))
        lin = np.abs(np.concatenate([rep.l_sum for _, rep in seen]) - (da - 1) / da)
        assert np.array_equal(vn, ref_vn[:trials])
        assert np.array_equal(lin, ref_l[:trials])
        s_vn = np.concatenate([rep.s_vn for _, rep in seen])
        assert np.abs(s_vn - ref_svn[:trials]).max() <= 1e-14
        assert doc["max_vn_residual"] == max(ref_vn[:trials])
        assert doc["max_linear_residual"] == max(ref_l[:trials])


def traced_peak(f) -> int:
    """The tracemalloc peak of a second call of f, in bytes: first-call allocations are not f's."""
    f()
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def verify_chunk(da, db):
    """One chunk as `verify` runs it: the states die when `_planes` returns, the planes when `_plane_gram` does."""
    return measures._gram_report(*measures._plane_gram(draw_planes(da, db)))


def draw_planes(da, db):
    """A chunk's draw as `verify` makes it: Haar states copied into planes, the states dead on return."""
    return measures._planes(states.haar_states(da, db, 5, cli.VERIFY_CHUNK).reshape(cli.VERIFY_CHUNK, da, db))


def test_verify_chunk_memory_stays_within_a_few_planes():
    peak = traced_peak(lambda: verify_chunk(3, 2))
    planes_bytes = 3 * 2 * 2 * cli.VERIFY_CHUNK * 8
    assert peak <= 2.15 * planes_bytes, (peak, planes_bytes)  # 2.096 measured


@pytest.mark.parametrize("da, db, over", [(3, 2, 0.0), (2, 3, 0.0), (3, 3, 0.0), (4, 4, 0.0), (5, 3, 0.0),
                                          (8, 2, 0.0), (2, 8, 0.0), (2, 2, 0.29)])
def test_verify_chunk_peaks_at_the_draw(da, db, over):
    # no stage of the report holds more than the draw did, its complex rows beside the
    # planes, but at 2,2 the report's eight rows beside the Gram planes outweigh them
    # and set the peak (1.293x the draw measured)
    draw = traced_peak(lambda: draw_planes(da, db))
    chunk = traced_peak(lambda: verify_chunk(da, db))
    assert chunk <= (1.0 + over) * draw + 4096, (chunk, draw)


# DB < DA takes each spectrum from rho_B, DB >= DA from rho_A: the closed 2x2 form
# from rows (2,2 2,8) and from columns (3,2 8,2), LAPACK at 3x3 and 4x4; 5,3's
# 15-amplitude rows are summed pairwise, then one term at a time. The report works
# in place, so a warning (log2 of 0, an invalid operation) is an error
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dims", [f"{da},{db}" for da in range(2, cli.VERIFY_MAX_DIM // 2 + 1)
                                  for db in range(2, cli.VERIFY_MAX_DIM // da + 1)])
def test_verify_passes_at_every_accepted_dims(capsys, dims):
    # 3000 states: two chunks, the second a partial one
    code, out, _ = run_main(capsys, ["verify", "--trials", "3000", "--seed", "7", "--dims", dims])
    assert code == 0
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize("dims", ["2,2", "3,2", "3,3", "8,2", "2,8", "4,4", "5,3"])
def test_verify_gives_the_same_bytes_at_any_chunk_size(capsys, monkeypatch, dims):
    # each chunk is drawn from its own counter range into planes laid out for its report;
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


def test_verify_bad_dims_exit_2(capsys):
    for dims in ("3", "2,1", "a,b", "5,4", "17,2"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--dims", dims])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        if dims in ("5,4", "17,2"):
            assert "DA*DB must be <= 16" in err
    code, out, _ = run_main(capsys, ["verify", "--dims", "4,4", "--trials", "3"])
    assert code == 0
    assert json.loads(out)["dims"] == [4, 4]


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


def test_swap_degenerate_branch_is_null(capsys):
    _, out, _ = run_main(capsys, ["swap", "--p", "1", "--q", "0"])
    doc = json.loads(out)
    by_label = {entry["label"]: entry for entry in doc["outcomes"]}
    assert by_label["phi+"]["post_state"] is None
    assert by_label["phi+"]["svn"] is None
    assert by_label["phi+"]["probability"] == 0.0
    assert by_label["psi+"]["probability"] == 0.5
    assert by_label["psi+"]["svn"] == 0.0


@pytest.mark.parametrize("p, q", [
    ("1", "5e-324"), ("5e-324", "1"), ("0", "5e-324"),  # a branch probability underflows to 0.0
    ("0", "0"), ("0", "1"), ("1", "0"), ("1", "1"), ("0.3", "0.6"),
])
def test_swap_post_state_is_null_exactly_when_the_probability_is_zero(capsys, p, q):
    # and every route agrees, family by family: a dead family's spectrum and entropy are NaN
    outcomes = swap.bbm_outcomes(float(p), float(q))
    dead = [outcome.probability == 0.0 for outcome in outcomes]
    assert [outcome.post_state is None for outcome in outcomes] == dead
    s = swap.swap_spectrum(float(p), float(q))
    assert np.isnan([s.a, s.b, s.c, s.d]).tolist() == dead  # a, b are phi's, c, d psi's
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
    probs = swap.outcome_probabilities(0.1, 0.75)
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
def test_swap_shots_peak_at_one_chunk_and_one_block(p, q):
    # 200003 shots span four chunks, each drawn into the run's one buffer with one
    # scratch block; with the words a second array beside it, a call peaked at 1.05 MB
    argv = ["swap", "--p", p, "--q", q, "--shots", "200003", "--seed", "3"]

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0

    peak = traced_peak(call)
    assert peak <= 8 * experiment.SHOT_CHUNK + 8 * rng._MIX_BLOCK + 16384, peak


def _swap_argv(p, q, shots, seed):
    argv = ["swap", "--p", repr(p), "--q", repr(q), "--seed", str(seed)]
    return argv if shots is None else argv + ["--shots", str(shots)]


# weights where a branch dies or a probability underflows, next to any weight in [0, 1]
swap_weights = st.sampled_from([0.0, -0.0, 1.0, 0.5, 5e-324, 1e-300]) | st.floats(0.0, 1.0)


def _at_every_document_shape(test):
    """Examples of every `swap` document shape, with and without shots.

    All branches live, the phi pair dead, the psi pair dead, the two golden
    documents, then two weights where the phi pair's probability 0.5 * n2
    underflows to 0.0 though n2 does not.
    """
    for p, q in [(0.3, 0.6), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0), (0.5, 0.5), (1.0, 5e-324), (5e-324, 1.0)]:
        for shots in (None, 1000):
            test = example(p=p, q=q, shots=shots, seed=3)(test)
    return test


@_at_every_document_shape
# run_main reads capsys empty on every call, so one fixture serves every example
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
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


@pytest.mark.parametrize("shots", [[], ["--shots", "1000"]])
@pytest.mark.parametrize("p, q", [("-0", "0.5"), ("0.5", "-0"), ("-0", "-0.0"), ("1", "-0")])
def test_swap_reads_a_negative_zero_weight_as_zero(capsys, p, q, shots):
    signed = run_main(capsys, ["swap", "--p", p, "--q", q, *shots])
    unsigned = run_main(capsys, ["swap", "--p", p.lstrip("-"), "--q", q.lstrip("-"), *shots])
    assert signed == unsigned and signed[0] == 0


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
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


def test_swap_writes_nan_and_infinity_as_json_does(capsys, monkeypatch):
    # the CLI and the reference builder both report through the population report
    real_report = measures._diagonal_report

    def poisoned(populations):
        rep = real_report(populations)
        return dataclasses.replace(rep, s_vn=np.full_like(rep.s_vn, np.nan), p_vn=np.full_like(rep.p_vn, -np.inf))

    monkeypatch.setattr(measures, "_diagonal_report", poisoned)
    for p, q, shots, seed in ((0.3, 0.6, None, 7), (1.0, 0.0, 10, 5)):
        code, out, _ = run_main(capsys, _swap_argv(p, q, shots, seed))
        assert (code, out) == (0, oracles.swap_document(p, q, shots, seed))
        assert '"svn_pair_p": NaN,' in out and '"pvn_full": -Infinity,' in out


def test_swap_templates_are_one_per_document_shape(capsys):
    weights = ("0", "1", "0.5", "0.3", "5e-324", "1e-300")
    for p in weights:
        for q in weights:
            for extra in ([], ["--shots", "5"]):
                assert run_main(capsys, ["swap", "--p", p, "--q", q, *extra])[0] == 0
    # all four branches live, the phi pair dead or the psi pair dead; with and without shots
    assert cli._swap_template.cache_info().currsize <= 6


def test_swap_bad_weight_exits_2(capsys):
    for argv in (
        ["swap", "--p", "1.5", "--q", "0.5"],
        ["swap", "--p", "0.5", "--q", "-0.1"],
        ["swap", "--p", "0.5", "--q", "nope"],
        ["swap", "--p", "0.5", "--q", "0.5", "--shots", "0"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


@pytest.mark.parametrize("command", [["verify", "--trials", "3"], ["swap", "--p", "0.5", "--q", "0.5", "--shots", "3"]],
                         ids=["verify", "swap"])
def test_a_seed_outside_64_bits_exits_2(capsys, command):
    # the stream reads a seed modulo 2^64, so -1 and 2^64 - 1 would draw the same
    # states yet print different "seed" fields; the parser takes [0, 2^64) only
    for seed in (-1, 2**64, -(2**64 - 1), 2**70):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--seed", str(seed)])
        assert exc.value.code == 2
        assert "argument --seed: value must be" in capsys.readouterr().err
    for seed in (0, 2**64 - 1):
        code, out, _ = run_main(capsys, [*command, "--seed", str(seed)])
        assert code == 0
        assert f'"seed": {seed}' in out


@pytest.mark.parametrize("command", [["figures", "--which", "2a", "--grid", "3"], ["verify", "--trials", "3"],
                                     ["swap", "--p", "0.5", "--q", "0.5"]], ids=["figures", "verify", "swap"])
def test_an_empty_out_exits_2(capsys, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*command, "--out", ""])
    assert exc.value.code == 2
    assert "argument --out: the output path must not be empty" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "entswap", "figures", "--which", "2a", "--grid", "3"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "q,pr_phi,pr_psi,pl_initial"


def test_main_reuses_one_parser_and_matches_a_fresh_one(capsys):
    def call(argv, parse):
        try:
            code = parse(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr()

    def fresh(argv):
        args = cli.build_parser.__wrapped__().parse_args(argv)
        return args.func(args)

    argvs = (
        ["swap", "--p", "0.5", "--q", "nope"],
        ["figures", "--which", "2a", "--grid", "5"],
        ["swap", "--p", "0.1", "--q", "0.75", "--shots", "100"],
    )
    reused = [call(argv, main) for argv in argvs]
    assert cli.build_parser() is cli.build_parser()
    assert [code for code, _ in reused] == [2, 0, 0]
    assert "'nope' is not a number in [0, 1]" in reused[0][1].err
    assert reused == [call(argv, fresh) for argv in argvs]
