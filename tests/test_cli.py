import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from entswap import cli, measures, states, swap
from entswap.cli import main
from entswap.linalg import DensityMatrix


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
    code, out, _ = run_main(capsys, ["figures", "--which", "1a", "--grid", "21"])
    assert code == 0
    for line in out.splitlines()[1:]:
        cells = [float(cell) for cell in line.split(",")]
        p = cells[0]
        for q, value in zip(cli.FIGURE_Q_SET, cells[1:]):
            assert value == swap.post_entropies(p, q)[0]


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


_ROW_BLOCKS = st.integers(4, 6).flatmap(
    lambda k: st.lists(
        st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=k, max_size=k), max_size=20
    ).map(lambda rows: np.array(rows, dtype=float).reshape(-1, k))
)


@settings(max_examples=300, deadline=None)
@given(_ROW_BLOCKS)
def test_csv_lines_match_the_per_cell_formatter(rows):
    assert cli._csv_lines(rows) == oracles.csv_lines_per_cell(rows)


def test_csv_lines_match_the_per_cell_formatter_on_edge_cells():
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0 - 2.0**-53,
             1e16, 1e17, 0.1, math.nan, math.inf, -math.inf]
    for k in (4, 5, 6):
        rows = np.resize(np.array(edges), (len(edges), k))
        assert cli._csv_lines(rows) == oracles.csv_lines_per_cell(rows)
    for k in (4, 6):
        assert cli._csv_lines(np.empty((0, k))) == oracles.csv_lines_per_cell(np.empty((0, k))) == ""


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
    assert "cannot write" in capsys.readouterr().err


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
    real_report = measures.report

    def poisoned(rho):
        rep = real_report(rho)
        values = getattr(rep, field).copy()
        values[len(values) // 2] = np.nan
        return dataclasses.replace(rep, **{field: values})

    monkeypatch.setattr(measures, "report", poisoned)
    code, out, _ = run_main(capsys, ["verify", "--trials", str(cli.VERIFY_CHUNK + 5)])
    assert code == 1
    assert json.loads(out)["pass"] is False


@pytest.mark.xfail(strict=True, reason=(
    "vn_sum is log2 d for any spectrum and l_sum is (d-1)/d for any Hermitian rho, "
    "so verify checks only rounding and cannot see a broken eigensolver"))
def test_verify_fails_on_an_eigensolver_that_ignores_coherences(capsys, monkeypatch):
    def sorted_diagonal(m):
        return np.sort(np.diagonal(np.asarray(m), axis1=-2, axis2=-1).real, axis=-1)

    monkeypatch.setattr(measures, "hermitian_eigenvalues", sorted_diagonal)
    code, _, _ = run_main(capsys, ["verify", "--trials", "2000", "--dims", "3,2"])
    assert code == 1


def test_verify_chunks_match_the_states_one_at_a_time(capsys, monkeypatch):
    chunk = cli.VERIFY_CHUNK
    da, db, seed = 3, 2, 5
    last = 2 * chunk + 7
    # reference: one N = 1 report per state, state by state
    ref_rho, ref_vn, ref_l = [], [], []
    for row in states.haar_states(da, db, seed, last):
        psi = row.reshape(da, db)
        rho = np.einsum("ab,cb->ac", psi, psi.conj())
        rep = measures.report(DensityMatrix(rho, (da,)))
        ref_rho.append(rho)
        ref_vn.append(abs(rep.vn_sum - math.log2(da)))
        ref_l.append(abs(rep.l_sum - (da - 1) / da))

    real_report = measures.report
    seen = []

    def spy(rho):
        rep = real_report(rho)
        seen.append((rho, rep))
        return rep

    monkeypatch.setattr(measures, "report", spy)
    for trials in (chunk - 1, chunk + 1, last):
        seen.clear()
        argv = ["verify", "--trials", str(trials), "--dims", f"{da},{db}", "--seed", str(seed)]
        code, out, _ = run_main(capsys, argv)
        doc = json.loads(out)
        assert code == 0
        sizes = [len(rho) for rho, _ in seen]
        assert max(sizes) <= chunk and sum(sizes) == trials
        assert np.array_equal(np.concatenate([rho for rho, _ in seen]), ref_rho[:trials])
        vn = np.abs(np.concatenate([rep.vn_sum for _, rep in seen]) - math.log2(da))
        lin = np.abs(np.concatenate([rep.l_sum for _, rep in seen]) - (da - 1) / da)
        assert np.array_equal(vn, ref_vn[:trials])
        assert np.array_equal(lin, ref_l[:trials])
        assert doc["max_vn_residual"] == max(ref_vn[:trials])
        assert doc["max_linear_residual"] == max(ref_l[:trials])


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
    for outcome in swap.bbm_outcomes(float(p), float(q)):
        assert (outcome.post_state is None) == (outcome.probability == 0.0)
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
    "svn_pair_p_full": 0.9999999999999999,
    "svn_pair_q": 1.0,
    "svn_pair_q_full": 0.9999999999999999
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


def test_figures_and_swap_bytes_match_an_eigvalsh_spectrum(capsys, monkeypatch):
    # every rho_A that figures and swap reduce is diagonal, where the closed
    # 2x2 spectrum is the sorted diagonal exactly, as LAPACK's is; both runs
    # take the same log2, so the bytes agree on every numpy
    weights = ("0", "1", "0.5", "0.3", "5e-324")
    argvs = [["figures", "--which", which, "--grid", str(grid)]
             for which in ("1a", "1b", "2a", "2b") for grid in (11, 1001)]
    argvs += [["swap", "--p", p, "--q", q] for p in weights for q in weights]

    def outputs():
        return [run_main(capsys, argv)[:2] for argv in argvs]

    closed_form = outputs()
    monkeypatch.setattr(measures, "hermitian_eigenvalues", oracles.eigvalsh_eigenvalues)
    assert outputs() == closed_form


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
