import ast
import collections
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entswap
from entswap import (
    DensityMatrix, NonHermitianError, PureState, RunConfig, bbm_outcomes, haar_states, hermitian_eigenvalues,
    partial_trace, post_entropies, predictability_probability, report, rng, run_ensemble, schmidt_pair,
    special_case_probs, svn,
)

DOCUMENTED_NAMES = {
    "BBMOutcome", "BELL_LABELS", "DensityMatrix", "EnsembleResult", "MeasureReport",
    "NonHermitianError", "PureState", "RunConfig", "bbm_outcomes", "haar_states",
    "hermitian_eigenvalues", "partial_trace", "post_entropies", "predictability_probability",
    "report", "run_ensemble", "schmidt_pair", "special_case_probs", "svn",
}

LAYERS_FILE = Path(__file__).resolve().parents[1] / "benchmarks" / "layers.py"
TESTS = Path(__file__).resolve().parent


def _with(a: np.ndarray, index, value) -> np.ndarray:
    """A copy of `a` with one entry set."""
    a = a.copy()
    a[index] = value
    return a


def _random_density(seed: int) -> DensityMatrix:
    """A random two-qubit density matrix x x^H / Tr(x x^H), x with standard normal parts."""
    real, imag = np.random.default_rng(seed).normal(size=(2, 4, 4))
    x = real + 1j * imag
    m = x @ x.conj().T
    return DensityMatrix(m / m.trace(), (2, 2))


_HALF = np.eye(2, dtype=complex) / 2
_RHO = _random_density(7)
_STACK = np.stack([_HALF] * 3)
# Hermitian with unit trace, so the construction checks pass: a negative population, and a
# nonnegative diagonal under an eigenvalue of -0.1
_NEGATIVE = [np.diag([-0.1, 1.1]).astype(complex), np.array([[0.5, 0.6], [0.6, 0.5]], dtype=complex)]
_HAAR_ARGS = (2, 2, 7, 3, 0)

# Every input the library refuses at its boundary: (callee, args, exception type, the code's own
# message fragment). Non-finite entries are refused without a RuntimeWarning, and integers are
# never truncated or parsed.
REFUSALS = [
    (DensityMatrix, (np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex), (2,)), NonHermitianError,
     "matrix is not Hermitian within 1e-12"),
    (DensityMatrix, (np.eye(2, dtype=complex), (2,)), ValueError, "every trace must be 1 within 1e-12"),
    *[(DensityMatrix, (np.array(m), (2,)), ValueError, "matrix has non-finite entries")
      for m in ([[np.nan, 0.0], [0.0, 0.5]], [[0.5, np.inf], [np.inf, 0.5]], [[np.inf, 0], [0, -np.inf]])],
    (DensityMatrix, (_HALF, (3,)), ValueError, "subsystem dims (3,) do not factor dimension 2"),
    # a DensityMatrix and a PureState of the same size are refused by the same check, in the same words
    *[(callee, (data, dims), ValueError, f"subsystem dims {dims} do not factor dimension 4")
      for dims in ((), (3,), (2, 3), (4, 0), (-2, -2), (1, 2, 3))
      for callee, data in ((DensityMatrix, np.eye(4, dtype=complex) / 4), (PureState, np.array([1.0, 0.0, 0.0, 0.0])))],
    (DensityMatrix, (_HALF, (2.9,)), ValueError, "a subsystem dim must be an integer, got 2.9"),
    (PureState, ([1, 0, 0, 0], (2.5, "2")), ValueError, "a subsystem dim must be an integer, got 2.5"),
    (PureState, ([1, 0, 0, 0], (2, "2")), ValueError, "a subsystem dim must be an integer, got '2'"),
    (DensityMatrix, (_HALF, 2), ValueError, "dims must be a sequence of integers, got 2"),
    (PureState, ([1, 0], 2), ValueError, "dims must be a sequence of integers, got 2"),
    (PureState, (np.array([1.0, 1.0]), (2,)), ValueError, "differs from 1 beyond 1e-12"),
    *[(PureState, (amps, (2, 2)), ValueError, "amplitudes have non-finite entries")
      for amps in ([np.nan, 0, 0, 1], [np.inf, 0, 0, 1], [0, 1j * np.inf, 0, 0])],
    # the norm overflows to inf; the entries are finite, so this is an unnormalized state
    *[(PureState, (np.array(amps), (2,)), ValueError, "state norm inf differs from 1")
      for amps in ([1e200, 1e200], [1e200j, 0.0], [1.7e308, 1.7e308])],
    (PureState, (np.array([1.0, 0.0]), (3,)), ValueError, "subsystem dims (3,) do not factor dimension 2"),
    (partial_trace, (_RHO, {2}), ValueError, "keep indices [2] out of range for 2 subsystems"),
    (partial_trace, (_RHO, {-1}), ValueError, "keep indices [-1] out of range for 2 subsystems"),
    (partial_trace, (_RHO, set()), ValueError, "keep must name at least one subsystem"),
    (partial_trace, (_RHO, 0), ValueError, "keep must be a collection of subsystem indices, got 0"),
    (partial_trace, (_RHO, [0.9]), ValueError, "a keep index must be an integer, got 0.9"),
    (partial_trace, (_RHO, ["1"]), ValueError, "a keep index must be an integer, got '1'"),
    (hermitian_eigenvalues, (np.array([[0.0, 1.0], [0.0, 0.0]]),), NonHermitianError, "not Hermitian within 1e-12"),
    (hermitian_eigenvalues, (np.zeros((2, 3)),), ValueError, "expected a square matrix with ndim in (2, 3)"),
    *[(hermitian_eigenvalues, (m,), ValueError, "matrix has non-finite entries") for bad in (np.nan, np.inf)
      for m in (np.array([[bad, 0.0], [0.0, 0.5]]), np.stack([np.eye(2), np.array([[0.5, bad], [bad, 0.5]])]))],
    (report, (_STACK[0],), ValueError, "expected a square matrix with ndim in (3,)"),  # a bare matrix is no stack
    (report, (_STACK * 2.0,), ValueError, "every trace must be 1 within 1e-12"),
    *[(report, (_with(_STACK, entry, bad),), ValueError, "matrix has non-finite entries")
      for entry in ((1, 0, 0), (1, 0, 1)) for bad in (np.nan, np.inf)],
    (report, (_with(_STACK, (1, 1, 0), 0.25),), NonHermitianError, "not Hermitian within 1e-12"),
    *[(report, (rho,), ValueError, "below -1e-10; not a density matrix")
      for m in _NEGATIVE for rho in (DensityMatrix(m, (2,)), m[None], np.stack([_HALF, m]))],
    (svn, (_HALF,), ValueError, "expected a square matrix with ndim in (3,)"),
    *[(schmidt_pair, (bad,), ValueError, "w must lie in [0, 1]") for bad in (-0.1, 1.1, float("nan"))],
    *[(schmidt_pair, (bad,), ValueError, "w must be one number")
      for bad in (np.array([0.3, 0.4]), [0.5], np.array([[0.5]]))],
    (haar_states, (2, 2, 7, 3, -1), ValueError, "start must be >= 0, got -1"),
    (haar_states, (2, 2, 7, 3, 1.9), ValueError, "start must be an integer, got 1.9"),
    (haar_states, (2, 2, 2.5, 3), ValueError, "seed must be an integer, got 2.5"),
    (haar_states, (0, 2, 7, 3), ValueError, "dim_a must be >= 1, got 0"),
    (haar_states, (2, 0, 7, 3), ValueError, "dim_b must be >= 1, got 0"),
    (haar_states, (2, 2, 7, -1), ValueError, "count must be >= 0, got -1"),
    *[(haar_states, _HAAR_ARGS[:k] + (bad,) + _HAAR_ARGS[k + 1:], ValueError,
       f"{name} must be an integer, got {bad!r}")
      for k, name in enumerate(("dim_a", "dim_b", "seed", "count", "start")) for bad in (True, 2.0, "2")],
    (rng.categorical, (np.array([0.5]), np.array([0.7, 0.6])), ValueError,
     "probabilities sum to 1.2999999999999998, not 1"),
    *[(rng.categorical, (np.array([0.5]), np.array(bad)), ValueError, "probs must be a nonempty nonnegative vector")
      for bad in ([-0.1, 1.1], [])],
    # every comparison with NaN is False, so each check must be one that NaN fails
    *[(callee, args, ValueError, fragment)
      for bad, fragment in (([np.nan, 0.5, 0.5], "nonnegative vector"), ([0.5, 0.5, np.nan], "nonnegative vector"),
                            ([np.inf, 0.0, 0.0], "sum to inf, not 1"), ([0.5, 0.5, np.inf], "sum to inf, not 1"),
                            ([-np.inf, 0.5, 0.5], "nonnegative vector"))
      for callee, args in ((rng.categorical, (np.array([0.1, 0.6, 0.99]), np.array(bad))), (rng._boundaries, (bad,)))],
    (RunConfig, (-0.1, 0.5, 10, 0), ValueError, "p must lie in [0, 1]"),
    (RunConfig, (0.5, 1.2, 10, 0), ValueError, "q must lie in [0, 1]"),
    (RunConfig, (0.5, 0.5, 0, 0), ValueError, "shots must be >= 1, got 0"),
    *[(RunConfig, (0.5, 0.5, shots, seed), ValueError, f"{name} must be an integer, got {value!r}")
      for shots, seed, name in ((2.7, 1, "shots"), (2, 1.9, "seed"), (True, 0, "shots"), (1, False, "seed"),
                                (1, "3", "seed"), ("3", 1, "shots"), (1, float("inf"), "seed"),
                                (1, float("nan"), "seed"), (np.float64(2.0), 1, "shots"))
      for value in [shots if name == "shots" else seed]],
    (RunConfig, (np.array([0.3, 0.4]), 0.5, 10, 1), ValueError, "p must be one number, got shape (2,)"),
    *[(RunConfig, (p, q, 10, 1), ValueError, f"{name} must be one number")
      for p, q, name in ((0.5, [0.2], "q"), (np.zeros((1, 1)), 0.5, "p"), (0.5, np.array([]), "q"))],
    (bbm_outcomes, (-0.1, 0.5), ValueError, "p must lie in [0, 1]"),
    (post_entropies, (0.5, 1.5), ValueError, "q must lie in [0, 1]"),
    (special_case_probs, (2.0,), ValueError, "q must lie in [0, 1]"),
    (predictability_probability, (-1.0,), ValueError, "q must lie in [0, 1]"),
    # bbm_outcomes takes one number per weight, and names the weight that is not
    *[(bbm_outcomes, args, ValueError, f"{name} must be one number")
      for bad in (np.array([0.3, 0.4]), [0.5], np.array([[0.5]]))
      for name, args in (("p", (bad, 0.5)), ("q", (0.5, bad)))],
    # the array forms refuse an array with one bad weight
    *[(callee, args, ValueError, f"{name} must lie in [0, 1]")
      for bad in (np.nan, -0.1, 1.5) for weights in [np.array([0.2, bad, 0.7])]
      for callee, args, name in ((post_entropies, (weights, 0.3), "p"), (post_entropies, (0.5, weights), "q"),
                                 (special_case_probs, (weights,), "q"), (predictability_probability, (weights,), "q"))],
]

# the public names that check nothing of their own: records, the labels, an error type, and
# `run_ensemble`, which reads the `RunConfig` it is given
CHECK_NOTHING = ("BBMOutcome", "BELL_LABELS", "EnsembleResult", "MeasureReport", "NonHermitianError", "run_ensemble")


@pytest.mark.parametrize("callee, args, error, fragment", REFUSALS,
                         ids=[f"{row[0].__name__}-{k}" for k, row in enumerate(REFUSALS)])
def test_each_refusal_raises_its_type_with_its_message(callee, args, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)) as refused:
        callee(*args)
    assert refused.type is error


def test_every_public_name_has_a_refusal_or_checks_nothing():
    callees = {row[0] for row in REFUSALS}
    refused = {name for name in entswap.__all__ if getattr(entswap, name) in callees}
    assert sorted(set(entswap.__all__) - refused) == sorted(CHECK_NOTHING)


def test_the_ends_of_the_accepted_inputs_are_taken():
    # a 0-d array is one number, kept as a float where a constructor stores it
    assert np.array_equal(schmidt_pair(np.array(0.3)).amplitudes, schmidt_pair(0.3).amplitudes)
    for a, b in zip(bbm_outcomes(np.array(0.3), np.array(0.6)), bbm_outcomes(0.3, 0.6)):
        assert a.probability == b.probability and np.array_equal(a.post_state.amplitudes, b.post_state.amplitudes)
    cfg = RunConfig(p=np.array(0.25), q=0.5, shots=10, seed=1)
    assert (cfg.p, cfg.q) == (0.25, 0.5) and type(cfg.p) is float and type(cfg.q) is float
    result = run_ensemble(cfg)
    assert result == run_ensemble(RunConfig(p=0.25, q=0.5, shots=10, seed=1))
    assert all(type(value) is np.float64 for value in result.analytic_prob.values())
    # a numpy integer is an integer, kept as an int, and a seed is read mod 2**64
    cfg = RunConfig(p=0.5, q=0.5, shots=np.int32(3), seed=np.uint64((1 << 64) - 1))
    assert (cfg.shots, cfg.seed) == (3, (1 << 64) - 1)
    assert type(cfg.shots) is int and type(cfg.seed) is int
    assert RunConfig(p=0.5, q=0.5, shots=1, seed=(1 << 64) + 5).seed == 5
    assert RunConfig(p=0.5, q=0.5, shots=1, seed=-1).seed == (1 << 64) - 1
    assert np.array_equal(haar_states(2, 2, -1, 3), haar_states(2, 2, (1 << 64) - 1, 3))
    numpy_args = (np.int64(2), np.int32(2), np.uint64(7), np.int8(3), np.int64(1))
    assert np.array_equal(haar_states(*numpy_args), haar_states(2, 2, 7, 3, 1))
    assert haar_states(1, 1, 7, 0).shape == (0, 1)
    rho = DensityMatrix(np.eye(4) / 4, (np.int64(2), 2))
    assert rho.dims == (2, 2) and all(type(d) is int for d in rho.dims)
    assert partial_trace(rho, [np.int64(1)]).dims == (2,)


def test_package_exports_exactly_the_documented_names():
    assert len(entswap.__all__) == len(set(entswap.__all__)) == 19
    assert set(entswap.__all__) == DOCUMENTED_NAMES
    for name in entswap.__all__:
        assert hasattr(entswap, name), name


def test_every_benchmarked_layer_name_resolves():
    # read the literal LAYERS table from the benchmark's tracer without running it
    tree = ast.parse(LAYERS_FILE.read_text())
    (layers,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]
    ]
    for module_name, names in layers.items():
        module = importlib.import_module(f"entswap.{module_name}")
        for name in names:
            assert name in vars(module), f"{module_name}.{name}"


def test_no_test_module_defines_a_name_twice():
    # a second `def test_x` replaces the first without a word, and pytest collects only the second
    repeated = []
    for path in sorted(TESTS.glob("*.py")):
        names = collections.Counter(node.name for node in ast.parse(path.read_text()).body
                                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
        repeated += [f"{path.name}:{name}" for name, count in names.items() if count > 1]
    assert not repeated, repeated


# The fixed points by module: each test of an acceptance criterion, a paper claim, the swap
# goldens, the output manifest and the README, and each byte-parity and chunk-invariance check
# that README promises, with the table its parametrize reads or the strict xfail it carries. A
# test leaves this list only on purpose.
FIXED_POINTS = {
    "test_acceptance.py": dict.fromkeys([
        "test_criterion_1_worked_example_goldens", "test_criterion_2_special_case_goldens",
        "test_criterion_3_probability_predictability_identity", "test_criterion_4_complementarity_sums_on_random_states",
        "test_criterion_5_projector_oracle_equivalence", "test_criterion_6_entropy_stationarity",
        "test_criterion_7_triality_through_the_protocol", "test_criterion_8_monte_carlo_consistency",
        "test_criterion_9_figure_2a_ordering"]),
    "test_paper_claims.py": dict.fromkeys([
        "test_predictability_is_consumed_where_entanglement_increases",
        "test_triality_holds_before_and_after_the_measurement_along_figure_2b"]),
    "test_cli.py": {
        "test_swap_document_bytes_are_pinned": None,
        **dict.fromkeys([
            "test_csv_lines_match_the_per_cell_formatter", "test_csv_lines_match_the_per_cell_formatter_on_edge_cells",
            "test_csv_lines_match_the_per_cell_formatter_on_digit_patterns",
            "test_csv_lines_round_exact_ties_half_to_even", "test_csv_lines_match_around_powers_of_ten",
            "test_csv_lines_match_on_seeded_values_across_the_fast_decades",
            "test_figures_bytes_match_the_per_cell_formatter_across_chunks",
            "test_figures_chunks_give_the_unchunked_bytes", "test_swap_bytes_match_the_reference_builder"]),
        "test_verify_gives_the_same_bytes_at_any_chunk_size": "BYTE_CHECK_DIMS",
        "test_swap_shots_give_the_same_bytes_at_any_mix_block": "SHOT_PAIRS",
        "test_a_usage_error_exits_2_and_writes_nothing": "USAGE_ERRORS",
        "test_an_out_that_cannot_be_written_exits_3": "OUT_ERRORS",
        "test_verify_fails_on_an_eigensolver_that_ignores_coherences": "strict xfail",
    },
    "test_output_manifest.py": dict.fromkeys([
        "test_every_manifest_argv_prints_its_recorded_bytes",
        "test_portable_argvs_print_their_recorded_bytes_on_every_build",
        "test_portable_swap_parts_hold_their_recorded_hashes_on_every_build",
        "test_portable_swap_parts_are_the_printed_documents_less_their_entropies",
        "test_regenerate_lists_the_moved_keys_of_both_sections"]),
    "test_readme.py": dict.fromkeys([
        "test_readme_figure_2a_example_is_the_cli_output", "test_readme_documents_are_the_cli_output",
        "test_readme_gives_the_suite_size", "test_readme_names_only_code_that_exists"]),
    "test_package.py": {"test_each_refusal_raises_its_type_with_its_message": "REFUSALS"},
}


def _marks(node) -> set[str]:
    """The tables a test's parametrize decorators name (`oracles.X` as X), and "strict xfail" if it carries one."""
    marks = set()
    for mark in node.decorator_list:
        name = getattr(getattr(mark, "func", None), "attr", None)
        if name == "parametrize":
            marks |= {getattr(arg, "id", getattr(arg, "attr", None)) for arg in mark.args
                      if isinstance(arg, (ast.Name, ast.Attribute))}
        elif name == "xfail" and any(k.arg == "strict" and getattr(k.value, "value", None) is True
                                     for k in mark.keywords):
            marks.add("strict xfail")
    return marks


def test_every_fixed_point_test_is_defined_with_its_table():
    missing = []
    for module, tests in FIXED_POINTS.items():
        defined = {node.name: node for node in ast.parse((TESTS / module).read_text()).body
                   if isinstance(node, ast.FunctionDef)}
        missing += [f"{module}::{name}" for name, mark in tests.items()
                    if name not in defined or (mark is not None and mark not in _marks(defined[name]))]
    assert not missing, missing


def _callee(node) -> str | None:
    func = getattr(node, "func", None)
    return getattr(func, "id", getattr(func, "attr", None))


def test_only_the_oracles_probe_memory_or_nest_the_pure_report():
    # the tests' one memory probe is `oracles.peak_bytes`, and their one `_gram_report` over
    # `_plane_gram` is `oracles.pure_report`: a copy of `cmd_verify`'s nesting holds it to nothing
    found = []
    for path in sorted(set(TESTS.glob("*.py")) - {TESTS / "oracles.py"}):
        for node in ast.walk(ast.parse(path.read_text())):
            if "tracemalloc" in (getattr(node, "name", None), getattr(node, "module", None)) or (  # an import
                    _callee(node) == "_gram_report"
                    and any(_callee(getattr(arg, "value", None)) == "_plane_gram" for arg in node.args)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


# what `conftest` registers, read where Hypothesis makes its `ci` profile the active one;
# the first pair is the active profile before `conftest` loads `fixed`
_READ_PROFILES = """
from hypothesis import settings
active = settings()
import conftest
print([(p.derandomize, p.deadline) for p in (active, *map(settings.get_profile, ("fixed", "fresh")))])
"""


def test_both_profiles_read_the_same_with_ci_set():
    proc = subprocess.run([sys.executable, "-c", _READ_PROFILES], cwd=TESTS, env={**os.environ, "CI": "true"},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # `ci` is active (derandomized, no deadline), yet `fresh` draws random examples
    assert proc.stdout == "[(True, None), (True, None), (False, None)]\n"
