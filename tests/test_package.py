import ast
import collections
import importlib
import os
import subprocess
import sys
from pathlib import Path

import entswap

DOCUMENTED_NAMES = {
    "BBMOutcome", "BELL_LABELS", "DensityMatrix", "EnsembleResult", "MeasureReport",
    "NonHermitianError", "PureState", "RunConfig", "bbm_outcomes", "haar_states",
    "hermitian_eigenvalues", "partial_trace", "post_entropies", "predictability_probability",
    "report", "run_ensemble", "schmidt_pair", "special_case_probs", "svn",
}

LAYERS_FILE = Path(__file__).resolve().parents[1] / "benchmarks" / "layers.py"
TESTS = Path(__file__).resolve().parent


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
