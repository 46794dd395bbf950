import ast
import importlib
from pathlib import Path

import entswap

DOCUMENTED_NAMES = {
    "BBMOutcome", "BELL_LABELS", "DensityMatrix", "EnsembleResult", "MeasureReport",
    "NonHermitianError", "PureState", "RunConfig", "bbm_outcomes", "haar_states",
    "hermitian_eigenvalues", "partial_trace", "post_entropies", "predictability_probability",
    "report", "run_ensemble", "schmidt_pair", "special_case_probs", "svn",
}

LAYERS_FILE = Path(__file__).resolve().parents[1] / "benchmarks" / "layers.py"


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
