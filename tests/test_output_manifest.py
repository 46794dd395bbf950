import json

import numpy as np
import pytest

import output_manifest


def test_every_manifest_argv_prints_its_recorded_bytes():
    manifest = json.loads(output_manifest.MANIFEST.read_text())
    if manifest["build"] != output_manifest.build():
        pytest.skip(f"the manifest pins the bytes of {manifest['build']}, not of {output_manifest.build()}; "
                    "on this one the check that applies is an accuracy contract against an exact reference (ROADMAP.md)")
    recorded = manifest["stdout_sha256"]
    assert list(recorded) == [" ".join(argv) for argv in output_manifest.ARGVS]
    moved = output_manifest.moved(recorded, output_manifest.hashes())
    assert not moved, "stdout moved for: " + "; ".join(moved)


# the functions whose bits a build's libm or BLAS may set; a portable argv calls none
BUILD_DEPENDENT = [(np, name) for name in ("log2", "log1p", "log", "cos", "sin", "exp", "exp2", "power")]
BUILD_DEPENDENT += [(np.linalg, "eigvalsh")]


def test_portable_argvs_print_their_recorded_bytes_on_every_build(monkeypatch):
    def build_dependent(*args, **kwargs):
        raise AssertionError("a portable argv called a build-dependent function")

    for module, name in BUILD_DEPENDENT:
        monkeypatch.setattr(module, name, build_dependent)
    grids = ("2", "342", "1001", "4097")
    assert [argv[3:] for argv in output_manifest.PORTABLE] == [["--grid", grid] for grid in grids]
    recorded = json.loads(output_manifest.MANIFEST.read_text())["stdout_sha256"]
    for argv in output_manifest.PORTABLE:
        assert output_manifest.stdout_sha256(argv) == recorded[" ".join(argv)], argv
