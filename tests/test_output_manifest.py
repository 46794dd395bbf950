import json

import numpy as np
import pytest

import output_manifest


def test_every_manifest_argv_prints_its_recorded_bytes():
    manifest = json.loads(output_manifest.MANIFEST.read_text())
    if manifest["build"] != output_manifest.build():
        pytest.skip(f"the manifest pins the bytes of {manifest['build']}, not of {output_manifest.build()}; "
                    "on this one the entropies are held to a 60-digit reference by "
                    "tests/test_measures.py::test_closed_form_entropies_are_within_2_ulp_of_a_60_digit_reference")
    recorded = manifest["stdout_sha256"]
    assert list(recorded) == [" ".join(argv) for argv in output_manifest.ARGVS]
    moved = output_manifest.moved(recorded, output_manifest.hashes())
    assert not moved, "stdout moved for: " + "; ".join(moved)


# the functions whose bits a build's libm or BLAS may set; a portable argv calls none
BUILD_DEPENDENT = [(np, name) for name in ("log2", "log1p", "log", "cos", "sin", "exp", "exp2", "power")]
BUILD_DEPENDENT += [(np.linalg, "eigvalsh")]


def _refuse_build_dependent(monkeypatch):
    def build_dependent(*args, **kwargs):
        raise AssertionError("a portable output called a build-dependent function")

    for module, name in BUILD_DEPENDENT:
        monkeypatch.setattr(module, name, build_dependent)


def test_portable_argvs_print_their_recorded_bytes_on_every_build(monkeypatch):
    _refuse_build_dependent(monkeypatch)
    grids = ("2", "342", "1001", "4097")
    assert [argv[3:] for argv in output_manifest.PORTABLE] == [["--grid", grid] for grid in grids]
    recorded = json.loads(output_manifest.MANIFEST.read_text())["stdout_sha256"]
    for argv in output_manifest.PORTABLE:
        assert output_manifest.stdout_sha256(argv) == recorded[" ".join(argv)], argv


def test_portable_swap_parts_hold_their_recorded_hashes_on_every_build(monkeypatch):
    _refuse_build_dependent(monkeypatch)
    with pytest.raises(AssertionError):
        output_manifest.stdout_sha256(output_manifest.swap_argv(0.3, 0.6, None))  # the entropies read log2
    recorded = json.loads(output_manifest.MANIFEST.read_text())["portable_swap_sha256"]
    assert recorded == output_manifest.portable_swap_hashes()


@pytest.mark.parametrize("run", output_manifest.SWAP_RUNS, ids=lambda run: " ".join(output_manifest.swap_argv(*run)))
def test_portable_swap_parts_are_the_printed_documents_less_their_entropies(run):
    printed = output_manifest.stdout(output_manifest.swap_argv(*run))
    assert output_manifest.portable_part(printed) == output_manifest.portable_swap(*run)


def test_regenerate_lists_the_moved_keys_of_both_sections(monkeypatch, tmp_path, capsys):
    manifest = tmp_path / "output_manifest.json"
    manifest.write_text(json.dumps({"build": output_manifest.build(),
                                    "stdout_sha256": {"a": "1", "b": "2"},
                                    "portable_swap_sha256": {"c": "3", "d": "4"}}))
    monkeypatch.setattr(output_manifest, "MANIFEST", manifest)
    monkeypatch.setattr(output_manifest, "hashes", lambda: {"a": "1", "b": "5"})
    monkeypatch.setattr(output_manifest, "portable_swap_hashes", lambda: {"c": "6", "d": "4", "e": "7"})
    assert output_manifest.regenerate() == 0
    assert capsys.readouterr().out.splitlines() == [
        "stdout_sha256: moved: b", "portable_swap_sha256: moved: c", "portable_swap_sha256: new: e"]
    written = json.loads(manifest.read_text())
    assert written["stdout_sha256"] == {"a": "1", "b": "5"}
    assert written["portable_swap_sha256"] == {"c": "6", "d": "4", "e": "7"}
