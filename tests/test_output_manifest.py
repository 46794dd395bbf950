import json

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
