"""Smoke test of tools/output_digests.py, the byte-identity check of the CLI's outputs."""

import hashlib
import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_forward_digests_match_its_manifest(tmp_path):
    lines = load_tool().digest_lines(["forward"], ["example41"], tmp_path)
    out = tmp_path / "forward-example41"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["output_dir"] == "forward-example41"
    digests = dict(manifest["outputs"])
    digests["manifest.json"] = hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest()
    assert lines == sorted(f"forward example41 0 {name} {digest}" for name, digest in digests.items())


def test_a_run_without_outputs_prints_its_exit_code(tmp_path):
    # example41 sets no sweep values, so its sweep is a config error
    assert load_tool().digest_lines(["sweep"], ["example41"], tmp_path) == ["sweep example41 2 - -"]
