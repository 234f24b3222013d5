"""The mutation catalog of ``tools/mutants.py`` still applies to the current source."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "mutants.py"


def _tool():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_mutant_applies_at_exactly_one_place_and_names_existing_tests():
    tool = _tool()
    entries = tool.load_catalog()
    assert entries
    for entry in entries:
        text = (ROOT / entry["file"]).read_text(encoding="utf-8")
        assert text.count(entry["old"]) == 1, entry["name"]
        assert tool.mutate(text, entry) != text, entry["name"]
        assert entry["tests"], entry["name"]
        for node in entry["tests"]:
            path, _, name = node.partition("::")
            assert f"def {name.split('[')[0]}(" in (ROOT / path).read_text(encoding="utf-8"), node
