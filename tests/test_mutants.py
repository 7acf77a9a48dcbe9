"""The mutation checks, kept as data in mutants.json, still apply to the code.

Each mutant replaces one exact snippet of one file, and names the test that
must fail under it. run_mutants.py applies each to a temporary copy and runs
that test; this module only checks that the data still fits the tree."""

import ast
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = json.loads((ROOT / "tests" / "mutants.json").read_text())


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["name"] for m in MUTANTS])
def test_mutant_snippet_occurs_once_and_its_test_exists(mutant):
    assert (ROOT / mutant["file"]).read_text().count(mutant["snippet"]) == 1
    assert mutant["replacement"] != mutant["snippet"]
    path, name = mutant["test"].split("::")
    tree = ast.parse((ROOT / path).read_text())
    assert name in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}

