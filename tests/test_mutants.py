"""The mutation checks, kept as data in mutants.json, still apply to the code.

Each mutant replaces one exact snippet of one file, names the test that must
fail under it, and lists the harness.BOUNDS keys whose checks that test shows
failing. run_mutants.py applies each to a temporary copy and runs that test;
this module only checks that the data still fits the tree."""

import ast
import json
from pathlib import Path

import pytest

from ckdv import harness

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = json.loads((ROOT / "tests" / "mutants.json").read_text())


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["name"] for m in MUTANTS])
def test_mutant_snippet_occurs_once_and_its_test_exists(mutant):
    assert (ROOT / mutant["file"]).read_text().count(mutant["snippet"]) == 1
    assert mutant["replacement"] != mutant["snippet"]
    path, name = mutant["test"].split("::")
    tree = ast.parse((ROOT / path).read_text())
    assert name in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


# BOUNDS keys that no mutant's test shows failing, and why
UNMUTATED = {
    "growth_exponent": "c09's > 0 bound is met by a degenerate construction: the natural mutant, divergent norms "
    "that read a1's centre, fits a slope of 0.00091 on the shipped radii and passes",
}


def test_every_bound_is_named_by_a_mutant_or_excused():
    named = {key for mutant in MUTANTS for key in mutant["bounds"]}
    assert named.isdisjoint(UNMUTATED)
    assert named | set(UNMUTATED) == set(harness.BOUNDS)


def test_every_bound_is_checked_by_a_shipped_run(shipped_run):
    # run checks only the summary keys that BOUNDS names, so a key no runner reports would check nothing.
    # test_harness runs every shipped config earlier in the session, so this reads cached runs
    names = {c["name"] for path in sorted((ROOT / "configs").glob("*.json")) for c in shipped_run(path.stem)[0].checks}
    unchecked = [key for key in harness.BOUNDS if key not in names and not any(n.startswith(f"{key}[") for n in names)]
    assert unchecked == []
