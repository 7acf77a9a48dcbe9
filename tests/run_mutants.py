"""Apply each mutant of tests/mutants.json to a temporary copy and run its test.

    python tests/run_mutants.py [name ...]

A mutant is killed when its named test fails on the mutated copy (pytest exit
status 1); a pass, or a run that cannot collect the test, counts as survived.
Prints one line per mutant and exits 1 if any survived.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_mutant(mutant: dict) -> bool:
    with tempfile.TemporaryDirectory(prefix="ckdv_mutant_") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "configs", "pyproject.toml"):
            (shutil.copytree if (ROOT / part).is_dir() else shutil.copy)(ROOT / part, copy / part)
        target = copy / mutant["file"]
        text = target.read_text()
        if text.count(mutant["snippet"]) != 1:
            raise SystemExit(f"{mutant['name']}: snippet does not occur exactly once in {mutant['file']}")
        target.write_text(text.replace(mutant["snippet"], mutant["replacement"]))
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", mutant["test"]],
            cwd=copy, env=env, capture_output=True, text=True,
        )
        return out.returncode == 1


def main(names: list[str]) -> int:
    mutants = json.loads((ROOT / "tests" / "mutants.json").read_text())
    unknown = set(names) - {m["name"] for m in mutants}
    if unknown:
        raise SystemExit(f"unknown mutants {sorted(unknown)}")
    survived = 0
    for mutant in mutants:
        if names and mutant["name"] not in names:
            continue
        killed = run_mutant(mutant)
        survived += not killed
        print(f"{mutant['name']}: {'killed' if killed else 'SURVIVED'} by {mutant['test']}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
