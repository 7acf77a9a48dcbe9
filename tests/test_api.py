"""The package's public name lists, its code rules, and what importing it loads."""

import ast
import json
import typing
from pathlib import Path
from types import ModuleType

import ckdv
from ckdv import bourgain
from ckdv.systems import SystemSpec


def _public(module, names):
    """The names that are not private and not submodules."""
    return {n for n in names if not n.startswith("_") and not isinstance(getattr(module, n), ModuleType)}


def test_all_names_resolve_once():
    for module in (ckdv, bourgain):
        assert len(module.__all__) == len(set(module.__all__)), module.__name__
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__
        # every imported name is exported and every export is imported
        assert _public(module, dir(module)) == _public(module, module.__all__), module.__name__


ROOT = Path(__file__).resolve().parent.parent

# defined or exported names that no library or benchmark code uses, and why each stays
UNREFERENCED = {
    "entry": "console script: pyproject.toml's [project.scripts] entry point",
    "hermitian_defect": "reference helper: how far a spectrum departs from conjugate symmetry",
    "read_csv": "reference helper: the inverse of write_csv for numeric tables",
    "dealias": "reference helper: the 2/3-rule projection on its own",
    "l2_norm": "reference helper: the plain L2 norm of a field",
    "forward2": "reference helper: the space-time transform that inverse2 undoes",
    "nonlinear_rhs": "reference helper: the full-layout right-hand side the solver tests step with",
    "field_from_callable": "user entry point: a field from a function of x",
    "load_config": "user entry point: a config read from a JSON file",
    "f_w": "criterion identity: the weight function c07 scans",
    "gg_lambda_alpha": "criterion identity: c01's decoupling constants",
    "hs_as_kdv": "criterion identity: the two-wave system as a reflected KdV solution",
}


def test_every_public_name_has_a_caller_or_a_reason():
    # a name counts as used when some library or benchmark code reads it, bare
    # or as an attribute; the package __init__ files only re-export, and a
    # docstring or a comment is not code.  Besides the exports, every
    # module-level function and class in the package is held to this, private
    # or not, so a refactor cannot leave a dead helper behind.
    sources = list((ROOT / "src" / "ckdv").rglob("*.py"))
    defined = {
        node.name for path in sources for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    used = set()
    for path in [*(f for f in sources if f.name != "__init__.py"), *(ROOT / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert {*ckdv.__all__, *bourgain.__all__, *defined} - used == set(UNREFERENCED)


# the only places that may branch on a system's class: the normal form and the conservation laws
CLASS_DISPATCH = {("systems", "lower"), ("diagnostics", "_laws")}


def test_only_lower_and_the_law_table_dispatch_on_system_class():
    # isinstance(x, <a system class>) anywhere, and type(x) used as a value (a key,
    # an operand) rather than for its name, name the function they sit in
    classes = {cls.__name__ for cls in typing.get_args(SystemSpec)}
    found = set()
    for path in (ROOT / "src" / "ckdv").rglob("*.py"):
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            by_isinstance = node.func.id == "isinstance" and classes & {
                n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)
            }
            by_type = node.func.id == "type" and not isinstance(
                parents[node], (ast.Attribute, ast.FormattedValue)
            )
            if by_isinstance or by_type:
                scope = node
                while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                    scope = parents[scope]
                found.add((path.stem, getattr(scope, "name", "<module>")))
    assert found == CLASS_DISPATCH


# what `import scipy` does not load; only the quadrature kinds (kernel_suite, nonequivalence) need them
SCIPY_SUBPACKAGES = ("scipy.integrate", "scipy.optimize", "scipy.fft", "scipy.special", "scipy.linalg")


def test_import_and_the_numpy_kinds_load_no_scipy_subpackage(fresh_python):
    code = f"""
import json, sys, tempfile
import ckdv

def loaded():
    return sorted(set({SCIPY_SUBPACKAGES!r}) & set(sys.modules))

seen = {{"import": loaded()}}
small = {{
    "simulate.json": {{"horizon": 0.01, "sample_dt": 0.01}},
    "picard.json": {{"horizon": 0.05, "params": {{"n_iters": 2, "time_resolution": 9}}}},
    "bourgain.json": {{"params": {{"n_x": 32, "n_t": 64, "n_fields": 2, "n_embed_fields": 2,
                                 "t_values": [0.5, 1.0]}}}},
}}
for name, over in small.items():
    cfg = json.loads(open({str(ROOT / "configs")!r} + "/" + name).read())
    cfg.update(over)
    manifest = ckdv.run(ckdv.config_from_dict(cfg), out_dir=tempfile.mkdtemp())
    assert manifest.status != "error", manifest.error
    seen[cfg["kind"]] = loaded()
print(json.dumps(seen))
"""
    assert json.loads(fresh_python(code)) == dict.fromkeys(
        ("import", "simulate", "picard_study", "bourgain_suite"), []
    )


def test_no_module_level_scipy_subpackage_import():
    # a scipy subpackage is imported inside the function that needs it, so that
    # `import ckdv` stays as light as numpy and `import scipy` (for its version)
    found = []
    for path in (ROOT / "src" / "ckdv").rglob("*.py"):
        stack = list(ast.parse(path.read_text()).body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue  # runs when called, not at import
            if isinstance(node, ast.Import):
                found += [(path.name, a.name) for a in node.names if a.name.startswith("scipy.")]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy."):
                found.append((path.name, node.module))
            stack.extend(ast.iter_child_nodes(node))
    assert found == []
