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


def _scoped_nodes(path):
    """(node, qualified name of the function or class it sits in, or "<module>") for each node of a file."""
    tree = ast.parse(path.read_text())
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        names, scope = [], parents.get(node)
        while scope is not None:
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.insert(0, scope.name)
            scope = parents.get(scope)
        yield node, ".".join(names) or "<module>"


def test_only_grid_holds_the_transform_convention():
    # the dx/sqrt(2*pi) scale and the centring sign (-1)**k live in grid.py; the
    # RHS kernel folds the sign into its fused half-spectrum tables, once
    assigned, sign_read = set(), set()
    for path in (ROOT / "src" / "ckdv").rglob("*.py"):
        for node, scope in _scoped_nodes(path):
            if isinstance(node, ast.Name) and node.id == "SQRT_2PI" and isinstance(node.ctx, ast.Store):
                assigned.add(path.stem)
            elif isinstance(node, ast.Attribute) and node.attr == "_sign" and path.stem != "grid":
                sign_read.add((path.stem, scope))
    assert assigned == {"grid"}
    assert sign_read == {("systems", "SpectralRhs.__init__")}


# numpy and the standard library are the whole runtime; scipy is a test oracle only
UNUSED = ("multiprocessing", "concurrent.futures")  # no kind runs work in parallel processes


def test_every_kind_runs_with_scipy_refused(fresh_python):
    small = {
        "simulate.json": {"horizon": 0.01, "sample_dt": 0.01},
        "lipschitz.json": {"horizon": 0.01, "sample_dt": 0.01, "params": {"n_directions": 1, "deltas": [1e-2, 1e-3]}},
        "scaling.json": {"horizon": 0.01, "sample_dt": 0.01, "params": {"lambdas": [1.0, 2.0], "s_values": [0.0]}},
        "picard.json": {"horizon": 0.05, "params": {"n_iters": 2, "time_resolution": 9}},
        "convergence.json": {"horizon": 0.01, "stepper": {"dt": 5e-4}, "params": {"dt_values": [2e-3, 1e-3]}},
        "bourgain.json": {"params": {"n_x": 32, "n_t": 64, "n_fields": 2, "n_embed_fields": 2, "t_values": [0.5, 1.0]}},
        "kernels.json": {"params": {"kernels": ["level_set", "mixed_region_b2"]}},
        "nonequivalence.json": {"params": {"radii": [4.0, 8.0]}},
        "diagnose.json": {"snapshot": str(ROOT / "configs" / "simulate_final.ckdv")},
    }
    code = f"""
import json, sys, tempfile

class RefuseScipy:  # an import hook under which `import scipy` and every `import scipy.x` fail
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError("refused: " + name)

sys.meta_path.insert(0, RefuseScipy())
import ckdv

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m in {UNUSED!r})

seen = {{"import": loaded()}}
for name, over in {small!r}.items():
    cfg = json.loads(open({str(ROOT / "configs")!r} + "/" + name).read())
    cfg.update(over)
    manifest = ckdv.run(ckdv.config_from_dict(cfg), out_dir=tempfile.mkdtemp())
    assert manifest.status != "error", (name, manifest.error)
    seen[cfg["kind"]] = loaded()
print(json.dumps(seen))
"""
    assert json.loads(fresh_python(code)) == dict.fromkeys(["import", *ckdv.harness.KINDS], [])


def test_no_file_imports_scipy():
    # at any scope, function bodies included, and by name through importlib or __import__
    def scipy(name) -> bool:
        return isinstance(name, str) and name.split(".")[0] == "scipy"

    found = []
    for path in (ROOT / "src" / "ckdv").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found += [(path.name, a.name) for a in node.names if scipy(a.name)]
            elif isinstance(node, ast.ImportFrom) and scipy(node.module):
                found.append((path.name, node.module))
            elif isinstance(node, ast.Call):
                found += [(path.name, a.value) for a in node.args if isinstance(a, ast.Constant) and scipy(a.value)]
    assert found == []
