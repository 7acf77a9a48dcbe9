"""The package's public name lists."""

import ast
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
    "mixed_norms": "the paper's Picard norm, until its contraction is measured or it is deleted",
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
