"""The package's public name lists."""

from types import ModuleType

import ckdv
from ckdv import bourgain


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
