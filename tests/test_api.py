"""The package's public name lists."""

import ckdv
from ckdv import bourgain


def test_all_names_resolve_once():
    for module in (ckdv, bourgain):
        assert len(module.__all__) == len(set(module.__all__)), module.__name__
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__
