"""The package's public name list."""

import ckdv


def test_all_names_resolve_once():
    assert len(ckdv.__all__) == len(set(ckdv.__all__))
    missing = [name for name in ckdv.__all__ if not hasattr(ckdv, name)]
    assert missing == []
