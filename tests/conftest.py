from collections import Counter

import pytest

from sl2bounds import character

PATHS = ("_by_product", "_by_cosets", "_by_orbits")


@pytest.fixture
def answered(monkeypatch):
    """A Counter of the requests each restriction path answers, counted by
    a spy on the three paths; the coset-table memo starts empty."""
    character._coset_table.cache_clear()
    counts = Counter()
    for name in PATHS:
        real = getattr(character, name)
        monkeypatch.setattr(character, name, lambda *a, _real=real, _name=name:
                            counts.update([_name]) or _real(*a))
    return counts
