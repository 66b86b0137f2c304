from collections import Counter

import pytest

from sl2bounds import character

PATHS = ("_by_product", "_by_cosets", "_by_orbits")


@pytest.fixture(autouse=True)
def cold_sl2_memo():
    """Every test starts with an empty per-sl2 memo: a coset table stays on
    its cached record after the test that built it, even a corrupted one."""
    character._sl2.cache_clear()


@pytest.fixture
def answered(monkeypatch):
    """A Counter of the requests each restriction path answers, counted by
    a spy on the three paths."""
    counts = Counter()
    for name in PATHS:
        real = getattr(character, name)
        monkeypatch.setattr(character, name, lambda *a, _real=real, _name=name:
                            counts.update([_name]) or _real(*a))
    return counts


@pytest.fixture
def builds(monkeypatch):
    """The marks h of every coset table built, in order, by a spy on
    _coset_table, which takes the per-sl2 record of h."""
    marks, real = [], character._coset_table
    monkeypatch.setattr(character, "_coset_table", lambda rs, s:
                        marks.append(s.h) or real(rs, s))
    return marks
