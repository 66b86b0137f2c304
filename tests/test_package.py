"""What ``import sl2bounds`` runs, and that every public name resolves."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sl2bounds

_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]))}

# each name is checked against the module that defines it
_CHECK = """
import importlib
for name in sl2bounds.__all__:
    home = getattr(sl2bounds, name).__module__
    assert getattr(importlib.import_module(home), name) is names[name], name
print("ok")
"""


def _fresh(code):
    """stdout of code run in a new interpreter."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_runs_only_the_restriction_core():
    out = _fresh(
        "import sys, sl2bounds\n"
        "print([m for m in ('sl2bounds.bounds', 'sl2bounds.semigroup',\n"
        "                   'sl2bounds.cli', 'fractions', 'csv')\n"
        "       if m in sys.modules])\n")
    assert out == "[]\n"


@pytest.mark.parametrize("load", [
    "names = {name: getattr(sl2bounds, name) for name in sl2bounds.__all__}",
    "names = {}\nexec('from sl2bounds import *', names)",
], ids=["attribute", "star"])
def test_every_public_name_resolves_in_a_fresh_process(load):
    assert _fresh(f"import sl2bounds\n{load}\n{_CHECK}") == "ok\n"


def test_the_lazy_modules_resolve_as_attributes():
    assert _fresh(
        "import sys, sl2bounds\n"
        "assert sl2bounds.bounds is sys.modules['sl2bounds.bounds']\n"
        "assert sl2bounds.semigroup is sys.modules['sl2bounds.semigroup']\n"
        "print(sl2bounds.E_set is sl2bounds.bounds.E_set)\n") == "True\n"


def test_dir_lists_every_public_name_before_it_is_resolved():
    # and imports neither lazy module
    assert _fresh(
        "import sys, sl2bounds\n"
        "print(sorted(set(sl2bounds.__all__) - set(dir(sl2bounds))),\n"
        "      [m for m in ('sl2bounds.bounds', 'sl2bounds.semigroup')\n"
        "       if m in sys.modules])\n") == "[] []\n"


def test_dir_lists_the_lazy_names_without_resolving_them(monkeypatch):
    # In process, with every lazy name unresolved and no import possible:
    # dir reads the table of lazy names, never the modules behind them.
    for name in sl2bounds._LAZY:
        monkeypatch.delitem(vars(sl2bounds), name, raising=False)
    monkeypatch.setattr(sl2bounds, "importlib", None)
    names = dir(sl2bounds)
    assert names == sorted(names)
    assert {*sl2bounds.__all__, "bounds", "semigroup"} <= set(names)
    assert not set(sl2bounds._LAZY) & set(vars(sl2bounds))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        sl2bounds.nonesuch
