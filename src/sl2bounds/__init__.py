"""Exact sl2-branching of semisimple Lie algebra representations.

Compute root systems, weight multiplicities (Freudenthal), restrictions to
sl2-subalgebras given by marks, invariant dimensions, the uniform
branching bound b, maximal-parabolic dimension tables, and certified
complements of affine subsemigroups of N^r.

``import sl2bounds`` runs only the restriction core: rootsys, character
and sl2branch.  The names of semigroup and bounds, and the two modules
themselves, are resolved on first access (PEP 562), so a caller that only
restricts characters never imports them.
"""

import importlib

from .rootsys import (RootSystem, RootSystemError, SimpleComponent, Weight,
                      build, dominant_representative, inner_product,
                      root_to_weight_coords, weyl_dimension, weyl_orbit)
from .character import (Character, CharacterError, dominant_character,
                        full_weight_values, weyl_alternating_character)
from .sl2branch import (BranchingError, Sl2Decomposition, Sl2Embedding, g0,
                        invariant_dim, principal_embedding, root_embedding,
                        sl2_decompose)

__version__ = "0.1.0"

# the names of semigroup and bounds, each imported on first access
_SEMIGROUP = ("ComplementResult", "GeneratorSet", "complement", "member")
_BOUNDS = ("BoundResult", "E_set", "ParabolicRow", "b_bound", "e_value",
           "levi_ss_components", "m_value", "m_values", "parabolic_table")
_LAZY = {**dict.fromkeys((*_SEMIGROUP, "semigroup"), "semigroup"),
         **dict.fromkeys((*_BOUNDS, "bounds"), "bounds")}

__all__ = [
    "RootSystem", "RootSystemError", "SimpleComponent", "Weight", "build",
    "dominant_representative", "inner_product", "root_to_weight_coords",
    "weyl_dimension", "weyl_orbit",
    "Character", "CharacterError", "dominant_character",
    "full_weight_values", "weyl_alternating_character",
    "BranchingError", "Sl2Decomposition", "Sl2Embedding", "g0",
    "invariant_dim", "principal_embedding", "root_embedding",
    "sl2_decompose", *_SEMIGROUP, *_BOUNDS,
]


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
