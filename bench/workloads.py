"""The benchmark's workloads: inputs drawn from a seed, and per-item
execution and output checks.

``generate`` runs in the parent process and produces a JSON-ready spec
holding only the generated inputs.  ``setup`` runs in each fresh pass
process and turns a spec into a list of ``(item_id, fn)`` pairs, where
``fn()`` returns ``(got, want)``; an item passes when the two are equal
and nothing raised.  An item is the unit one CLI command answers.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from itertools import product
from pathlib import Path

G2_BOX = 20

# Large characters of rank 3-6 (box cells ~4e4 to ~2e6), one per type.
LARGE_SPECS = (
    ("B", 4, (3, 3, 3, 3)), ("C", 4, (3, 3, 3, 3)), ("D", 4, (4, 4, 4, 4)),
    ("F", 4, (2, 1, 1, 1)), ("E", 6, (1, 0, 0, 0, 1, 1)),
    ("B", 3, (6, 6, 6)), ("C", 3, (6, 6, 6)), ("A", 3, (10, 10, 10)),
)
# A drawn weight differs from its spec weight by at most 1 per coordinate
# and has a box within this share of the spec weight's cell count, so the
# work per type stays in a fixed band whatever the seed.  Within a 5% band
# the B4 and C4 characters' first touch varies by up to 40%; within 1% the
# seed still chooses among 7 D4, 6 E6 and several A3 weights.
BOX_BAND = 0.01

DATA = Path("src", "sl2bounds", "data")


def load_fixture(root: Path, name: str):
    with open(root / DATA / name) as f:
        return json.load(f)


def box_cells(sl2bounds, rs, lam) -> int:
    """Cells of the simple-root box below lam that the character fills."""
    from sl2bounds.rootsys import weight_to_root_coords
    dual = sl2bounds.dominant_representative(rs, -lam)
    n = 1
    for k in weight_to_root_coords(rs, lam + dual):
        n *= int(k) + 1
    return n


def simple_types(rank_cap: int):
    """Every simple type of rank <= rank_cap, in the CLI's e-table order."""
    out = [("A", n) for n in range(1, rank_cap + 1)]
    for n in range(2, rank_cap + 1):
        out += [("B", n), ("C", n)]
    out += [("D", n) for n in range(3, rank_cap + 1)]
    out += [("E", n) for n in (6, 7, 8) if n <= rank_cap]
    return out + [("F", 4), ("G", 2)]


# ---------------------------------------------------------------------------
# input generation (parent process)


def _draw_large(rng, sl2bounds):
    items = []
    for fam, rank, spec in LARGE_SPECS:
        rs = sl2bounds.build([sl2bounds.SimpleComponent(fam, rank)])
        target = box_cells(sl2bounds, rs, sl2bounds.Weight(spec))
        band = []
        for delta in product((-1, 0, 1), repeat=rank):
            lam = tuple(a + b for a, b in zip(spec, delta))
            if min(lam) >= 0 and abs(box_cells(
                    sl2bounds, rs, sl2bounds.Weight(lam)) / target - 1) <= BOX_BAND:
                band.append(lam)
        lam = rng.choice(band)
        roots = rs.positive_roots  # sorted by height
        norm = {}
        for r in roots:
            wt = sl2bounds.root_to_weight_coords(rs, r)
            norm[r] = sl2bounds.inner_product(rs, wt, wt)
        short = min(norm.values())
        highest_short = [r for r in roots if norm[r] == short][-1]
        sl2s = [("highest", roots[-1])]
        if highest_short != roots[-1]:
            sl2s.append(("highest_short", highest_short))
        sl2s.append(("simple", (1,) + (0,) * (rank - 1)))
        items += [{"type": [fam, rank], "lam": list(lam), "root": list(root),
                   "sl2": label} for label, root in sl2s]
    return items


def _structure_argvs(root: Path):
    gens = load_fixture(root, "g2_semigroup_complement9.json")["generators"]
    items = [["parabolic-table", fam, str(rank)]
             for fam, rank in simple_types(8)]
    items += [["e-table"], ["exclusion-set", "8"], ["exceptions"],
              ["complement"] + [a for g in gens
                                for a in ("--gen", ",".join(map(str, g)))],
              ["bound", "G", "2"]]
    return items


def generate(name: str, seed: int, root: Path, sl2bounds=None) -> dict:
    """Inputs of one workload, drawn from seed (same seed, same inputs)."""
    rng = random.Random(seed)
    if name == "g2-principal-tables":
        items = [[i, j] for i in range(G2_BOX) for j in range(G2_BOX)]
    elif name == "large-root-branching":
        items = _draw_large(rng, sl2bounds)
    elif name == "structure-cli":
        items = _structure_argvs(root)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return {"workload": name, "seed": seed, "items": items}


# Workloads whose seed permutes the item order, drawn anew for every pass.
# Items of one pass share the program's caches and warm-up (exceptions
# computes the G2 characters that bound G 2 then reuses; the first item pays
# for the first calls), so an item's latency depends on the order, and one
# order per run would make that a difference between seeds.
PERMUTED = ("g2-principal-tables", "structure-cli")


def pass_orders(spec: dict):
    """The item order of each pass of a run: indices into spec["items"]."""
    rng = random.Random(spec["seed"])
    n = len(spec["items"])
    while True:
        yield (rng.sample(range(n), n) if spec["workload"] in PERMUTED
               else list(range(n)))


# ---------------------------------------------------------------------------
# pass setup and items (pass process)


def _g2_setup(spec, sl2bounds, root):
    rs = sl2bounds.build([sl2bounds.SimpleComponent("G", 2)])
    emb = sl2bounds.principal_embedding(rs)
    inv = load_fixture(root, "g2_invariant_dims.json")["table"]
    g0s = load_fixture(root, "g2_g0.json")["table"]

    def item(i, j):
        lam = sl2bounds.Weight((i, j))

        def run():
            got = (sl2bounds.invariant_dim(rs, lam, emb),
                   sl2bounds.g0(rs, lam, emb))
            return got, (inv[i][j], g0s[i][j])
        return f"G2({i},{j})", run

    return [item(i, j) for i, j in spec["items"]]


def _large_setup(spec, sl2bounds, root):
    systems = {}

    def item(it):
        key = tuple(it["type"])
        if key not in systems:
            systems[key] = sl2bounds.build([sl2bounds.SimpleComponent(*key)])
        rs = systems[key]
        lam = sl2bounds.Weight(it["lam"])
        emb = sl2bounds.root_embedding(rs, tuple(it["root"]))

        def run():
            # sl2_decompose raises unless its symmetry and nonnegativity
            # certificates pass, and a raise is a counted failure.
            dec = sl2bounds.sl2_decompose(rs, lam, emb)
            return dec.dimension(), sl2bounds.weyl_dimension(rs, lam)
        return f"{key[0]}{key[1]}{lam} {it['sl2']}", run

    return [item(it) for it in spec["items"]]


def _levi_key(levi: str):
    """Canonical sorted Levi components of a string such as 'A1C2' or '-'."""
    canon = {("B", 1): ("A", 1), ("C", 1): ("A", 1), ("C", 2): ("B", 2),
             ("D", 3): ("A", 3), ("D", 2): None}
    out = []
    for fam, rank in re.findall(r"([A-G])(\d+)", levi):
        c = canon.get((fam, int(rank)), (fam, int(rank)))
        out += [("A", 1), ("A", 1)] if c is None else [c]
    return tuple(sorted(out))


def _classical_levi(fam: str, n: int, k: int) -> str:
    """Levi type of the k-th maximal parabolic of a classical type, from
    the Dynkin diagram with node k deleted (Bourbaki numbering)."""
    left = f"A{k - 1}" if k > 1 else ""
    if fam == "A":
        return left + (f"A{n - k}" if k < n else "")
    if fam in "BC":
        return left + (f"{fam}{n - k}" if k < n else "")
    if k >= n - 1:  # D: deleting a spin node leaves A_{n-1}
        return f"A{n - 1}"
    return left + f"D{n - k}"


_DIM = {"A": lambda n: n * (n + 2), "B": lambda n: n * (2 * n + 1),
        "C": lambda n: n * (2 * n + 1), "D": lambda n: n * (2 * n - 1),
        "E": {6: 78, 7: 133, 8: 248}.get, "F": lambda n: 52,
        "G": lambda n: 14}


def _levi_dim(levi_key) -> int:
    return sum(_DIM[f](r) for f, r in levi_key)


def expected_parabolic(fixture: dict, fam: str, n: int):
    """[(node, levi key, dim g/l_ss, dim X)] from the golden fixture, or for
    classical types outside it from the diagram with one node deleted."""
    gold = fixture["tables"].get(f"{fam}{n}")
    if gold:
        keys = [_levi_key(s) for s in gold["levis"]]
        dims = gold["dims"]
    else:
        keys = [_levi_key(_classical_levi(fam, n, k)) for k in range(1, n + 1)]
        dims = [_DIM[fam](n) - _levi_dim(key) for key in keys]
    return [(k, key, d, (d + 1) // 2)
            for k, (key, d) in enumerate(zip(keys, dims), start=1)]


def _structure_setup(spec, sl2bounds, root):
    from sl2bounds import cli
    para = load_fixture(root, "parabolic_tables.json")
    exceptions = load_fixture(root, "g2_exceptions.json")["weights"]
    comp9 = load_fixture(root, "g2_semigroup_complement9.json")
    e_types = simple_types(8)

    def rows(out):
        return [(r[0], _levi_key(r[1]), r[2], r[3]) for r in out["rows"]]

    def expect(argv):
        """(normalize output, expected value) for one command."""
        cmd = argv[0]
        if cmd == "parabolic-table":
            return rows, expected_parabolic(para, argv[1], int(argv[2]))
        if cmd == "e-table":
            want = [[f"{f}{n}", para["e_values"].get(f"{f}{n}", min(
                r[3] for r in expected_parabolic(para, f, n)))]
                for f, n in e_types]
            return lambda out: out["rows"], want
        if cmd == "exclusion-set":
            return (lambda out: out["types"],
                    sorted(para["exclusion_set_dim8"]))
        if cmd == "exceptions":
            return lambda out: out["exceptions"], exceptions
        if cmd == "complement":
            return (lambda out: (out["certified"], len(out["points"]),
                                 sorted(out["points"])),
                    (True, 73, sorted(comp9["points"])))
        if cmd == "bound":
            return lambda out: (out["b"], out["m_values"]), (8, [4, 2])
        raise ValueError(f"no check for command {cmd!r}")

    def item(argv):
        normalize, want = expect(argv)

        def run():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                rc = cli.main([*argv, "--format", "json"])
            if rc != 0:
                return (rc, stderr.getvalue().strip()), (0, "")
            return normalize(json.loads(stdout.getvalue())), want
        return " ".join(argv[:3]), run

    return [item(argv) for argv in spec["items"]]


_SETUP = {"g2-principal-tables": _g2_setup,
          "large-root-branching": _large_setup,
          "structure-cli": _structure_setup}

WORKLOADS = tuple(_SETUP)


def setup(spec: dict, sl2bounds, root: Path):
    """Build the (item_id, fn) list of a spec; root systems, embeddings and
    golden fixtures are ready when this returns."""
    return _SETUP[spec["workload"]](spec, sl2bounds, root)


def alter(value):
    """value with its first integer cell changed by one (fault injection)."""
    if isinstance(value, int):
        return value + 1
    if isinstance(value, (list, tuple)):
        for n, v in enumerate(value):
            changed = alter(v)
            if changed is not v:
                return type(value)([*value[:n], changed, *value[n + 1:]])
    return value
