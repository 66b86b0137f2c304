"""Command-line surface and golden-table reproduction harness.

Exit codes: 0 success, 1 usage error, 2 golden mismatch, 3 numeric
overflow, cap or certification failure.  Only ``main`` maps an exception
to exit 1 or 3, and each prints one line on stderr.

Each command is defined once, in COMMANDS, and the first ``main`` call
builds the subcommand tree from it, once per process.  argv[1:] is parsed
in one pass by the subparser that argv[0] names; the whole tree parses
only an argv that names no command or leaves arguments over, so help and
usage errors are the tree's own.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from importlib import resources

from . import bounds, semigroup
from .character import CharacterError, dominant_character
from .rootsys import (RootSystem, RootSystemError, SimpleComponent, Weight,
                      build, weyl_dimension)
from .sl2branch import (BranchingError, Sl2Embedding, invariant_dim, g0,
                        principal_embedding, root_embedding, sl2_decompose)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GOLDEN_MISMATCH = 2
EXIT_NUMERIC = 3


class UsageError(ValueError):
    pass


class Uncertified(ArithmeticError):
    """A semigroup complement whose non-members reach the outer shell."""


def _load_fixture(name: str):
    with resources.files("sl2bounds.data").joinpath(name).open() as f:
        return json.load(f)


def _simple_type(family: str, rank: int | str) -> SimpleComponent:
    """A simple type from a family letter, in either case, and a rank."""
    try:
        rank = int(rank)
    except ValueError as exc:
        raise UsageError(f"type must be a family letter and a rank, like G2; "
                         f"got {family + rank!r}") from exc
    return SimpleComponent(family.upper(), rank)


def _dominant(rs: RootSystem, coords) -> Weight:
    lam = Weight(coords)
    if len(lam) != rs.rank or not lam.is_dominant:
        raise UsageError(f"expected {rs.rank} nonnegative coordinates")
    return lam


def _int_tuple(text: str, what: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(
            f"{what} must be comma-separated integers, got {text!r}") from exc


def _read_generators(path: str) -> list:
    try:
        with open(path) as f:
            gens = json.load(f)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read generators file: {exc}") from exc
    if not (isinstance(gens, list) and all(
            isinstance(g, list) and all(type(x) is int for x in g)
            for g in gens)):
        raise UsageError(f"{path} must hold a JSON list of integer lists")
    return gens


def _parse_embedding(rs: RootSystem, spec: str) -> Sl2Embedding:
    if spec == "principal":
        return principal_embedding(rs)
    if spec.startswith("root="):
        return root_embedding(rs, _int_tuple(spec[5:], "root"))
    if spec.startswith("marks="):
        marks = _int_tuple(spec[6:], "marks")
        if len(marks) != rs.rank:
            raise UsageError(f"marks must have length {rs.rank}")
        print(f"warning: marks {list(marks)} are not certified as an sl2 "
              "triple; only symmetry and nonnegativity of the restriction "
              "are checked", file=sys.stderr)
        return Sl2Embedding(marks=marks)
    raise UsageError(
        "embedding must be 'principal', 'root=c1,..,cr' or 'marks=m1,..,mr'")


def _require_certified(comp: semigroup.ComplementResult):
    if not comp.certified:
        raise Uncertified(
            f"complement not certified within --box-bound {comp.box_bound}: "
            "non-members reach the outer shell (the complement is infinite "
            "or needs a larger bound)")


# ---------------------------------------------------------------------------
# output helpers


def _emit_table(args, rows, header):
    """rows: list of lists; header: list of column names."""
    if args.format == "json":
        print(json.dumps({"header": header, "rows": rows}))
    elif args.format == "csv":
        import csv
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    else:
        widths = [max([len(str(h))] + [len(str(r[i])) for r in rows])
                  for i, h in enumerate(header)]
        print("  ".join(str(h).rjust(w) for h, w in zip(header, widths)))
        for r in rows:
            print("  ".join(str(x).rjust(w) for x, w in zip(r, widths)))


def _emit_obj(args, obj, text_fn):
    if args.format == "json":
        print(json.dumps(obj, sort_keys=True))
    else:
        text_fn()


# ---------------------------------------------------------------------------
# commands


def cmd_describe(args):
    rs = build([_simple_type(args.type, args.rank)])
    s = rs.summary()
    _emit_obj(args, s, lambda: print(
        f"{s['type']}: rank {s['rank']}, {s['num_positive_roots']} positive "
        f"roots, dim {s['dim']}\nCartan matrix: {s['cartan']}\n"
        f"symmetrizers: {s['symmetrizers']}"))
    return EXIT_OK


def cmd_character(args):
    rs = build([_simple_type(args.type, args.rank)])
    lam = _dominant(rs, args.coords)
    ch = dominant_character(rs, lam)
    dim = weyl_dimension(rs, lam)

    def text():
        print(f"L{lam} of {rs.fingerprint}: dimension {dim}")
        for mu, m in sorted(ch.mults.items(), key=lambda kv: kv[0].coords):
            print(f"  {mu}: {m}")

    _emit_obj(args, {**ch.to_json_dict(), "dimension": dim}, text)
    return EXIT_OK


def cmd_branch(args):
    rs = build([_simple_type(args.type, args.rank)])
    lam = _dominant(rs, args.coords)
    emb = _parse_embedding(rs, args.embedding)
    dec = sl2_decompose(rs, lam, emb)
    N = dec.weight_values
    obj = {
        "lambda": list(lam.coords),
        "embedding": list(emb.marks),
        "weight_values": {str(k): v for k, v in sorted(N.items())},
        "decomposition": dec.to_json_dict(),
        "invariant_dim": dec.invariant_dim,
        "g0": dec.g0,
    }

    def text():
        print(f"L{lam} restricted to sl2 marks {list(emb.marks)}:")
        print("  N:", {k: N[k] for k in sorted(N)})
        print("  decomposition:", {f"V({k})": m for k, m in sorted(dec.mults.items())})
        print(f"  invariant dim: {obj['invariant_dim']}, g0: {obj['g0']}")

    _emit_obj(args, obj, text)
    return EXIT_OK


def _table_cmd(args, entry_fn, fixture, label):
    if min(args.max_i, args.max_j) < 0:
        raise UsageError("--max-i and --max-j must be >= 0")
    if args.golden and max(args.max_i, args.max_j) > 19:
        raise UsageError("golden table covers 0..19 only")
    rs = build([SimpleComponent("G", 2)])
    emb = principal_embedding(rs)
    grid = [[entry_fn(rs, Weight((i, j)), emb) for j in range(args.max_j + 1)]
            for i in range(args.max_i + 1)]
    header = ["i\\j"] + list(range(args.max_j + 1))
    rows = [[i] + grid[i] for i in range(args.max_i + 1)]
    _emit_table(args, rows, header)
    if args.golden:
        gold = _load_fixture(fixture)["table"]
        diffs = [f"{label}[{i}][{j}]: got {v}, expected {gold[i][j]}"
                 for i, row in enumerate(grid) for j, v in enumerate(row)
                 if v != gold[i][j]]
        if diffs:
            print(*diffs, sep="\n", file=sys.stderr)
            return EXIT_GOLDEN_MISMATCH
        print(f"golden check passed: {label} matches the embedded table",
              file=sys.stderr)
    return EXIT_OK


def cmd_table1(args):
    return _table_cmd(args, invariant_dim, "g2_invariant_dims.json", "dim^K")


def cmd_table2(args):
    return _table_cmd(args, g0, "g2_g0.json", "g0")


def cmd_exceptions(args):
    rs = build([SimpleComponent("G", 2)])
    emb = principal_embedding(rs)
    gens = semigroup.GeneratorSet(
        2, _load_fixture("g2_semigroup_complement9.json")["generators"])
    comp = semigroup.complement(gens, args.box_bound)
    _require_certified(comp)
    zero = sorted(v for v in comp.points
                  if invariant_dim(rs, Weight(v), emb) == 0)
    gold = [tuple(p) for p in _load_fixture("g2_exceptions.json")["weights"]]
    _emit_obj(args, {"exceptions": [list(v) for v in zero]},
              lambda: print("\n".join(f"[{a}, {b}]" for a, b in zero)))
    if zero != gold:
        print("exception list differs from the embedded 26-pair list",
              file=sys.stderr)
        return EXIT_GOLDEN_MISMATCH
    return EXIT_OK


def cmd_complement(args):
    if args.generators_file:
        gens = _read_generators(args.generators_file)
    else:
        gens = [_int_tuple(g, "generator") for g in args.gen]
    if not gens:
        raise UsageError("no generators given (use --gen or --generators-file)")
    r = len(gens[0])
    gs = semigroup.GeneratorSet(r, gens)
    comp = semigroup.complement(gs, args.box_bound)
    obj = {"points": [list(p) for p in comp.points],
           "certified": comp.certified, "box_bound": comp.box_bound}
    _emit_obj(args, obj, lambda: print(
        f"{len(comp.points)} non-members (certified={comp.certified}):\n" +
        json.dumps(obj["points"])))
    _require_certified(comp)
    return EXIT_OK


def cmd_bound(args):
    if args.cap < 1:
        raise UsageError("--cap must be >= 1")
    rs = build([_simple_type(args.type, args.rank)])
    emb = _parse_embedding(rs, args.embedding)
    res = bounds.b_bound(rs, emb, args.cap)
    obj = {"b": res.b, "m_values": list(res.m_values.values),
           "c0_box": list(res.m_values.values),
           "max_g0": res.box_max_g0,
           "argmax": list(res.box_max_weight.coords)}
    _emit_obj(args, obj, lambda: print(
        f"b = {res.b}  (m = {list(res.m_values.values)}, C0 = box "
        f"{'x'.join(str(m) for m in res.m_values.values)}, max g0 = "
        f"{res.box_max_g0} at {res.box_max_weight})"))
    return EXIT_OK


def cmd_parabolic_table(args):
    rows = bounds.parabolic_table(_simple_type(args.type, args.rank))
    data = [[r.node, "".join(str(c) for c in r.levi_ss_components) or "-",
             r.dim_g_mod_lss, r.dim_X] for r in rows]
    _emit_table(args, data, ["node", "levi_ss", "dim_g_mod_lss", "dim_X"])
    return EXIT_OK


def cmd_e_table(args):
    types = [_simple_type(t[:1], t[1:]) for t in args.types] \
        if args.types else list(bounds._all_simple_types(args.rank_cap))
    data = [[str(t), bounds.e_value(t)] for t in types]
    _emit_table(args, data, ["type", "e"])
    return EXIT_OK


def cmd_exclusion_set(args):
    es = bounds.E_set(args.dim_k)
    _emit_obj(args, {"dim_k": args.dim_k, "types": [str(c) for c in es]},
              lambda: print(" ".join(str(c) for c in es)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# (function, help, formats, arguments) per command; csv only for a table

_TEXT, _TABLE = ("text", "json"), ("text", "csv", "json")
_TYPE = ("type", {}), ("rank", dict(type=int))
_COORDS = "coords", dict(type=int, nargs="+")
_EMBEDDING = "--embedding", dict(default="principal")
_BOX = "--box-bound", dict(type=int, default=64)
_GRID = (("--max-i", dict(type=int, default=19)),
         ("--max-j", dict(type=int, default=19)),
         ("--golden", dict(action="store_true",
                           help="diff against the embedded table")))
COMMANDS = {
    "describe": (cmd_describe, "root-system summary", _TEXT, _TYPE),
    "character": (cmd_character, "dominant character and dimension", _TEXT,
                  (*_TYPE, _COORDS)),
    "branch": (cmd_branch, "restrict to an sl2-subalgebra", _TEXT,
               (*_TYPE, _COORDS, _EMBEDDING)),
    "table1": (cmd_table1, "G2 principal invariant dimensions", _TABLE, _GRID),
    "table2": (cmd_table2, "G2 principal g0 values", _TABLE, _GRID),
    "exceptions": (cmd_exceptions, "dominant G2 weights with no principal "
                   "invariant", _TEXT, (_BOX,)),
    "complement": (cmd_complement, "certified semigroup complement", _TEXT, (
        ("--gen", dict(action="append", default=[], help="generator as "
                       "comma-separated integers (repeatable)")),
        ("--generators-file", dict(help="JSON file with a list of generators")),
        _BOX)),
    "bound": (cmd_bound, "uniform bound b and m-values", _TEXT, (
        *_TYPE, _EMBEDDING,
        ("--cap", dict(type=int, default=bounds.DEFAULT_M_CAP)))),
    "parabolic-table": (cmd_parabolic_table,
                        "dim g/l_ss and dim X per Dynkin node", _TABLE, _TYPE),
    "e-table": (cmd_e_table, "e-values of simple types", _TABLE, (
        ("types", dict(nargs="*", help="types like G2 B4 (default: all up "
                       "to --rank-cap)")),
        ("--rank-cap", dict(type=int, default=8)))),
    "exclusion-set": (cmd_exclusion_set, "simple types with e-value at most "
                      "dim_k", _TEXT, (("dim_k", dict(type=int)),)),
}


def _format_first(value):
    """Refuse --format before the command, whose value would read as one."""
    raise argparse.ArgumentTypeError(
        "goes after the command, as in 'sl2bounds describe G 2 --format json'")


@functools.cache
def _build_parser():
    """The argparse tree, and its subparser per command name."""
    p = argparse.ArgumentParser(
        prog="sl2bounds",
        description="sl2-branching tables, invariant dimensions and "
                    "uniform branching bounds for semisimple Lie algebras")
    p.add_argument("--format", type=_format_first, help=argparse.SUPPRESS)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (fn, hlp, formats, arguments) in COMMANDS.items():
        cmd = sub.add_parser(name, help=hlp)
        cmd.add_argument("--format", default="text", choices=formats)
        for arg, kwargs in arguments:
            cmd.add_argument(arg, **kwargs)
        cmd.set_defaults(fn=fn)
    return p, sub.choices


def _parse(argv):
    """One pass by the subparser argv[0] names, else the whole tree."""
    tree, commands = _build_parser()
    parser = commands.get(argv[0]) if argv else None
    if parser:
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            return args
    return tree.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except (UsageError, RootSystemError, semigroup.SemigroupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CharacterError, BranchingError, OverflowError, Uncertified,
            bounds.BoundsError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except BrokenPipeError:   # as in `| head -1`; the last flush goes nowhere
        sys.stdout = open(os.devnull, "w")
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
