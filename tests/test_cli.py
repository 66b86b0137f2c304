import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2bounds import cli
from sl2bounds.cli import (EXIT_GOLDEN_MISMATCH, EXIT_NUMERIC, EXIT_OK,
                           EXIT_USAGE, main)


def run(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]))}


def fresh(*argv):
    """run(*argv) in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from sl2bounds.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, text=True, env=_ENV, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_import_builds_no_parser():
    probe = ("import argparse\n"
             "built, init = [], argparse.ArgumentParser.__init__\n"
             "argparse.ArgumentParser.__init__ = (\n"
             "    lambda *a, **kw: built.append(1) or init(*a, **kw))\n"
             "import sl2bounds.cli\n"
             "print(len(built))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=_ENV, timeout=60, check=True)
    assert proc.stdout == "0\n"


@pytest.fixture
def built(monkeypatch):
    """The parsers built from here on, counted from an empty parser cache."""
    built, init = [], argparse.ArgumentParser.__init__

    def counting(*args, **kwargs):
        built.append(1)
        init(*args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._build_parser.cache_clear()
    yield built
    cli._build_parser.cache_clear()


def test_parser_is_built_once_and_keeps_no_state(built):
    commands = [("complement", "--gen", "2", "--gen", "3"),
                ("complement", "--gen", "5"),
                ("complement", "--gen", "2", "--gen", "3")]
    outputs, counts = [], []
    for argv in commands:
        outputs.append(run(*argv))
        counts.append(len(built))
    # the tree and one subparser per command on the first call, then none
    assert counts == [len(cli.COMMANDS) + 1] * len(commands)
    # no --gen default leaks from one call into the next
    assert outputs == [fresh(*argv) for argv in commands]


@pytest.mark.parametrize("argv", [["bound", "G", "2", "--bogus"],
                                  ["bound", "-h"], ["-h"], ["nope"]])
def test_help_and_usage_errors_build_no_parser_after_a_call(built, argv):
    assert run("describe", "G", "2")[0] == EXIT_OK
    before = len(built)
    code, out, err = run(*argv)
    assert code == (EXIT_OK if "-h" in argv else EXIT_USAGE)
    assert (out if code == EXIT_OK else err).startswith("usage: sl2bounds")
    assert len(built) == before == len(cli.COMMANDS) + 1


_PARITY_ARGS = {
    "describe": ["G", "2"], "character": ["G", "2", "1", "0"],
    "branch": ["G", "2", "1", "1"], "table1": [], "table2": ["--golden"],
    "exceptions": [],
    "complement": ["--gen", "2", "--gen", "3"], "bound": ["G", "2"],
    "parabolic-table": ["E", "8"], "e-table": ["G2", "B4"],
    "exclusion-set": ["8"]}
_PARITY = [
    *([cmd, *args, *fmt] for cmd, args in _PARITY_ARGS.items()
      for fmt in ([], ["--format", "json"])),
    *([cmd, "-h"] for cmd in _PARITY_ARGS),
    ["-h"], [], ["nope"], ["--format", "json", "describe", "G", "2"],
    ["describe", "G"], ["bound", "G", "2", "--format", "csv"],
    ["bound", "G", "2", "--bogus"]]


# The arguments of each command, --format included: 33 in all.  The
# paper's tables are fixed and exceptions reads one fixture, so neither
# takes a size or a box.
_ARGUMENTS = {
    "describe": ["format", "type", "rank"],
    "character": ["format", "type", "rank", "coords"],
    "branch": ["format", "type", "rank", "coords", "embedding"],
    "table1": ["format", "golden"], "table2": ["format", "golden"],
    "exceptions": ["format"],
    "complement": ["format", "gen", "box_bound"],
    "bound": ["format", "type", "rank", "embedding", "cap"],
    "parabolic-table": ["format", "type", "rank"],
    "e-table": ["format", "types", "rank_cap"],
    "exclusion-set": ["format", "dim_k"]}


def test_each_command_takes_its_arguments_alone():
    commands = cli._build_parser()[1]
    assert {name: [a.dest for a in parser._actions if a.dest != "help"]
            for name, parser in commands.items()} == _ARGUMENTS
    assert sum(map(len, _ARGUMENTS.values())) == 33
    for argv in (("table1", "--max-i", "3"),
                 ("exceptions", "--box-bound", "20"),
                 ("complement", "--generators-file", "f")):
        code, out, err = run(*argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("usage: sl2bounds ")
        assert err.splitlines()[-1] == (
            "sl2bounds: error: unrecognized arguments: " + " ".join(argv[1:]))


def test_parity_covers_every_command():
    assert set(_PARITY_ARGS) == set(cli.COMMANDS)


@pytest.mark.parametrize("argv", _PARITY,
                         ids=lambda argv: " ".join(argv) or "no arguments")
def test_one_pass_prints_what_the_subcommand_tree_prints(monkeypatch, argv):
    one_pass = run(*argv)
    monkeypatch.setattr(cli, "_parse",
                        lambda argv: cli._build_parser()[0].parse_args(argv))
    assert run(*argv) == one_pass


def test_format_before_the_command_is_a_usage_error():
    # --format belongs to the subcommands; argparse reports this as usage,
    # not as an "error:" line, so it is not a case of the malformed list.
    # Its error line names the option and where it goes.
    code, out, err = run("--format", "json", "describe", "G", "2")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("usage:") and "Traceback" not in err
    assert err.splitlines()[-1] == (
        "sl2bounds: error: argument --format: goes after the command, as in "
        "'sl2bounds describe G 2 --format json'")


def test_describe_json():
    code, out, _ = run("describe", "G", "2", "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["num_positive_roots"] == 6
    assert obj["dim"] == 14


def test_character_dimensions():
    for args, dim in ((("G", "2", "1", "0"), 7),
                      (("G", "2", "0", "0"), 1),
                      (("A", "2", "1", "1"), 8)):
        code, out, _ = run("character", *args, "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["dimension"] == dim


def test_character_usage_errors():
    code, _, err = run("character", "G", "2", "1")
    assert code == EXIT_USAGE
    code, _, _ = run("character", "Z", "2", "1", "0")
    assert code == EXIT_USAGE


def test_branch_command():
    code, out, _ = run("branch", "G", "2", "1", "0", "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["decomposition"] == {"6": 1}
    assert obj["g0"] == 7


def test_table1_golden_block():
    code, out, _ = run("table1", "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["header"] == ["i\\j", *range(20)]
    rows = obj["rows"]
    assert [r[0] for r in rows] == list(range(20))
    assert [[r[1], r[2], r[3]] for r in rows[:3]] == [[1, 0, 1], [0, 0, 0],
                                                      [0, 0, 1]]


def test_table2_spot_values():
    code, out, _ = run("table2", "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert len(rows) == 20 and {len(r) for r in rows} == {21}
    assert rows[1][1] == 7   # g0(omega_1)
    assert rows[0][2] == 3
    assert rows[5][6] == 1


def test_table_golden_mode_small_box():
    # The tables are the paper's 20 x 20 grids; no option makes them
    # smaller, so the golden check covers every cell.
    for table in ("table1", "table2"):
        code, _, err = run(table, "--golden")
        assert code == EXIT_OK
        assert "golden check passed" in err


def test_bound_command():
    code, out, _ = run("bound", "G", "2", "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["b"] == 8
    assert obj["m_values"] == [4, 2]


def test_bound_root_embedding_spec():
    code, out, _ = run("bound", "A", "2", "--embedding", "root=1,1",
                       "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["m_values"] == [1, 1]


def test_complement_command():
    code, out, _ = run("complement", "--gen", "2", "--gen", "3",
                       "--box-bound", "10", "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["points"] == [[1]]
    assert obj["certified"]


def test_complement_uncertified_exit_code():
    code, out, err = run("complement", "--gen", "0,2", "--gen", "0,17",
                       "--gen", "4,0", "--gen", "15,0", "--gen", "5,1",
                       "--gen", "1,3", "--box-bound", "17",
                       "--format", "json")
    assert code == EXIT_NUMERIC
    assert err.startswith("numeric error: complement not certified")
    assert err.count("\n") == 1


_ODD_BELOW_64 = json.dumps([[k] for k in range(1, 64, 2)])


@pytest.mark.parametrize("argv,stdout,reason", [
    (("bound", "G", "2", "--cap", "1"), "", "m-value not found"),
    (("complement", "--gen", "2"),
     f"32 non-members (certified=False):\n{_ODD_BELOW_64}\n",
     "complement not certified"),
], ids=["bound-m-cap", "complement-uncertified"])
def test_cap_and_certification_failures_exit_3(argv, stdout, reason):
    code, out, err = run(*argv)
    assert (code, out) == (EXIT_NUMERIC, stdout)
    assert err.startswith("numeric error: " + reason) and err.count("\n") == 1


class _WeightsWalked(Exception):
    pass


@pytest.fixture
def refuse_weights(monkeypatch):
    """Make the dominant-weight enumeration and the orbit expansion raise,
    so that a request answers only from the product formula or the
    parabolic sum."""
    from sl2bounds import character

    def refuse(rs, lam, *marks):
        raise _WeightsWalked(lam)

    monkeypatch.setattr(character, "_dominant_weights", refuse)
    monkeypatch.setattr(character, "_by_orbits", refuse)


def test_principal_requests_build_no_box(refuse_weights):
    for argv in (("table1", "--golden"), ("table2", "--golden"),
                 ("exceptions",), ("bound", "G", "2"),
                 ("branch", "G", "2", "1", "1"),
                 ("branch", "G", "2", "1", "1", "--embedding", "root=1,0"),
                 ("branch", "E", "8", "3", "0", "0", "0", "0", "0", "0", "5")):
        code, _, err = run(*argv)
        assert code == EXIT_OK, (argv, err)
    with pytest.raises(_WeightsWalked):
        run("character", "G", "2", "1", "1")


_FROZEN = json.loads((Path(__file__).parent / "data"
                      / "large_root_histograms.json").read_text())


@pytest.mark.parametrize("entry", _FROZEN, ids=[
    "{}{}-{}".format(*e["type"], "".join(map(str, e["root"]))) for e in _FROZEN])
def test_root_requests_answer_without_weights(refuse_weights, entry):
    # The benchmark's root-sl2 requests, answered by the parabolic sum.
    code, out, err = run("branch", *map(str, entry["type"]),
                         *map(str, entry["lambda"]), "--embedding",
                         "root=" + ",".join(map(str, entry["root"])),
                         "--format", "json")
    assert code == EXIT_OK, err
    N = json.loads(out)["weight_values"]
    assert sorted([int(v), n] for v, n in N.items()) == entry["weight_values"]


_E8_PAST_CAP = ("E", "8", "3", "0", "0", "0", "0", "0", "0", "5")


@pytest.mark.parametrize("argv,budget", [
    (("character", *_E8_PAST_CAP), 1.0),
    (("character", "A", "1", "9999999"), 2.0),
    (("branch", "A", "2", "1000000", "1000000", "--embedding", "root=1,1"),
     1.0),
    (("branch", "A", "1", "2000000"), 1.0),
    (("branch", "A", "1", "9223372036854775806"), 1.0),
    (("branch", "A", "2", "4611686018427387904", "4611686018427387904"), 1.0),
], ids=["character", "dominant-weights", "parabolic-degree",
        "principal-degree", "principal-huge", "principal-int64"])
def test_weight_cap_refuses_fast(argv, budget):
    start = time.perf_counter()
    code, out, err = run(*argv)
    assert time.perf_counter() - start < budget
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err.startswith("numeric error:") and err.count("\n") == 1
    assert "weight cap" in err


def test_e8_root_branch_answers():
    # Past the weight cap, but the highest-root sl2 has only 240 cosets.
    from sl2bounds import Weight, build, weyl_dimension
    start = time.perf_counter()
    code, out, err = run("branch", *_E8_PAST_CAP,
                         "--embedding", "root=2,3,4,6,5,4,3,2",
                         "--format", "json")
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (EXIT_OK, "")
    dec = json.loads(out)["decomposition"]
    assert sum((int(k) + 1) * m for k, m in dec.items()) == weyl_dimension(
        build([("E", 8)]), Weight(tuple(map(int, _E8_PAST_CAP[2:]))))


@pytest.mark.parametrize("argv,invariant_dim", [
    ("E 8 3 0 0 0 0 0 0 5 --embedding root=2,3,4,6,5,4,3,2",
     41304595834228650),
    ("F 4 2 1 1 1 --embedding root=1,2,3,2", 2416896),
    ("E 6 1 0 1 0 0 1 --embedding root=1,2,2,3,2,1", 19320),
    ("C 4 3 3 3 3 --embedding root=2,2,2,1", 56623104),
    ("G 2 30 40 --embedding root=1,0", 11726),
], ids=["E8", "F4", "E6", "C4", "G2"])
def test_branch_invariant_dims_of_the_console_checks(argv, invariant_dim):
    # The console-script checks of CI, in process: coset sums over tables
    # whose upper levels are w0 images, and over Levi coroot pairings that
    # differ from the root pairings.
    code, out, _ = run("branch", *argv.split())
    assert code == EXIT_OK
    assert f"  invariant dim: {invariant_dim}, g0: 1" in out.splitlines()


def test_orbit_expansion_answers_the_e8_console_check(answered, builds):
    # Marks that are not certified: one warning, and the orbit expansion
    # answers without building a coset table.
    code, out, err = run("branch", "E", "8", "1", "0", "0", "0", "0", "0",
                         "0", "0", "--embedding", "marks=2,2,2,0,2,2,2,2")
    assert code == EXIT_OK and err.count("warning:") == 1
    assert "  invariant dim: 2, g0: 1" in out.splitlines()
    assert answered == {"_by_orbits": 1} and builds == []


def test_parabolic_table_d40_last_row():
    code, out, _ = run("parabolic-table", "D", "40", "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines()[-1] == "40,A39,1561,781"


def test_character_e8_omega1():
    code, out, _ = run("character", "E", "8", "1", "0", "0", "0", "0", "0",
                       "0", "0", "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["dimension"] == 3875
    assert sorted(m for _, m in obj["mults"]) == [1, 7, 35]


def test_parabolic_and_e_tables():
    code, out, _ = run("parabolic-table", "G", "2", "--format", "csv")
    assert code == EXIT_OK
    assert "1,A1,11,6" in out
    code, out, _ = run("e-table", "G2", "A2", "--format", "csv")
    assert "G2,6" in out and "A2,3" in out
    assert run("e-table", "g2", "a2", "--format", "csv") == (code, out, "")
    # no type has rank <= 0: the text table is its header alone
    assert run("e-table", "--rank-cap", "0") == (EXIT_OK, "type  e\n", "")


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone, as in `sl2bounds ... | head -1`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [
    ("e-table", "--rank-cap", "30", "--format", "csv"), ("describe", "G", "2")])
def test_closed_stdout_ends_quietly(monkeypatch, argv):
    # A closed pipe ends the command with exit 0 and nothing on stderr, and
    # stdout is left on devnull, where the interpreter's last flush goes.
    err = io.StringIO()
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    monkeypatch.setattr(sys, "stderr", err)
    assert main(list(argv)) == EXIT_OK
    assert err.getvalue() == ""
    assert sys.stdout.name == os.devnull
    sys.stdout.close()


def test_csv_is_refused_where_no_table_is_printed(monkeypatch):
    # Only table1, table2, parabolic-table and e-table print a table; the
    # other commands refuse --format csv as usage, before computing anything.
    def forbidden(*args, **kwargs):
        raise AssertionError("computed before refusing --format csv")

    monkeypatch.setattr(cli, "build", forbidden)
    monkeypatch.setattr(cli.semigroup, "complement", forbidden)
    monkeypatch.setattr(cli.bounds, "E_set", forbidden)
    for argv in (("describe", "G", "2"), ("character", "G", "2", "1", "0"),
                 ("branch", "G", "2", "1", "0"), ("bound", "G", "2"),
                 ("exceptions",), ("complement", "--gen", "2"),
                 ("exclusion-set", "8")):
        code, out, err = run(*argv, "--format", "csv")
        assert (code, out) == (EXIT_USAGE, ""), argv
        assert "argument --format: invalid choice: 'csv'" in err, argv


def test_exclusion_set_command():
    code, out, _ = run("exclusion-set", "8", "--format", "json")
    assert code == EXIT_OK
    assert len(json.loads(out)["types"]) == 14
    # e(s) > rank(s) bounds the ranks walked, so there is no rank cap
    assert run("exclusion-set", "8", "--rank-cap", "10")[0] == EXIT_USAGE
    # dim_k 0 and 1 have no simple type of rank below them: no type
    for dim_k in ("0", "1"):
        assert run("exclusion-set", dim_k) == (EXIT_OK, "\n", "")


@pytest.mark.parametrize("dim_k", ["65", "1000", str(2**64)])
def test_exclusion_set_cap_refuses_fast(dim_k):
    # E_set walks every simple type of rank below dim_k; past E_SET_CAP
    # it refuses before walking any.
    start = time.perf_counter()
    code, out, err = run("exclusion-set", dim_k)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (EXIT_NUMERIC, "")
    assert err == f"numeric error: dim_k = {dim_k} exceeds cap 64\n"


@pytest.mark.parametrize("command", [("branch", "G", "2", "1", "1"),
                                     ("bound", "G", "2")], ids=lambda c: c[0])
def test_custom_marks_print_one_warning(command):
    # marks=2,2 are G2's principal marks: the output is that of the
    # principal embedding, plus one warning that marks are not certified.
    principal = run(*command, "--format", "json")
    code, out, err = run(*command, "--embedding", "marks=2,2",
                         "--format", "json")
    assert (code, out) == principal[:2] and principal[2] == ""
    assert err.startswith("warning: marks [2, 2] are not certified")
    assert err.count("\n") == 1


def test_marks_with_a_half_integral_lambda_of_h_exit_3():
    code, out, err = run("branch", "A", "1", "1", "--embedding", "marks=1")
    assert (code, out) == (EXIT_NUMERIC, "")
    warning, error = err.splitlines()
    assert warning.startswith("warning: marks [1] are not certified")
    assert error == "numeric error: lambda(h) is not integral: 1/2"


def _alter_fixture(monkeypatch, key, edit):
    """Make cli._load_fixture hand out fixtures with key changed by edit."""
    load = cli._load_fixture

    def altered(name):
        data = load(name)
        if key in data:
            edit(data[key])
        return data

    monkeypatch.setattr(cli, "_load_fixture", altered)


def test_table_golden_mismatch_exits_2(monkeypatch):
    _alter_fixture(monkeypatch, "table", lambda t: t[1].__setitem__(0, 5))
    code, out, err = run("table1", "--golden")
    assert code == EXIT_GOLDEN_MISMATCH and out.startswith("i\\j")
    assert err == "dim^K[1][0]: got 0, expected 5\n"


def test_exceptions_mismatch_exits_2(monkeypatch):
    _alter_fixture(monkeypatch, "weights", list.pop)
    code, out, err = run("exceptions")
    assert code == EXIT_GOLDEN_MISMATCH and out.count("\n") == 26
    assert err == "exception list differs from the embedded 26-pair list\n"


def test_determinism():
    a = run("table1", "--format", "csv")
    b = run("table1", "--format", "csv")
    assert a == b


@pytest.mark.parametrize("argv", [
    ("complement", "--gen", "a,b"),
    ("complement", "--gen", ""),
    ("branch", "G", "2", "1", "1", "--embedding", "root=1,x"),
    ("branch", "G", "2", "1", "1", "--embedding", "marks=1,x"),
    ("branch", "G", "2", "1", "--embedding", "marks=2,2"),
    ("e-table", "G"),
    ("e-table", "Gx"),
    ("e-table", "2"),
    ("bound", "G", "2", "--cap", "0"),
    ("bound", "G", "2", "--cap", "-1"),
    ("complement", "--gen", "1,0,0", "--gen", "0,1,0", "--gen", "0,0,1",
     "--box-bound", "100000"),
    ("exclusion-set", "-3"),
    ("describe", "A", "100000"),
], ids=["gen-letters", "gen-empty", "root-letter", "marks-letter",
        "weight-short-with-marks", "type-no-rank", "type-letter-rank",
        "type-no-family", "bound-cap-zero", "bound-cap-negative",
        "complement-box-past-cap", "exclusion-set-negative",
        "describe-past-root-cap"])
def test_malformed_input_gives_one_error_line(argv):
    code, out, err = run(*argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


_FIELD = st.text(alphabet="0123456789,-x ", max_size=6)


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(["root=", "marks=", ""]), field=_FIELD,
       gens=st.lists(_FIELD, max_size=3))
def test_fuzzed_arguments_never_escape(spec, field, gens):
    for argv in (("branch", "G", "2", "1", "1", "--embedding", spec + field),
                 ("complement", "--box-bound", "12",
                  *(a for g in gens for a in ("--gen", g)))):
        code, _, err = run(*argv)
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_NUMERIC), argv
        assert "Traceback" not in err, argv
        if code == EXIT_USAGE:
            assert "error:" in err, argv


_SMALL_OR_HUGE = st.one_of(st.integers(0, 6), st.integers(2**32, 2**64))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_fuzzed_huge_weights_never_escape(data):
    # Weights past any cap, past int64 included, under the principal sl2
    # and every root sl2: an answer, or exit 3 with one line.
    from sl2bounds import build
    fam, rank = data.draw(st.sampled_from([("A", 1), ("A", 2), ("G", 2)]))
    lam = data.draw(st.lists(_SMALL_OR_HUGE, min_size=rank, max_size=rank))
    specs = ["principal"] + ["root=" + ",".join(map(str, beta))
                             for beta in build([(fam, rank)]).positive_roots]
    for spec in specs:
        code, out, err = run("branch", fam, str(rank), *map(str, lam),
                             "--embedding", spec)
        assert code in (EXIT_OK, EXIT_NUMERIC), (lam, spec)
        if code == EXIT_NUMERIC:
            assert out == "" and err.count("\n") == 1, (lam, spec)
            assert err.startswith("numeric error:"), (lam, spec)
