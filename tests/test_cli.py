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


def test_parser_is_built_once_and_keeps_no_state(monkeypatch):
    built, init = [], argparse.ArgumentParser.__init__

    def counting(*args, **kwargs):
        built.append(1)
        init(*args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._build_parser.cache_clear()
    commands = [("complement", "--gen", "2", "--gen", "3"),
                ("complement", "--gen", "5"),
                ("complement", "--gen", "2", "--gen", "3")]
    try:
        outputs, counts = [], []
        for argv in commands:
            outputs.append(run(*argv))
            counts.append(len(built))
    finally:
        cli._build_parser.cache_clear()
    assert counts[0] > 1 and counts == [counts[0]] * len(commands)
    # no --gen default leaks from one call into the next
    assert outputs == [fresh(*argv) for argv in commands]


def test_format_before_the_command_is_a_usage_error():
    # --format belongs to the subcommands; argparse reports this as usage,
    # not as an "error:" line, so it is not a case of the malformed list.
    code, out, err = run("--format", "json", "describe", "G", "2")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("usage:") and "Traceback" not in err


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
    code, out, _ = run("table1", "--max-i", "2", "--max-j", "2",
                       "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert [[r[1], r[2], r[3]] for r in rows] == [[1, 0, 1], [0, 0, 0],
                                                  [0, 0, 1]]


def test_table2_spot_values():
    code, out, _ = run("table2", "--max-i", "5", "--max-j", "5",
                       "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert rows[1][1] == 7   # g0(omega_1)
    assert rows[0][2] == 3
    assert rows[5][6] == 1


def test_table_golden_mode_small_box():
    code, _, err = run("table1", "--max-i", "4", "--max-j", "4", "--golden")
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
    # exceptions words its uncertified complement as complement does
    gens = cli._load_fixture("g2_semigroup_complement9.json")["generators"]
    code, _, err = run("complement", *(a for g in gens for a in (
        "--gen", ",".join(map(str, g)))), "--box-bound", "20")
    assert (code, err) == run("exceptions", "--box-bound", "20")[::2]


_ODD_BELOW_64 = json.dumps([[k] for k in range(1, 64, 2)])


@pytest.mark.parametrize("argv,stdout,reason", [
    (("bound", "G", "2", "--cap", "1"), "", "m-value not found"),
    (("exclusion-set", "8", "--rank-cap", "0"), "", "rank_cap 0 too small"),
    (("exceptions", "--box-bound", "20"), "", "complement not certified"),
    (("complement", "--gen", "2"),
     f"32 non-members (certified=False):\n{_ODD_BELOW_64}\n",
     "complement not certified"),
], ids=["bound-m-cap", "exclusion-rank-cap", "exceptions-uncertified",
        "complement-uncertified"])
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
    monkeypatch.setattr(character, "_orbit_degrees", refuse)


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


def test_exclusion_set_command():
    code, out, _ = run("exclusion-set", "8", "--format", "json")
    assert code == EXIT_OK
    assert len(json.loads(out)["types"]) == 14


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


def test_determinism():
    a = run("table1", "--max-i", "3", "--max-j", "3", "--format", "csv")
    b = run("table1", "--max-i", "3", "--max-j", "3", "--format", "csv")
    assert a == b


def test_complement_generators_file(tmp_path):
    f = tmp_path / "gens.json"
    f.write_text("[[2], [3]]")
    code, out, _ = run("complement", "--generators-file", str(f),
                       "--box-bound", "10", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["points"] == [[1]]


@pytest.mark.parametrize("argv", [
    ("complement", "--gen", "a,b"),
    ("complement", "--gen", ""),
    ("branch", "G", "2", "1", "1", "--embedding", "root=1,x"),
    ("branch", "G", "2", "1", "1", "--embedding", "marks=1,x"),
    ("branch", "G", "2", "1", "--embedding", "marks=2,2"),
    ("complement", "--generators-file", "MISSING"),
    ("complement", "--generators-file", "OBJECT"),
    ("e-table", "G"),
    ("e-table", "Gx"),
    ("e-table", "2"),
    ("table1", "--max-i", "-1"),
    ("table1", "--max-i", "25", "--golden"),
    ("bound", "G", "2", "--cap", "0"),
    ("bound", "G", "2", "--cap", "-1"),
    ("complement", "--gen", "1,0,0", "--gen", "0,1,0", "--gen", "0,0,1",
     "--box-bound", "100000"),
    ("exceptions", "--box-bound", "100000"),
], ids=["gen-letters", "gen-empty", "root-letter", "marks-letter",
        "weight-short-with-marks",
        "file-missing", "file-object", "type-no-rank", "type-letter-rank",
        "type-no-family", "table-negative", "golden-out-of-range",
        "bound-cap-zero", "bound-cap-negative", "complement-box-past-cap",
        "exceptions-box-past-cap"])
def test_malformed_input_gives_one_error_line(argv, tmp_path):
    obj = tmp_path / "object.json"
    obj.write_text('{"generators": [[2], [3]]}')
    paths = {"MISSING": str(tmp_path / "missing.json"), "OBJECT": str(obj)}
    code, out, err = run(*(paths.get(a, a) for a in argv))
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
