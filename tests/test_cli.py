import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2bounds.cli import (EXIT_GOLDEN_MISMATCH, EXIT_NUMERIC, EXIT_OK,
                           EXIT_USAGE, main)


def run(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


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


def test_bound_cap_failure_exit_code():
    code, _, err = run("bound", "G", "2", "--cap", "1")
    assert code == EXIT_NUMERIC
    assert "m-value not found" in err


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
    assert err.startswith("complement not certified") and err.count("\n") == 1
    code, out, err = run("complement", "--gen", "2")
    assert code == EXIT_NUMERIC
    assert err.startswith("complement not certified") and err.count("\n") == 1


class _BoxBuilt(Exception):
    pass


def test_principal_requests_build_no_box(monkeypatch):
    from sl2bounds import character

    def refuse(rs, lam):
        raise _BoxBuilt(lam)

    monkeypatch.setattr(character, "_freudenthal_box", refuse)
    for argv in (("table1", "--golden"), ("table2", "--golden"),
                 ("exceptions",), ("bound", "G", "2"),
                 ("branch", "G", "2", "1", "1"),
                 ("branch", "E", "8", "3", "0", "0", "0", "0", "0", "0", "5")):
        code, _, err = run(*argv)
        assert code == EXIT_OK, (argv, err)
    with pytest.raises(_BoxBuilt):
        run("branch", "G", "2", "1", "1", "--embedding", "root=1,0")


def test_parabolic_and_e_tables():
    code, out, _ = run("parabolic-table", "G", "2", "--format", "csv")
    assert code == EXIT_OK
    assert "1,A1,11,6" in out
    code, out, _ = run("e-table", "G2", "A2", "--format", "csv")
    assert "G2,6" in out and "A2,3" in out


def test_exclusion_set_command():
    code, out, _ = run("exclusion-set", "8", "--format", "json")
    assert code == EXIT_OK
    assert len(json.loads(out)["types"]) == 14


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
    ("complement", "--generators-file", "MISSING"),
    ("complement", "--generators-file", "OBJECT"),
], ids=["gen-letters", "gen-empty", "root-letter", "marks-letter",
        "file-missing", "file-object"])
def test_malformed_input_gives_one_error_line(argv, tmp_path):
    obj = tmp_path / "object.json"
    obj.write_text('{"generators": [[2], [3]]}')
    paths = {"MISSING": str(tmp_path / "missing.json"), "OBJECT": str(obj)}
    code, _, err = run(*(paths.get(a, a) for a in argv))
    assert code == EXIT_USAGE
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
