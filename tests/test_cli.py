"""The command-line interface, run in-process."""

import contextlib
import csv
import io
import json
import pathlib
import re
import shlex

import pytest

from confspace import cli, selftest

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_arnold_poincare_example(capsys):
    code, out, _ = run(capsys, "arnold", "poincare", "--k", "4", "--n", "3")
    assert code == 0
    assert out.strip() == "1 + 6t^2 + 11t^4 + 6t^6"


def test_modp_swan_example(capsys):
    code, out, _ = run(capsys, "modp", "swan", "--p", "5")
    assert code == 0
    assert out.strip() == "8"


def test_ce_betti_example(capsys):
    code, out, _ = run(capsys, "ce", "betti", "--preset", "punctured-torus",
                       "--k", "2")
    assert code == 0
    rows = {line.split()[0]: line.split()[1]
            for line in out.strip().splitlines()[1:]}
    assert rows["2"] == "2"


def test_json_format(capsys):
    code, out, _ = run(capsys, "--format", "json", "modp", "swan", "--p", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"p": 7, "swan_period": 12}


def test_format_flag_after_subcommand(capsys):
    code, out, _ = run(capsys, "modp", "swan", "--p", "7", "--format", "json")
    assert code == 0
    assert json.loads(out)["swan_period"] == 12


def test_modp_swan_closed_form_json(capsys):
    code, out, _ = run(capsys, "modp", "swan", "--p", "11", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"p": 11, "swan_period": 20}


def test_csv_format(capsys):
    code, out, _ = run(capsys, "--format", "csv", "unordered-betti",
                       "--k", "4", "--n", "3")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["degree", "dim"]
    assert rows[1] == ["0", "1"]


def test_arnold_basis_and_normalform(capsys):
    code, out, _ = run(capsys, "arnold", "basis", "--k", "3", "--n", "2",
                       "--degree", "1")
    assert code == 0
    assert out.splitlines()[1:] == ["a12", "a13", "a23"]
    code, out, _ = run(capsys, "arnold", "normalform", "--k", "3", "--n", "2",
                       "--word", "a13*a12")
    assert code == 0
    body = out.splitlines()[1:]
    # reordering the factors costs one Koszul sign in the plane
    assert len(body) == 1 and body[0].split() == ["a12*a13", "-1"]


def test_forest_commands(capsys):
    code, out, _ = run(capsys, "forest", "basis", "--k", "3", "--n", "2",
                       "--degree", "2")
    assert code == 0
    assert len(out.splitlines()) == 3  # header + two tall trees
    code, out, _ = run(capsys, "forest", "rewrite", "--n", "2",
                       "--forest", "(1(23))")
    assert code == 0
    code, out, _ = run(capsys, "--format", "json", "forest", "pair",
                       "--k", "4", "--n", "2", "--degree", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["unimodular"] is True


def test_ce_commands(capsys):
    code, out, _ = run(capsys, "ce", "stability", "--preset", "solid-torus",
                       "--kmax", "2")
    assert code == 0
    code, out, _ = run(capsys, "ce", "euler", "--preset", "punctured-torus",
                       "--weight-bound", "4")
    assert code == 0
    code, out, _ = run(capsys, "ce", "labeled-check", "--preset",
                       "solid-torus", "--r", "2", "--degree-bound", "12")
    assert code == 0
    assert out.strip() == "pass"
    code, out, err = run(capsys, "ce", "stress", "--genus", "1", "--k", "2")
    assert code == 0
    assert "degree" in out
    assert "chains" in out


def test_ce_stress_genus_two_rows(capsys):
    code, out, _ = run(capsys, "--format", "json", "ce", "stress",
                       "--genus", "2", "--k", "7")
    assert code == 0
    doc = json.loads(out)
    assert (doc["algebra"], doc["k"]) == ("closed-surface-2", 7)
    chains = [1, 5, 15, 36, 75, 141, 245, 316, 245, 141, 75, 36, 15, 5, 1]
    dims = [1, 4, 6, 16, 28, 48, 75, 75, 25, 0, 0, 0, 0, 0, 0]
    assert doc["rows"] == [{"degree": d, "chains": c, "dim": h}
                           for d, (c, h) in enumerate(zip(chains, dims))]


def test_ce_algebra_file(tmp_path, capsys):
    from confspace import presets
    doc = presets.preset_document("twice-punctured-plane")
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "--format", "json", "ce", "betti",
                       "--algebra", str(path), "--k", "2")
    assert code == 0
    assert json.loads(out)["dims"]["2"] == 3


def test_braid_commands(capsys):
    code, out, _ = run(capsys, "braid", "present", "--group", "symmetric",
                       "--k", "3")
    assert code == 0
    assert out.startswith("gens:")
    code, out, _ = run(capsys, "--format", "json", "braid", "subgroup",
                       "--group", "braid", "--k", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["abelianization"] == "Z^3"
    assert doc["cosets"] == 6
    code, out, _ = run(capsys, "braid", "verify", "--k", "4")
    assert code == 0


def test_braid_subgroup_of_trivial_group_is_refused(capsys):
    for group in ("braid", "symmetric"):
        code, out, _ = run(capsys, "--format", "json", "braid", "subgroup",
                           "--group", group, "--k", "1")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "GroupError"


def test_braid_stabilizer_subgroup(capsys):
    code, out, _ = run(capsys, "--format", "json", "braid", "subgroup",
                       "--group", "braid", "--k", "4",
                       "--kind", "stabilizer", "--point", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["cosets"] == 4


def test_braid_point_needs_stabilizer_kind(capsys):
    argv = ("braid", "subgroup", "--k", "3", "--point", "7")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: --point applies only to --kind stabilizer\n"
    code, out, _ = run(capsys, "--format", "json", *argv)
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "CliError",
        "message": "--point applies only to --kind stabilizer"}


def test_braid_sign_kernel_subgroup(capsys):
    code, out, _ = run(capsys, "--format", "csv", "braid", "subgroup",
                       "--k", "3", "--target", "sign")
    assert code == 0
    assert list(csv.reader(io.StringIO(out)))[1] == [
        "braid", "3", "sign", "kernel", "2", "3", "2", "Z x Z/3"]


def test_braid_stabilizer_point_zero_is_refused(capsys):
    # only an absent --point defaults to k; 0 is out of range like k + 1
    for point in ("0", "4"):
        code, out, _ = run(capsys, "--format", "json", "braid", "subgroup",
                           "--k", "3", "--kind", "stabilizer", "--point", point)
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "GroupError", "message": "stabilized point out of range"}
    code, out, _ = run(capsys, "--format", "json", "braid", "subgroup",
                       "--k", "3", "--kind", "stabilizer")
    assert code == 0
    assert json.loads(out)["point"] == 3


def test_modp_commands(capsys):
    code, out, _ = run(capsys, "modp", "vanishing", "--p", "3", "--n", "2")
    assert code == 0
    assert out.strip() == "true"
    code, out, _ = run(capsys, "modp", "invariants", "--p", "5", "--n", "2")
    assert code == 0
    code, out, _ = run(capsys, "--format", "json", "modp", "tate",
                       "--p", "3", "--n", "2", "--t", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["tables"]["2"] == {"dims": {str(s): 1 for s in range(-6, 7)}}
    code, out, _ = run(capsys, "modp", "cohen", "--p", "5", "--n", "2",
                       "--degree-bound", "8")
    assert code == 0
    assert out == "degree  dim\n0       1\n1       1\n"


def test_series_json_documents(capsys):
    code, out, _ = run(capsys, "--format", "json", "ce", "euler",
                       "--preset", "punctured-torus", "--weight-bound", "4")
    assert code == 0
    assert json.loads(out) == {
        "algebra": "punctured-torus", "weight_bound": 4,
        "series": "1 - s + s^2 - s^3 + s^4",
        "euler_by_weight": {"0": 1, "1": -1, "2": 1, "3": -1, "4": 1}}
    code, out, _ = run(capsys, "--format", "json", "modp", "cohen",
                       "--p", "5", "--n", "2", "--degree-bound", "8")
    assert code == 0
    assert json.loads(out) == {
        "p": 5, "n": 2, "degree_bound": 8, "series": "1 + t",
        "coefficients": {"0": 1, "1": 1}}


def test_single_value_csv(capsys):
    code, out, _ = run(capsys, "modp", "swan", "--p", "5", "--format", "csv")
    assert (code, out) == (0, "value\n8\n")


def test_selftest_subset(capsys):
    code, out, err = run(capsys, "selftest", "--checks", "6", "--workers", "1")
    assert code == 0
    assert "surface-two-points" in out
    assert "pass" in out
    assert "[1/1]" in err


def test_selftest_parallel_matches_serial(capsys):
    def rows(workers):
        code, out, err = run(capsys, "--format", "csv", "selftest",
                             "--checks", "1,6", "--workers", workers)
        assert code == 0
        # one progress line per check, in check order, whatever the worker count
        assert re.sub(r"\(\d+\.\d+s\)", "(s)", err) == (
            "[1/2] arnold-census: ok (s)\n[2/2] surface-two-points: ok (s)\n")
        table = list(csv.reader(io.StringIO(out)))
        seconds = table[0].index("seconds")
        return [row[:seconds] + row[seconds + 1:] for row in table]

    parallel = rows("2")
    assert [row[:3] for row in parallel[1:]] == [
        ["1", "arnold-census", "pass"], ["6", "surface-two-points", "pass"]]
    assert parallel == rows("1")


def test_error_paths(capsys):
    code, out, err = run(capsys, "ce", "betti", "--preset", "nope", "--k", "2")
    assert code == 2
    assert "error:" in err
    code, out, _ = run(capsys, "--format", "json", "ce", "betti",
                       "--preset", "nope", "--k", "2")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "PresetError"
    code, out, err = run(capsys, "modp", "swan", "--p", "9")
    assert code == 2


def test_workers_is_a_selftest_option(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["arnold", "poincare", "--k", "3", "--n", "2",
                  "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    code, out, err = run(capsys, "selftest", "--checks", "6", "--workers", "0")
    assert (code, out) == (2, "")
    assert err == "error: --workers must be positive\n"


@pytest.mark.parametrize("checks, message", [
    ("14-16", "no check numbered 16"),
    ("1,17", "no check numbered 17"),
    ("5-3", "check range 5-3 runs backwards"),
    (",", "--checks ',' names no check"),
])
def test_selftest_refuses_unknown_checks(capsys, checks, message):
    code, out, _ = run(capsys, "--format", "json", "selftest", "--checks", checks,
                       "--workers", "1")
    assert (code, json.loads(out)["error"]) == (2, {"type": "CliError", "message": message})


def test_absent_checks_name_every_check():
    assert cli._parse_checks(None) == [num for num, _, _, _ in selftest.CHECKS]
    assert cli._parse_checks(None) == list(range(1, 16))


def test_missing_algebra_source(capsys):
    code, out, err = run(capsys, "ce", "betti", "--k", "2")
    assert code == 2
    assert "need --preset" in err


def test_cli_output_matches_golden():
    """Replay scripts/record_cli_golden.py's sweep: exit codes and stdout."""
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) > 100
    for line, expected in golden.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(shlex.split(line))
            except SystemExit as exc:
                code = exc.code
        assert [code, out.getvalue()] == expected, line
