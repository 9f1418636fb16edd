"""Command line behavior: verbs, exit codes, and JSON reports."""

import hashlib
import json
import re

import pytest

from octaforms import escalation, polygonal
from octaforms.cli import run


def _no_floats(obj):
    if isinstance(obj, float):
        return False
    if isinstance(obj, dict):
        return all(_no_floats(k) and _no_floats(v) for k, v in obj.items())
    if isinstance(obj, list):
        return all(_no_floats(x) for x in obj)
    return True


def test_usage_errors():
    assert run(["frobnicate"]) == 2
    assert run(["psi", "--coeffs", "2,2,3"]) == 2  # missing --n
    assert run(["verify", "nonsense"]) == 2
    assert run(["psi", "--coeffs", "3,2", "--n", "2"]) == 2  # unsorted coefficients


def test_sieve_and_psi(capsys, tmp_path):
    out = tmp_path / "r.json"
    assert run(["sieve", "--coeffs", "2,3,4,6", "--bound", "200", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "missing" in text and "18" in text
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert report["results"]["missing_head"] == [18]
    assert _no_floats(report)

    assert run(["psi", "--coeffs", "2,2,3", "--n", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["results"]["psi"] == 6
    capsys.readouterr()
    assert run(["psi", "--coeffs", "2,2,3,4", "--n", "2", "--out", str(out)]) == 0
    assert "no gap in [2, 50000]" in capsys.readouterr().out
    assert json.loads(out.read_text())["results"]["psi"] is None


def test_check_exit_codes(tmp_path):
    out = tmp_path / "r.json"
    assert run(["check", "--coeffs", "2,3,4,5", "--n", "2", "--bound", "50000",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["results"]["verdict"] == "tight"
    assert run(["check", "--coeffs", "2,2,3", "--n", "2", "--bound", "50000",
                "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["status"] == "fail"
    assert report["results"] == {"verdict": "misses_criterion", "value": 6,
                                 "criterion": [2, 3, 4, 6, 8, 9, 11, 12, 14, 18]}


def test_escalate_report(tmp_path, capsys):
    out = tmp_path / "t2.json"
    assert run(["escalate", "--n", "2", "--bound", "50000", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert _no_floats(report)
    depths = report["results"]["trace"]["depths"]
    assert [len(d["E"]) for d in depths] == [1, 1, 2, 9, 52, 30]
    assert report["results"]["new_count"] == 57
    assert report["bound_used"] == 50000
    assert isinstance(report["elapsed_ms"], int)


def test_criterion_verb(capsys):
    assert run(["criterion", "--n", "4", "--bound", "50000"]) == 0
    assert "[4, 5, 6, 7, 8, 23, 28]" in capsys.readouterr().out


def test_verify_round_trip(tmp_path, capsys):
    assert run(["verify", "t2"]) == 0
    assert "set-equal with escalation: True" in capsys.readouterr().out
    # traces are recomputed, never read back: the flag is gone
    out = tmp_path / "t2.json"
    assert run(["escalate", "--n", "2", "--bound", "50000", "--out", str(out)]) == 0
    assert run(["verify", "t2", "--trace", str(out)]) == 2


def test_verify_z_table(tmp_path, capsys):
    out = tmp_path / "z.json"
    assert run(["verify", "z-table", "--bound", "5000", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert text.count("ok (") == 26
    report = json.loads(out.read_text())
    assert report["status"] == "pass"
    assert report["results"]["z-table"]["rows"] == 26


def test_verify_detects_broken_data(tmp_path, capsys):
    # corrupt one Z-set and expect a verification failure
    from octaforms.tables import bundled_table_path, TABLE_FILES

    data_dir = tmp_path / "data"
    data_dir.mkdir()
    for t, name in TABLE_FILES.items():
        data_dir.joinpath(name).write_text(bundled_table_path(t).read_text())
    broken = data_dir / TABLE_FILES[1]
    broken.write_text(broken.read_text().replace("expect=Z:8,11", "expect=Z:8,12"))
    assert run(["verify", "z-table", "--bound", "5000", "--data-dir", str(data_dir)]) == 1


def test_verify_detects_broken_fixtures(tmp_path, capsys):
    # swap a recorded transform for the scaled identity: condition (i) fails
    from octaforms.fixtures import bundled_fixture_path

    path = tmp_path / "fx.txt"
    path.write_text(
        bundled_fixture_path().read_text().replace(
            "T = 3 0 -18 / 0 9 0 / 4 0 3", "T = 9 0 0 / 0 9 0 / 0 0 9"
        )
    )
    assert run(["verify", "lemmas", "--fixtures", str(path)]) == 1
    assert "FAIL stable-vector 234-n1-a3" in capsys.readouterr().out


def test_verify_compares_the_recorded_excluded_classes(tmp_path, capsys):
    from octaforms.fixtures import bundled_fixture_path

    path = tmp_path / "fx.txt"
    text = bundled_fixture_path().read_text()
    assert "excluded = 12\n" in text
    path.write_text(text.replace("excluded = 12\n", "excluded = 13\n"))
    assert run(["verify", "lemmas", "--fixtures", str(path)]) == 1
    assert "FAIL stable-vector 234-n1-a3: excluded classes [12]" in capsys.readouterr().out


def test_verify_reports_a_transform_beyond_int64_as_a_failure(tmp_path, capsys):
    from octaforms.fixtures import bundled_fixture_path

    path = tmp_path / "fx.txt"
    path.write_text(
        bundled_fixture_path().read_text().replace(
            "T = 3 0 -18 / 0 9 0 / 4 0 3", "T = 300000000000000000000 0 -18 / 0 9 0 / 4 0 3", 1
        )
    )
    assert run(["verify", "lemmas", "--fixtures", str(path)]) == 1
    out, err = capsys.readouterr()
    assert "FAIL stable-vector 234-n1-a3: transform 1 is not a self-similitude" in out
    assert "Traceback" not in out + err


def test_verify_lemmas_reports_the_bounds_it_used(tmp_path, capsys):
    out = tmp_path / "lemmas.json"
    assert run(["verify", "lemmas", "--bound", "5", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["bound_used"] is None
    assert report["results"]["lemma_bounds"] == {
        "congruence": 10_000, "jones": 10_000, "counting": 2000,
        "pair_2233": 10_000, "family_2233t": 2000,
    }
    assert not any(report["results"]["lemmas"].values())


def test_malformed_data_files_are_usage_errors(tmp_path, capsys):
    from octaforms.fixtures import bundled_fixture_path
    from octaforms.tables import TABLE_FILES

    table = tmp_path / TABLE_FILES[2]
    fixtures = tmp_path / "fx.txt"
    cases = [
        (table, b"prefix=2,3 expect=tight\n", "table2.txt: line 1: invalid literal"),
        (table, b"\xff", "table2.txt: 'utf-8' codec can't decode"),
        (fixtures, bundled_fixture_path().read_bytes().replace(b"a = 0", b"a = 4", 1),
         "a transfer needs 0 <= a < d"),
    ]
    for path, data, message in cases:
        path.write_bytes(data)
        target = "t2" if path == table else "lemmas"
        assert run(["verify", target, "--data-dir", str(tmp_path),
                    "--fixtures", str(fixtures)]) == 2, message
        assert message in capsys.readouterr().err


def _copy_data(tmp_path):
    from octaforms.fixtures import bundled_fixture_path
    from octaforms.tables import TABLE_FILES, bundled_table_path

    for t, name in TABLE_FILES.items():
        tmp_path.joinpath(name).write_text(bundled_table_path(t).read_text())
    tmp_path.joinpath("fx.txt").write_text(bundled_fixture_path().read_text())
    return ["--data-dir", str(tmp_path), "--fixtures", str(tmp_path / "fx.txt")]


def test_a_table_row_of_the_wrong_kind_is_a_usage_error(tmp_path, capsys):
    data = _copy_data(tmp_path)
    t2 = tmp_path / "table2.txt"
    cases = [
        (t2, "expect=tight:2", "expect=tight:3", "t2", "row (2, 2, 3, 4) does not expect tight:2"),
        (t2, "expect=tight:2", "expect=Z:", "t2", "does not expect tight:2"),
        (tmp_path / "table1.txt", "expect=Z:8,11", "expect=tight:1", "z-table", "does not expect Z"),
    ]
    for path, old, new, target, message in cases:
        text = path.read_text()
        path.write_text(text.replace(old, new, 1))
        assert run(["verify", target, *data]) == 2, new
        out, err = capsys.readouterr()
        assert out == "" and message in err, err
        path.write_text(text)


@pytest.mark.parametrize("name, target, form", [
    ("table1.txt", "z-table", "(2, 2, 2, 3)"),
    ("table4.txt", "t4", "(4, 5, 6, 7, 8)"),
], ids=["Z table", "tight table"])
def test_a_repeated_table_row_is_a_usage_error(tmp_path, capsys, name, target, form):
    # the table's first row written twice: the census and the row count
    # would count it once or twice, so the file is refused
    data = _copy_data(tmp_path)
    path = tmp_path / name
    lines = path.read_text().splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if line.startswith("prefix="))
    path.write_text("".join(lines[: first + 1] + lines[first:]))
    assert run(["verify", target, *data]) == 2
    out, err = capsys.readouterr()
    message = f"{name}: line {first + 2}: form {form} is also listed on line {first + 1}"
    assert out == "" and message in err, err


def test_verify_all_reads_every_input_before_any_suite_prints(tmp_path, capsys):
    data = _copy_data(tmp_path)
    report = tmp_path / "all.json"
    for name, old, new in (("table3.txt", "expect=", "expect"), ("fx.txt", "a = 0", "a = 4")):
        path = tmp_path / name
        text = path.read_text()
        path.write_text(text.replace(old, new, 1))
        assert run(["verify", "all", *data, "--out", str(report)]) == 2, name
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: "), (name, err)
        assert not report.exists()
        path.write_text(text)


@pytest.mark.parametrize("name, old, new, message", [
    ("table2.txt", "slot=5..8!7", "slot=0..8!7",
     "table2.txt: line 6: slot range 0..8 is empty or not positive"),
    ("table2.txt", "prefix=2,2,3,4 ", "slot=2..5 ", "table2.txt: line 2: missing field 'prefix'"),
    ("fx.txt", "d = 9\n", "d = 9\nd = 5\n", "repeated field 'd'"),
    ("fx.txt", "\nP = ", "\nP = 0 1 0\nP = ", "one transform per block"),
    ("fx.txt", "P = 0 1 0 ;", "P = 0 1 30 ;", "three integers in [0, 9)"),
    ("fx.txt", "T = 3 0 -18 / 0 9 0 / 4 0 3", "T = 3 0 / 0 9", "3x3 integer matrix"),
    ("fx.txt", "excluded = 3\n", "excluded = 3 5\n", "one excluded class per block"),
    ("fx.txt", "class 1 0 0 / 0 1 0 / 0 0 1\n", "class 1 0 / 0 1\nclass 1 0 0 / 0 1 0 / 0 0 1\n",
     "line 31: genus '1-1-1': Gram matrix must be 3x3"),
    ("fx.txt", "class 1 0 0 / 0 1 0 / 0 0 1\n", "class 1 0 0 0 / 0 1 0 0 / 0 0 1 0 / 0 0 0 1\n",
     "line 31: genus '1-1-1': Gram matrix must be 3x3"),
    ("fx.txt", "class 1 0 0 / 0 1 0 / 0 0 1\n", "class 1 0 0 / 0 1 0 / 0 0 -1\n",
     "line 31: genus '1-1-1': Gram matrix not positive definite"),
    ("fx.txt", "class 1 0 0 / 0 1 0 / 0 0 27\n",
     "class 1 0 0 / 0 1 0 / 0 0 27\nclass 1 0 0 / 0 1 0 / 0 0 27\n",
     "line 52: genus '1-1-27': the class is also listed on line 51"),
    ("fx.txt", "prec 113-n2-a0\n", "prec 113-n7-a5\n",
     "fixture block '113-n7-a5' (ended line 135): the name does not end in -n2-a0"),
], ids=["slot 0", "no prefix", "repeated field", "P without T", "P residue 30", "2x2 T",
        "two excluded", "2x2 class", "4x4 class", "indefinite class", "repeated class",
        "instance renamed"])
def test_malformed_data_input_exits_2_before_printing(tmp_path, capsys, name, old, new, message):
    data = _copy_data(tmp_path)
    path, report = tmp_path / name, tmp_path / "all.json"
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    assert run(["verify", "all", *data, "--out", str(report)]) == 2
    out, err = capsys.readouterr()
    # the error names the file it was found in
    assert out == "" and err.startswith("error: ") and f"{name}: " in err and message in err, err
    assert not report.exists()


@pytest.mark.parametrize("pattern", [r"genus = .*\n", r"excluded = .*\n"],
                         ids=["no genus line", "no excluded line"])
def test_a_fixture_file_missing_a_required_field_is_a_usage_error(tmp_path, capsys, pattern):
    # every instance names its genus, and every stable-vector block its classes
    from octaforms.fixtures import bundled_fixture_path

    path = tmp_path / "fx.txt"
    path.write_text(re.sub(pattern, "", bundled_fixture_path().read_text()))
    assert run(["verify", "lemmas", "--fixtures", str(path)]) == 2
    out, err = capsys.readouterr()
    field = pattern.split()[0]
    assert out == "" and f"missing field '{field}'" in err, err


def test_escalate_past_the_byte_limit_exits_2_before_printing(monkeypatch, capsys):
    # three sieves' bytes at bound 50,000; the run for n = 3 keeps more
    monkeypatch.setattr(polygonal, "BYTE_LIMIT", 3 * 8 * ((50_000 + 64) // 64))
    assert run(["escalate", "--n", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "escalation for n=3" in err, err


def test_verify_all_reads_each_table_once(monkeypatch, capsys):
    from octaforms import tables

    calls = []

    def counted(source):
        calls.append(source)
        return load_table(source)

    load_table = tables.load_table
    monkeypatch.setattr(tables, "load_table", counted)
    assert run(["verify", "all"]) == 0
    assert calls == [1, 2, 3, 4]


def test_a_value_error_inside_a_verb_is_not_a_usage_error(monkeypatch):
    def broken(*args):
        raise ValueError("internal")

    monkeypatch.setattr(escalation, "run_escalation", broken)
    with pytest.raises(ValueError, match="internal"):
        run(["escalate", "--n", "2"])


def test_verify_all_output_is_pinned(tmp_path, capsys):
    # sha256 of the stdout and of the --out report without elapsed_ms, keys sorted
    out = tmp_path / "all.json"
    assert run(["verify", "all", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    del report["elapsed_ms"]
    digests = [hashlib.sha256(text.encode()).hexdigest()
               for text in (capsys.readouterr().out, json.dumps(report, sort_keys=True))]
    assert digests == [
        "eb0ae310ba29413b4855ebc2ba79c667f3ee6eb72f918c65dc6df101abda327a",
        "9ab1aa7169c2aca1b4ab204fce1d1b31dd239a567e09d84a43619fd0cd046a7d",
    ]


def test_missing_data_paths_are_usage_errors(tmp_path):
    assert run(["verify", "z-table", "--data-dir", str(tmp_path / "nope")]) == 2
    assert run(["verify", "lemmas", "--fixtures", str(tmp_path / "nope.txt")]) == 2


def test_a_data_dir_that_is_a_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "file"
    path.write_text("")
    assert run(["verify", "z-table", "--data-dir", str(path)]) == 2
    assert "Not a directory" in capsys.readouterr().err


def test_a_fixtures_path_that_is_a_directory_is_a_usage_error(tmp_path, capsys):
    assert run(["verify", "lemmas", "--fixtures", str(tmp_path)]) == 2
    assert "Is a directory" in capsys.readouterr().err


def test_an_out_path_that_is_a_directory_is_a_usage_error(tmp_path, capsys):
    assert run(["psi", "--coeffs", "2,2,3", "--n", "2", "--out", str(tmp_path)]) == 2
    assert "Is a directory" in capsys.readouterr().err


# Exit codes for --bound -1, 0, 1, 3, 5, 7, 8, 23, 24, 60, one digit each.
EXIT_CODE_BOUNDS = (-1, 0, 1, 3, 5, 7, 8, 23, 24, 60)
EXIT_CODES = {
    "sieve --coeffs 5,6": "2222000000",
    "sieve --coeffs 1": "2200000000",
    "psi --coeffs 2,3,4,5 --n -1": "2222222222",
    "psi --coeffs 2,3,4,5 --n 0": "2222222222",
    "psi --coeffs 2,3,4,5 --n 1": "2220000000",
    "psi --coeffs 2,3,4,5 --n 2": "2222000000",
    "psi --coeffs 2,3,4,5 --n 3": "2222200000",
    "check --coeffs 2,3,4,5 --n -1": "2222222222",
    "check --coeffs 2,3,4,5 --n 0": "2222222222",
    "check --coeffs 2,3,4,5 --n 1": "2221111111",
    "check --coeffs 2,3,4,5 --n 2": "2222000000",
    "check --coeffs 2,3,4,5 --n 3": "2222211111",
    "escalate --n -1": "2222222222",
    "escalate --n 0": "2222222222",
    "escalate --n 1": "2220000000",
    "escalate --n 2": "2222000000",
    "escalate --n 3": "2222200000",
    "criterion --n -1": "2222222222",
    "criterion --n 0": "2222222222",
    "criterion --n 1": "2220000000",
    "criterion --n 2": "2222000000",
    "criterion --n 3": "2222200000",
    "verify z-table": "2222221110",
    "verify t2": "2222111000",
    "verify t3": "2222211110",
    "verify t4": "2222221110",
    "verify thm5": "2222222200",
    "verify all": "2222222210",
}


def test_exit_code_grid(capsys):
    # 280 small cases: bad floors and bounds are usage errors (2), bounds too
    # small to certify a form or a table are verification failures (1)
    for command, expected in EXIT_CODES.items():
        codes = "".join(str(run([*command.split(), "--bound", str(b)])) for b in EXIT_CODE_BOUNDS)
        assert codes == expected, command


def test_verify_all_checks_its_bound_before_any_suite_prints(capsys):
    # thm5 runs the escalation up to floor 12, so every suite waits for 24
    for bound in (8, 23):
        assert run(["verify", "all", "--bound", str(bound)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "needs --bound >= 24" in err


def test_every_report_has_the_same_keys_and_status_follows_the_exit_code(tmp_path, capsys):
    out = tmp_path / "r.json"
    cases = [
        (["sieve", "--coeffs", "2,3,4,6", "--bound", "200"], 0),
        (["psi", "--coeffs", "2,2,3", "--n", "2", "--bound", "200"], 0),
        (["check", "--coeffs", "2,3,4,5", "--n", "2", "--bound", "200"], 0),
        (["check", "--coeffs", "2,2,3", "--n", "2", "--bound", "200"], 1),
        (["escalate", "--n", "2", "--bound", "200"], 0),
        (["criterion", "--n", "2", "--bound", "200"], 0),
        (["verify", "z-table", "--bound", "60"], 0),
        (["verify", "t3", "--bound", "24"], 1),
    ]
    for argv, code in cases:
        out.unlink(missing_ok=True)
        assert run([*argv, "--out", str(out)]) == code, argv
        report = json.loads(out.read_text())
        assert list(report) == ["schema", "command", "inputs", "results", "status",
                                "bound_used", "elapsed_ms"], argv
        assert report["status"] == ("pass" if code == 0 else "fail"), argv
        assert report["bound_used"] == int(argv[-1]), argv
        assert report["command"] == " ".join(argv[:2] if argv[0] == "verify" else argv[:1])
