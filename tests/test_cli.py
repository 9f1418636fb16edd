"""Command line behavior: verbs, exit codes, and JSON reports."""

import json

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
}


def test_exit_code_grid(capsys):
    # 270 small cases: bad floors and bounds are usage errors (2), bounds too
    # small to certify a form or a table are verification failures (1)
    for command, expected in EXIT_CODES.items():
        codes = "".join(str(run([*command.split(), "--bound", str(b)])) for b in EXIT_CODE_BOUNDS)
        assert codes == expected, command


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
