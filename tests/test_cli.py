"""Command-line interface tests: exit codes, overrides, file outputs, demo."""

import json

import pytest

from qbcsim import cli, lincode
from qbcsim.cli import main

HAMMING_ROWS = ("1000110", "0100101", "0010011", "0001111")


def write_config(tmp_path, name="config.json", **overrides):
    d = {
        "master_seed": 515151,
        "trials": 6,
        "params": {"s": 60, "f_a": 0.10, "f_b": 0.15, "f_c": 0.05, "s_prime": 12},
        "code": {"kind": "block-repetition", "k": 8, "ratio_d": 0.1},
        "label": "cli-test",
    }
    d.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(d))
    return str(path)


def hamming_file(tmp_path):
    G = lincode.GeneratorMatrix.from_rows([lincode.as_bits(r, 7) for r in HAMMING_ROWS])
    path = tmp_path / "hamming74.json"
    path.write_text(lincode.code_to_json(G))
    return str(path)


# ---------------------------------------------------------------------------
# run


def test_run_writes_reports_and_echoes_config(tmp_path, capsys):
    json_out = tmp_path / "report.json"
    csv_out = tmp_path / "report.csv"
    code = main([
        "run", "--config", write_config(tmp_path),
        "--json-out", str(json_out), "--csv-out", str(csv_out),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "effective config" in out
    assert '"master_seed": 515151' in out
    report = json.loads(json_out.read_text())
    assert report["label"] == "cli-test"
    assert report["trials"] == 6
    assert csv_out.read_text().startswith("point,metric,")


def test_run_flag_overrides_take_precedence(tmp_path, capsys):
    code = main([
        "run", "--config", write_config(tmp_path),
        "--trials", "4", "--seed", "99", "--label", "overridden",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert '"master_seed": 99' in out
    assert "trials: 4" in out


def test_run_rejects_inverted_lie_frequencies(tmp_path, capsys):
    code = main([
        "run", "--config", write_config(tmp_path), "--f-b", "0.05", "--f-c", "0.10",
    ])
    assert code == 1
    assert "f_b" in capsys.readouterr().err


def test_run_missing_config_names_the_path(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "absent.json")])
    assert code == 1
    assert "absent.json" in capsys.readouterr().err


def test_run_gate_failure_exits_two(tmp_path):
    # a receiver lying beyond the agreed frequencies pushes |D| off its formula
    config = write_config(
        tmp_path,
        trials=40,
        params={"s": 200, "f_a": 0.10, "f_b": 0.15, "f_c": 0.05},
        bob="frequency-cheat:0.20,0.10,0.05",
        gates=True,
    )
    assert main(["run", "--config", config]) == 2


def test_run_rejects_mistyped_code_config(tmp_path, capsys):
    config = write_config(tmp_path, code={"kind": "block-repetition", "k": 8, "t": 6.5})
    assert main(["run", "--config", config]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("params", [{"s": 60.0}, {"s": True}, {"theta": "0.7"}, {"f_a": True}])
def test_run_rejects_mistyped_params(tmp_path, capsys, params):
    base = {"s": 60, "f_a": 0.10, "f_b": 0.15, "f_c": 0.05, "s_prime": 12}
    config = write_config(tmp_path, params=dict(base, **params))
    assert main(["run", "--config", config]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("params", [5, "ab"])
def test_run_rejects_params_that_are_not_an_object(tmp_path, capsys, params):
    config = write_config(tmp_path, params=params)
    assert main(["run", "--config", config]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "error:" in err and "params" in err and "Traceback" not in err


def test_run_transcripts_out_needs_recorded_transcripts(tmp_path, capsys):
    json_out = tmp_path / "report.json"
    code = main([
        "run", "--config", write_config(tmp_path), "--json-out", str(json_out),
        "--transcripts-out", str(tmp_path / "transcripts.json"),
    ])
    assert code == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert "error:" in captured.err and "transcripts" in captured.err
    # refused before the batch ran: nothing printed, no report written
    assert "effective config" not in captured.out
    assert not json_out.exists()
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


def test_usage_error_exits_one(capsys):
    assert main([]) == 1
    assert main(["run"]) == 1


def test_run_threads_flag_is_gone(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["run", "--config", config, "--threads", "2"]) == cli.EXIT_USAGE


# ---------------------------------------------------------------------------
# sweep


def test_sweep_runs_and_reports(tmp_path, capsys):
    document = {
        "base": json.loads(open(write_config(tmp_path)).read()),
        "grid": {"s": [24, 32], "s_prime_frac": [0.2]},
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(document))
    out_path = tmp_path / "sweep-report.json"
    code = main(["sweep", "--config", str(path), "--json-out", str(out_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "2 grid points" in out
    report = json.loads(out_path.read_text())
    assert len(report["points"]) == 2


def test_sweep_empty_grid_succeeds(tmp_path, capsys):
    document = {"base": json.loads(open(write_config(tmp_path)).read()), "grid": {}}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(document))
    assert main(["sweep", "--config", str(path)]) == 0
    assert "0 grid points" in capsys.readouterr().out


def test_sweep_rejects_axis_that_is_not_a_list(tmp_path, capsys):
    document = {"base": json.loads(open(write_config(tmp_path)).read()), "grid": {"s": 5}}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(document))
    assert main(["sweep", "--config", str(path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "error:" in err and "'s'" in err and "Traceback" not in err


def test_sweep_requires_base_and_grid(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"base": {}}))
    assert main(["sweep", "--config", str(path)]) == 1


# ---------------------------------------------------------------------------
# demo


def test_demo_honest_run_is_deterministic(capsys):
    assert main(["demo", "--seed", "7", "--s", "8"]) == 0
    first = capsys.readouterr().out
    assert main(["demo", "--seed", "7", "--s", "8"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "VERDICT" in first
    assert "[checked]" in first
    for step in ("[C1]", "[C2]", "[C3]", "[C4]", "[C5]", "[C6+C7]", "[U1+U2]", "[U3]"):
        assert step in first


def test_demo_rejects_large_s(capsys):
    assert main(["demo", "--s", "40"]) == 1
    assert "capped" in capsys.readouterr().err


def test_demo_cheating_alice_narrates_the_fake(capsys):
    assert main(["demo", "--seed", "3", "--s", "8", "--alice-strategy",
                 "fake-unmeasured:1"]) == 0
    out = capsys.readouterr().out
    assert "(cheat) claimed-measured set edited" in out
    assert "VERDICT" in out


# ---------------------------------------------------------------------------
# code utilities


def test_code_gen_writes_verified_code(tmp_path, capsys):
    out = tmp_path / "code.json"
    assert main(["code-gen", "-n", "14", "-k", "8", "-d", "4",
                 "--seed", "5", "--out", str(out)]) == 0
    G = lincode.code_from_json(out.read_text())
    assert (G.n, G.k) == (14, 8)
    assert lincode.min_distance(G) >= 4


def test_code_gen_stdout_when_no_out(capsys):
    assert main(["code-gen", "-n", "8", "-k", "4", "-d", "2", "--seed", "5"]) == 0
    G = lincode.code_from_json(capsys.readouterr().out)
    assert (G.n, G.k) == (8, 4)


def test_code_gen_infeasible_distance_fails(capsys):
    assert main(["code-gen", "-n", "4", "-k", "2", "-d", "4"]) == 1


def test_code_check_reports_distance(tmp_path, capsys):
    assert main(["code-check", hamming_file(tmp_path)]) == 0
    assert "min distance 3" in capsys.readouterr().out


def test_code_check_bound_pass(tmp_path, capsys):
    assert main(["code-check", hamming_file(tmp_path), "--d0", "3"]) == 0
    out = capsys.readouterr().out
    assert "codewords at distance 3: 7" in out
    assert "0.5345" in out
    assert "PASS" in out


def test_code_check_bound_failure_exits_two(tmp_path, capsys):
    # the Hamming code has no weight-2 words, so the count 0 misses any bound
    assert main(["code-check", hamming_file(tmp_path), "--d0", "2"]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_code_check_bad_file(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("not a code")
    assert main(["code-check", str(path)]) == 1


# ---------------------------------------------------------------------------
# verify


def test_verify_subset_json(capsys):
    assert main(["verify", "--only", "codes", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [entry["key"] for entry in payload] == ["codes"]
    assert payload[0]["passed"] is True
    assert payload[0]["number"] == 8
    entry = payload[0]
    assert entry["headroom"] == pytest.approx(entry["elapsed"] / entry["budget"], abs=1e-3)
    assert 0.0 <= entry["headroom"] <= 1.0


def test_verify_comma_separated_subset(capsys):
    assert main(["verify", "--only", "codes,determinism"]) == 0
    out = capsys.readouterr().out
    assert "2/2 criteria passed" in out


def test_verify_unknown_key(capsys):
    assert main(["verify", "--only", "nope"]) == 1
    assert "unknown criteria" in capsys.readouterr().err
