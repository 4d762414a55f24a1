"""Batch runner tests: config validation, determinism, gates, sweeps, files."""

import hashlib
import json

import pytest

from qbcsim import harness
from qbcsim.harness import (
    BatchReport,
    ConfigError,
    RunConfig,
    SweepReport,
    report_csv,
    report_json,
    run_batch,
    run_single_trial,
    run_sweep,
    write_report,
)


def config_dict(**overrides) -> dict:
    # block-repetition keeps codeword enumeration cheap at s of this size
    d = {
        "master_seed": 424242,
        "trials": 10,
        "params": {"s": 60, "f_a": 0.10, "f_b": 0.15, "f_c": 0.05, "s_prime": 12},
        "code": {"kind": "block-repetition", "k": 8, "ratio_d": 0.1},
        "label": "unit",
    }
    d.update(overrides)
    return d


# ---------------------------------------------------------------------------
# configuration validation


def test_config_rejects_unknown_top_level_key():
    with pytest.raises(ConfigError):
        RunConfig.from_dict(config_dict(cheese=1))


def test_config_requires_master_seed_trials_params():
    for key in ("master_seed", "trials", "params"):
        d = config_dict()
        del d[key]
        with pytest.raises(ConfigError):
            RunConfig.from_dict(d)


def test_config_rejects_non_integer_seed_and_trials():
    with pytest.raises(ConfigError):
        RunConfig.from_dict(config_dict(master_seed="7"))
    with pytest.raises(ConfigError):
        RunConfig.from_dict(config_dict(trials=2.5))
    with pytest.raises(ConfigError):
        RunConfig.from_dict(config_dict(trials=0))


def test_config_wraps_params_errors():
    bad = config_dict()
    bad["params"] = {"s": 60, "f_a": 0.10, "f_b": 0.15, "f_c": 0.05, "s_prime": 70}
    with pytest.raises(ConfigError):
        RunConfig.from_dict(bad)
    bad["params"] = {"s": 60, "f_a": 0.10, "nope": 1}
    with pytest.raises(ConfigError):
        RunConfig.from_dict(bad)


def test_config_bit_and_threads_ranges():
    # true, false and 1.0 compare equal to 1 and 0 but would be echoed as written
    for bad in (2, True, False, 1.0, "1"):
        with pytest.raises(ConfigError, match="bit"):
            RunConfig.from_dict(config_dict(bit=bad))
    # threads is a legacy key: ignored, but still has to be an integer >= 1
    for bad in (0, True, "2"):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(config_dict(threads=bad))
    assert RunConfig.from_dict(config_dict(bit=1)).bit == 1
    assert RunConfig.from_dict(config_dict(bit=0)).echo()["bit"] == 0
    assert RunConfig.from_dict(config_dict(bit=None)).bit is None


MISTYPED_PARAMS = (
    ("s", 60.0), ("s", True), ("s", "60"), ("s_prime", 12.0), ("s_prime", False),
    ("f_a", True), ("f_b", "0.15"), ("f_c", float("nan")), ("ratio_k", "0.8"),
    ("tolerance_z", float("inf")), ("theta", True), ("theta", "0.7"),
    ("theta", float("inf")), ("theta", [0.7] * 59 + [None]),
)


@pytest.mark.parametrize("key,value", MISTYPED_PARAMS)
def test_config_params_must_be_typed(key, value):
    # s = 60.0 used to pass and die in the first trial; s = true ran as s = 1
    d = config_dict()
    d["params"] = dict(d["params"], **{key: value})
    with pytest.raises(ConfigError, match=key):
        RunConfig.from_dict(d)


def test_config_params_are_echoed_as_given():
    d = config_dict()
    d["params"] = dict(d["params"], theta=1, f_c=0.05)
    echo = RunConfig.from_dict(d).echo()["params"]
    assert echo["theta"] == 1 and isinstance(echo["theta"], int)


def test_config_flags_must_be_booleans():
    # "false" is a truthy string; 1 compares equal to True
    for key in ("transcripts", "gates"):
        for bad in ("false", 1, 0):
            with pytest.raises(ConfigError, match=key):
                RunConfig.from_dict(config_dict(**{key: bad}))
    with pytest.raises(ConfigError, match="transcripts"):
        RunConfig.from_dict(config_dict(transcripts=None))
    assert RunConfig.from_dict(config_dict(transcripts=False)).transcripts is False
    assert RunConfig.from_dict(config_dict()).transcripts is False


def test_config_rejects_unknown_strategy_spec():
    with pytest.raises(ConfigError):
        RunConfig.from_dict(config_dict(alice="mystery-attack"))
    with pytest.raises(ConfigError):
        RunConfig.from_dict(config_dict(bob="mystery-bob"))


def test_config_code_validation():
    with pytest.raises(ConfigError):
        RunConfig.from_dict(config_dict(code={"kind": "turbo"}))
    with pytest.raises(ConfigError):
        RunConfig.from_dict(config_dict(code={"kind": "identity", "k": 4}))
    with pytest.raises(ConfigError):
        RunConfig.from_dict(config_dict(code={"kind": "block-repetition"}))
    # value types are checked here, not at the first trial
    for bad in (
        {"kind": "block-repetition", "k": 8, "t": 6.5},
        {"kind": "block-repetition", "k": 8.0, "t": 6},
        {"kind": "block-repetition", "k": "8", "t": 6},
        {"kind": "block-repetition", "k": 8, "t": True},
        {"kind": "block-repetition", "k": 8, "ratio_d": "0.05"},
        {"kind": "block-repetition", "k": 8, "ratio_d": False},
        {"kind": "ratio", "ratio_k": "x"},
        {"kind": "ratio", "ratio_k": "0.5"},
        {"kind": "ratio", "ratio_d": True},
        {"kind": "ratio", "ratio_d": float("nan")},
    ):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(config_dict(code=bad))
    ok = RunConfig.from_dict(config_dict(code={"kind": "block-repetition", "k": 4, "t": 2}))
    assert ok.code["kind"] == "block-repetition"
    RunConfig.from_dict(config_dict(code={"kind": "ratio", "ratio_k": 1, "ratio_d": 0.1}))


def test_gate_request_fails_before_any_run():
    # fewer than 30 trials cannot support the 4-sigma band estimate
    with pytest.raises(ConfigError):
        RunConfig.from_dict(config_dict(gates=True, trials=10))
    with pytest.raises(ConfigError):
        RunConfig.from_dict(config_dict(gates=True, trials=40, alice="bit-flip"))


def test_gates_auto_off_below_thirty_trials():
    report = run_batch(RunConfig.from_dict(config_dict(trials=10)))
    assert report.gates_evaluated is False
    assert report.gates == []
    assert report.gates_passed is None


# ---------------------------------------------------------------------------
# honest batch behaviour


@pytest.fixture(scope="module")
def honest_report() -> BatchReport:
    d = config_dict(
        trials=40,
        params={"s": 300, "f_a": 0.10, "f_b": 0.15, "f_c": 0.05, "s_prime": 40},
        code={"kind": "block-repetition", "k": 8, "ratio_d": 0.05},
        label="honest-300",
    )
    return run_batch(RunConfig.from_dict(d))


def test_honest_batch_gates_pass(honest_report):
    assert honest_report.gates_evaluated is True
    assert honest_report.gates_passed is True
    targets = {g.metric: g.target for g in honest_report.gates}
    assert targets["ratio_M"] == pytest.approx(0.325)
    assert targets["ratio_D"] == pytest.approx(0.100)
    assert targets["ratio_MminusD"] == pytest.approx(0.225)


def test_honest_batch_accepts_everything(honest_report):
    assert honest_report.stats["commit_accept_rate"].mean == 1.0
    assert honest_report.stats["unveil_accept_rate"].mean == 1.0
    assert honest_report.caught == {}
    assert all(count == 0 for count in honest_report.violations.values())


def test_honest_batch_unused_metrics_have_zero_count(honest_report):
    assert honest_report.stats["cheat_success_rate"].count == 0
    assert honest_report.stats["cheat_success_rate"].mean is None
    assert honest_report.stats["bob_guess_accuracy"].count == 0


def test_honest_batch_code_shapes_recorded(honest_report):
    assert honest_report.code_shapes
    for n, k, d in honest_report.code_shapes:
        assert n > k > 0
        assert d >= 1


def test_honest_batch_reports_entropy_floor(honest_report):
    floor = honest_report.entropy_floor
    assert floor is not None
    assert floor["gamma"] == pytest.approx(0.1100279, abs=1e-6)
    assert isinstance(floor["satisfied"], bool)
    # block-repetition distance stays flat while n grows, so at this scale
    # every observed shape sits below the gamma*n line
    assert floor["satisfied"] is False


def test_config_echo_realizes_lie_counts(honest_report):
    assert honest_report.config["lie_counts"] == [20, 35, 5]


# ---------------------------------------------------------------------------
# determinism


def test_identical_configs_give_identical_reports():
    a = run_batch(RunConfig.from_dict(config_dict()))
    b = run_batch(RunConfig.from_dict(config_dict()))
    assert report_json(a) == report_json(b)


def test_thread_count_does_not_change_results():
    plain = run_batch(RunConfig.from_dict(config_dict(transcripts=True)))
    legacy = run_batch(RunConfig.from_dict(config_dict(transcripts=True, threads=4)))
    assert report_json(plain) == report_json(legacy)
    assert plain.transcripts == legacy.transcripts


# sha256 of report_json + transcripts for 20 trials from seed 20261020.  A
# change that moves these hashes changes the mapping from seed to result; it
# must say so and update the pins on purpose.  early-extract is pinned at
# criterion 7's shape below: its extraction caps n at 20, below these s = 60
# runs, and its parity sums use no BLAS call whose summation order could vary.
PINNED_REPORTS = {
    "honest": "f1b439fa6d8c3be716281d67094cdd0359cca306008e397712490bf9efd58d9b",
    "fake-unmeasured:2:send-best-guess":
        "2d62f2084ee29a55d1e850747ac9b74608d659627f835f6a52957c7b9199630c",
    "over-measure:20": "dfd1a6c2906c23a6a26427d845a37190dd0b849662ae3cf842d56bb835650498",
    "wrong-preparation:variant-B":
        "25c3d844e4e9e822b5d00095013b6e29cc8d9595bffbd36195c8e05d14681bc3",
    "bit-flip:send-best-guess":
        "e6c4422ccf648b31f8973c73a34a4c04427deebfd45547c5a9ff1ec3e8ddf925",
}


@pytest.mark.parametrize("alice", sorted(PINNED_REPORTS))
def test_report_fingerprints_are_pinned(alice):
    report = run_batch(RunConfig.from_dict({
        "master_seed": 20261020,
        "trials": 20,
        "params": {"s": 60, "f_a": 0.10, "f_b": 0.15, "f_c": 0.05, "s_prime": 12},
        "code": {"kind": "block-repetition", "k": 8, "ratio_d": 0.1},
        "label": "pinned",
        "alice": alice,
        "transcripts": True,
    }))
    text = report_json(report) + json.dumps(report.transcripts, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPORTS[alice]


PINNED_EARLY_EXTRACT = "9ff47147a0bb2b15f998765ceaffda7e6f8ad93fd3cf399749a60c3b5361d227"


def test_early_extract_fingerprint_is_pinned():
    report = run_batch(RunConfig.from_dict({
        "master_seed": 20261020,
        "trials": 20,
        "params": {"s": 20, "f_a": 0.01, "f_b": 0.02, "f_c": 0.01,
                   "ratio_k": 0.8, "ratio_d": 0.05},
        "label": "pinned",
        "bob": "early-extract",
        "transcripts": True,
    }))
    text = report_json(report) + json.dumps(report.transcripts, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_EARLY_EXTRACT


def test_trial_rng_is_order_insensitive():
    config = RunConfig.from_dict(config_dict())
    first = run_single_trial(config, 3)
    again = run_single_trial(config, 3)
    assert first.claimed_M == again.claimed_M
    assert first.committed_bit == again.committed_bit
    assert first.unveiled_bit == again.unveiled_bit


def test_report_json_contains_no_timestamps(honest_report):
    text = report_json(honest_report)
    for needle in ("time", "date", "host"):
        assert needle not in text.lower()


# ---------------------------------------------------------------------------
# adversarial batches


def test_cheating_alice_populates_cheat_success_rate():
    d = config_dict(alice="fake-unmeasured:2", trials=12)
    report = run_batch(RunConfig.from_dict(d))
    assert report.stats["cheat_success_rate"].count == 12
    caught_total = sum(report.caught.values())
    accepted = round(report.stats["cheat_success_rate"].mean * 12)
    assert caught_total + accepted == 12


def test_early_extract_bob_populates_guess_accuracy():
    d = config_dict(
        bob="early-extract",
        trials=8,
        params={"s": 16, "f_a": 0.05, "f_b": 0.10, "f_c": 0.05},
    )
    report = run_batch(RunConfig.from_dict(d))
    assert report.stats["bob_guess_accuracy"].count == 8


# ---------------------------------------------------------------------------
# report serialization


def test_batch_report_round_trip(honest_report):
    parsed = BatchReport.from_dict(json.loads(report_json(honest_report)))
    assert parsed.to_dict() == honest_report.to_dict()


def test_csv_has_one_row_per_metric(honest_report):
    lines = report_csv(honest_report).strip().split("\n")
    assert lines[0].split(",")[0] == "point"
    # 7 metric rows plus 4 violation-count rows
    assert len(lines) == 1 + 7 + 4
    gate_rows = [ln for ln in lines if ln.startswith("honest-300,ratio_")]
    assert len(gate_rows) == 3
    for row in gate_rows:
        assert row.rstrip().endswith("True")


def test_write_report_files(tmp_path, honest_report):
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    write_report(honest_report, json_path=str(json_path), csv_path=str(csv_path))
    parsed = json.loads(json_path.read_text())
    assert parsed == honest_report.to_dict()
    assert csv_path.read_text().startswith("point,metric,")
    assert not list(tmp_path.glob(".report-*"))


def test_write_transcripts_requires_recording(tmp_path, honest_report):
    with pytest.raises(ConfigError):
        write_report(honest_report, transcripts_path=str(tmp_path / "t.json"))
    config = RunConfig.from_dict(config_dict(trials=3, transcripts=True))
    report = run_batch(config)
    out = tmp_path / "t.json"
    write_report(report, transcripts_path=str(out))
    payload = json.loads(out.read_text())
    assert len(payload["transcripts"]) == 3
    assert "prepare" in payload["transcripts"][0]


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_runs_every_grid_point():
    base = config_dict(trials=4)
    sweep = run_sweep(base, {"s": [24, 32], "s_prime_frac": [0.2], "f": [[0.10, 0.15, 0.05]]})
    assert len(sweep.points) == 2
    assert sweep.points[0].label == "s=24,s_prime_frac=0.2,f=(0.1,0.15,0.05)"
    assert all(p.skipped is None for p in sweep.points)
    seeds = {p.report.config["master_seed"] for p in sweep.points}
    assert len(seeds) == 2
    assert base["master_seed"] not in seeds


def test_sweep_skips_infeasible_points_and_continues():
    base = config_dict(trials=4)
    sweep = run_sweep(base, {"s_prime_frac": [0.2, 0.9]})
    outcomes = {p.label: p.skipped for p in sweep.points}
    assert outcomes["s_prime_frac=0.2"] is None
    assert outcomes["s_prime_frac=0.9"] is not None
    assert sweep.points[1].report is None


def test_sweep_skips_mistyped_points():
    sweep = run_sweep(config_dict(trials=4), {"s": [24, 24.0, True], "s_prime_frac": [0.2]})
    assert [p.skipped is None for p in sweep.points] == [True, False, False]
    assert all("s must be an integer" in p.skipped for p in sweep.points[1:])


def test_sweep_rejects_unknown_axis():
    with pytest.raises(ConfigError):
        run_sweep(config_dict(), {"volume": [1, 2]})
    with pytest.raises(ConfigError):
        run_sweep(config_dict(), {"s": []})


def test_sweep_round_trip_and_csv():
    sweep = run_sweep(config_dict(trials=4), {"s": [24], "s_prime_frac": [0.2, 0.9]})
    parsed = SweepReport.from_dict(json.loads(report_json(sweep)))
    assert parsed.to_dict() == sweep.to_dict()
    rows = report_csv(sweep).strip().split("\n")
    skip_rows = [r for r in rows if ",skipped," in r]
    assert len(skip_rows) == 1
    summary = sweep.summary()
    assert len(summary) == 2
    assert summary[0]["label"].startswith("s=24")


def test_sweep_point_seed_is_deterministic():
    one = harness._point_seed(99, 0)
    two = harness._point_seed(99, 0)
    other = harness._point_seed(99, 1)
    assert one == two
    assert one != other
