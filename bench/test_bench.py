"""Tests for the benchmark's own checks: each must pass on a correct input and
fail on a deliberately wrong one.

    python3 -m pytest bench -q
"""

import copy
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from qbcsim import harness, protocol  # noqa: E402

HONEST = WORKLOADS["honest-s2000"]
CONCEAL = WORKLOADS["conceal-s20"]
FAKE = WORKLOADS["fake-unveil-s500"]


def _stat(mean, count):
    return {"mean": mean, "std": 0.0, "count": count, "ci95": 0.0}


def fake_report(trials=100, lie_counts=(150, 250, 50), ratios=(0.325, 0.1, 0.225),
                unveil=1.0, cheat=None, guess=None, caught=None, violations=None,
                shapes=((1800, 8, 90),)):
    """A report dict shaped like harness.report_json's output."""
    return {
        "trials": trials,
        "config": {"lie_counts": list(lie_counts)},
        "stats": {
            "ratio_M": _stat(ratios[0], trials),
            "ratio_D": _stat(ratios[1], trials),
            "ratio_MminusD": _stat(ratios[2], trials),
            "unveil_accept_rate": _stat(unveil, trials),
            "cheat_success_rate": _stat(cheat, trials if cheat is not None else 0),
            "bob_guess_accuracy": _stat(guess, trials if guess is not None else 0),
        },
        "caught": dict(caught or {}),
        "violations": dict({k: 0 for k in checks.INVARIANTS}, **(violations or {})),
        "code_shapes": [list(s) for s in shapes],
    }


def honest_report(trials=100):
    moments = checks.set_size_moments(2000, 200, (150, 250, 50))
    ratios = tuple(moments[m][0] / 2000 for m in ("ratio_M", "ratio_D", "ratio_MminusD"))
    return fake_report(trials, ratios=ratios)


# ---------------------------------------------------------------------------
# formulas


def test_counting_formulas_match_the_published_targets():
    # criterion 2's targets at s=2000, s'=0: |M|/s = 0.325, |D|/s = 0.1
    counts = checks.lie_counts(2000, 0, (0.10, 0.15, 0.05))
    assert counts == (200, 300, 100)
    moments = checks.set_size_moments(2000, 0, counts)
    assert moments["ratio_M"][0] / 2000 == pytest.approx(0.325)
    assert moments["ratio_D"][0] / 2000 == pytest.approx(0.100)
    assert moments["ratio_MminusD"][0] / 2000 == pytest.approx(0.225)
    # the program's band formulas give the same means and sigmas
    mean_m, sigma_m = protocol.measured_band_from_counts(counts, 2000, 0)
    mean_d, sigma_d = protocol.detected_band_from_counts(counts, 0)
    assert moments["ratio_M"] == pytest.approx((mean_m, sigma_m ** 2))
    assert moments["ratio_D"] == pytest.approx((mean_d, sigma_d ** 2))


def test_lie_counts_round_half_up():
    assert checks.lie_counts(2000, 200, (0.10, 0.15, 0.05)) == (150, 250, 50)
    assert checks.lie_counts(10, 2, (0.10, 0.15, 0.05)) == (1, 1, 0)  # 0.5 -> 1, 1.0, 0.0


def test_dense_min_distance_on_known_codes():
    hamming = [[1, 0, 0, 0, 1, 1, 0], [0, 1, 0, 0, 1, 0, 1],
               [0, 0, 1, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1, 1]]
    assert checks.dense_min_distance(hamming) == 3
    assert checks.dense_min_distance(np.eye(5, dtype=np.uint8)) == 1
    assert checks.dense_min_distance([[1] * 6]) == 6


# ---------------------------------------------------------------------------
# each check passes on a correct input and fails on a wrong one


def test_failed_trials_counts_each_breach():
    ok = honest_report()
    assert HONEST.failed(ok) == 0
    assert HONEST.failed(fake_report(caught={"C5-size": 1, "U4-size": 2})) == 0
    assert HONEST.failed(fake_report(violations={"u5_parity": 1})) == 1
    assert HONEST.failed(fake_report(caught={"U3b": 2})) == 2
    assert HONEST.failed(fake_report(trials=3, caught={"U3b": 2},
                                     violations={"c5_empty": 5})) == 3
    assert FAKE.failed(fake_report(caught={"U3b": 30, "U4-size": 1})) == 0
    assert FAKE.failed(fake_report(violations={"lie_b_annihilation": 1})) == 0
    assert FAKE.failed(fake_report(caught={"U5-parity": 1})) == 1
    assert CONCEAL.failed(fake_report(guess=0.5)) == 0
    missing = fake_report(guess=0.5)
    missing["stats"]["bob_guess_accuracy"]["count"] = 98
    assert CONCEAL.failed(missing) == 2


def test_set_size_check_rejects_a_shifted_ratio():
    assert checks.check_set_sizes([honest_report()], 2000, 200, HONEST.f) == []
    shifted = honest_report()
    # 4 sigma of ratio_D over 100 trials is about 0.0023
    shifted["stats"]["ratio_D"]["mean"] += 0.003
    assert len(checks.check_set_sizes([shifted], 2000, 200, HONEST.f)) == 1


def test_lie_count_check_rejects_off_by_one():
    assert checks.check_lie_counts([honest_report()], 2000, 200, HONEST.f) == []
    wrong = fake_report(lie_counts=(150, 249, 50))
    assert len(checks.check_lie_counts([wrong], 2000, 200, HONEST.f)) == 1


def test_guess_accuracy_check_and_its_cap():
    assert checks.check_guess_accuracy([fake_report(1000, guess=0.52)], 2000) == []
    assert len(checks.check_guess_accuracy([fake_report(1000, guess=0.6)], 2000)) == 1
    assert checks.check_guess_accuracy([fake_report(guess=None)], 2000) != []
    # past the cap a leak of 0.51 would leave the band; the cap ignores later batches
    batches = [fake_report(1000, guess=0.51)] * 2 + [fake_report(1000, guess=1.0)]
    assert checks.check_guess_accuracy(batches, 2000) == []
    assert checks.check_guess_accuracy(batches, 3000) != []


def test_cheat_rate_check_rejects_a_rate_above_the_bound():
    assert checks.check_cheat_rate([fake_report(1000, cheat=0.16)], 6) == []
    assert len(checks.check_cheat_rate([fake_report(1000, cheat=0.36)], 6)) == 1
    assert checks.binding_bound(6) == pytest.approx((2 / 3) ** 3)


def test_code_distance_and_accept_count_checks():
    assert checks.check_code_distance([fake_report(shapes=[(450, 8, 6)])], 6) == []
    assert len(checks.check_code_distance([fake_report(shapes=[(450, 8, 5)])], 6)) == 1
    assert checks.check_accept_count([fake_report(100, unveil=0.84, caught={"U3b": 16})]) == []
    assert len(checks.check_accept_count([fake_report(100, unveil=0.84)])) == 1


def test_code_check_rejects_a_distance_off_by_one():
    rows = [[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]]
    assert checks.check_codes([(rows, 3)]) == []
    assert len(checks.check_codes([(rows, 2)])) == 1
    assert len(checks.check_codes([(rows, 4)])) == 1


def test_identical_and_equal_checks():
    assert checks.check_identical(b"abc", b"abc", "x") == []
    assert checks.check_identical(b"abc", b"abd", "x") != []
    assert checks.check_equal("n", 3, 3) == []
    assert checks.check_equal("n", 3, 4) != []


def test_workload_check_collects_every_failure():
    assert HONEST.check([honest_report()]) == []
    assert HONEST.check([]) == ["no batch finished"]
    bad = honest_report()
    bad["config"]["lie_counts"] = [0, 0, 0]
    bad["stats"]["unveil_accept_rate"]["mean"] = 0.5
    assert len(HONEST.check([bad])) == 2


# ---------------------------------------------------------------------------
# real batches


@pytest.mark.parametrize("workload", [CONCEAL, FAKE])
def test_real_batches_pass_and_a_planted_violation_fails(workload, tmp_path):
    config = harness.RunConfig.from_dict(dict(workload.batch_config(7, 0), trials=20))
    _, report, _ = run.run_round(harness, config, str(tmp_path), "t")
    assert workload.failed(report) == 0
    assert workload.check([report]) == []
    planted = copy.deepcopy(report)
    planted["violations"]["u5_parity"] = 1
    assert workload.failed(planted) == 1


def test_tracer_restores_the_package_and_keeps_reports_identical(tmp_path):
    originals = (harness.run_batch, protocol.RegisterEnvironment.create_pair,
                 protocol.alice_commit_prepare)
    config = harness.RunConfig.from_dict(dict(FAKE.batch_config(3, 0), trials=3))
    _, _, bare = run.run_round(harness, config, str(tmp_path), "bare")
    tracer = Tracer()
    with tracer.installed():
        assert harness.run_batch is not originals[0]
        _, _, seen = run.run_round(harness, config, str(tmp_path), "traced")
    assert (harness.run_batch, protocol.RegisterEnvironment.create_pair,
            protocol.alice_commit_prepare) == originals
    assert seen == bare
    tracer.fold()
    assert tracer.calls["qstate.create_pair"] == 3 * FAKE.s
    assert tracer.calls["protocol.execute_run"] == 3
    assert tracer.counts()["adversary.fabricated_registers"] == tracer.calls["qstate.replace_alpha"]
    assert len(tracer.codes) == 3
    # self time never exceeds a span's duration and children are subtracted
    assert 0 < tracer.self_seconds["protocol.alice_commit_prepare"] \
        < tracer.seconds["protocol.alice_commit_prepare"]


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "conceal-s20", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
