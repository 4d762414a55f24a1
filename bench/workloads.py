"""The benchmark's three workloads and the output checks each one must pass.

A workload is a fixed qbcsim batch configuration, run in whole batches of
`batch` trials.  Batch r of a run gets a master seed derived from the
workload name, the run's --seed and r, so the same seed replays the same
trials.  Why each workload is here is written in BENCHMARK.json and README.md.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import checks

GUESS_CAP = 2000  # trials scored for concealment; the release criterion's count


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    batch: int  # trials per run_batch call
    allowed_stages: tuple  # where a trial may legitimately be rejected
    invariants: tuple  # violation counters that must stay zero
    extraction: bool  # every trial must produce an early extraction
    pooled: Callable  # reports -> failure messages for Monte Carlo checks

    @property
    def s(self) -> int:
        return self.config["params"]["s"]

    @property
    def s_prime(self) -> int:
        return self.config["params"].get("s_prime", 0)

    @property
    def f(self) -> tuple:
        p = self.config["params"]
        return (p["f_a"], p["f_b"], p["f_c"])

    def batch_config(self, seed: int, index: int) -> dict:
        digest = hashlib.sha256(f"{self.name}:{seed}:{index}".encode()).digest()
        return dict(self.config, master_seed=int.from_bytes(digest[:8], "little"),
                    trials=self.batch, label=f"{self.name}-{index}")

    def failed(self, report: dict) -> int:
        return checks.failed_trials(report, self.allowed_stages, self.invariants,
                                    self.extraction)

    def check(self, reports: list) -> list:
        """Failures of the run-level checks over every batch report."""
        if not reports:
            return ["no batch finished"]
        return (checks.check_lie_counts(reports, self.s, self.s_prime, self.f)
                + checks.check_accept_count(reports)
                + self.pooled(self, reports))


def _honest(w: Workload, reports: list) -> list:
    return checks.check_set_sizes(reports, w.s, w.s_prime, w.f)


def _conceal(w: Workload, reports: list) -> list:
    return checks.check_guess_accuracy(reports, GUESS_CAP)


def _fake_unveil(w: Workload, reports: list) -> list:
    t = w.config["code"]["t"]
    return checks.check_code_distance(reports, t) + checks.check_cheat_rate(reports, t)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="honest-s2000",
            config={
                "params": {"s": 2000, "s_prime": 200, "f_a": 0.10, "f_b": 0.15, "f_c": 0.05},
                "code": {"kind": "block-repetition", "k": 8, "ratio_d": 0.05},
                "threads": 2,
            },
            batch=4,
            allowed_stages=checks.SIZE_BANDS,
            invariants=checks.INVARIANTS,
            extraction=False,
            pooled=_honest,
        ),
        Workload(
            name="conceal-s20",
            config={
                "params": {"s": 20, "f_a": 0.01, "f_b": 0.02, "f_c": 0.01,
                           "ratio_k": 0.8, "ratio_d": 0.05},
                "bob": "early-extract",
                "threads": 1,
            },
            batch=50,
            allowed_stages=checks.SIZE_BANDS,
            invariants=checks.INVARIANTS,
            extraction=True,
            pooled=_conceal,
        ),
        Workload(
            name="fake-unveil-s500",
            config={
                "params": {"s": 500, "f_a": 0.10, "f_b": 0.15, "f_c": 0.05},
                "alice": "fake-unmeasured:3",
                "code": {"kind": "block-repetition", "k": 8, "t": 6},
                "threads": 1,
            },
            batch=40,
            allowed_stages=checks.U3_CHECKS + checks.SIZE_BANDS,
            invariants=("d_soundness", "c5_empty", "u5_parity"),
            extraction=False,
            pooled=_fake_unveil,
        ),
    )
}
