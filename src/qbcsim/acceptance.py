"""Release gates: the statistical claims this package must reproduce.

Each criterion runs with fixed seeds and a wall-clock budget, so the whole
suite is deterministic and bounded.  A criterion returns its check rows, not
just a verdict; the verify subcommand prints them and the test suite asserts
on them, from the same functions.

Tolerances follow one convention: exact structural facts are checked
exactly, Monte Carlo estimates get a four-standard-error band computed from
the estimate's own trial count.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import adversary, harness, lincode, protocol, qstate

QUARTER_PI = math.pi / 4.0


@dataclass
class Check:
    name: str
    passed: bool
    observed: object
    target: object

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class CriterionResult:
    number: int
    key: str
    description: str
    passed: bool
    elapsed: float
    budget: float
    checks: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "number": self.number,
            "key": self.key,
            "description": self.description,
            "passed": self.passed,
            "elapsed": round(self.elapsed, 3),
            "budget": self.budget,
            "headroom": round(self.elapsed / self.budget, 3),  # share of the budget used
            "checks": [c.to_dict() for c in self.checks],
        }

    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]


class _Recorder:
    def __init__(self) -> None:
        self.checks: list = []
        self.start = time.perf_counter()

    def add(self, name: str, passed: bool, observed, target) -> None:
        self.checks.append(Check(name, bool(passed), observed, target))

    def band(self, name: str, observed: float, target: float, band: float) -> None:
        self.add(
            name,
            abs(observed - target) <= band,
            round(float(observed), 6),
            f"{target} +- {band:.6g}",
        )

    def finish(self, number: int, key: str, description: str, budget: float) -> CriterionResult:
        elapsed = time.perf_counter() - self.start
        self.add(f"runtime under {budget:g}s", elapsed <= budget, round(elapsed, 3), budget)
        return CriterionResult(
            number=number,
            key=key,
            description=description,
            passed=all(c.passed for c in self.checks),
            elapsed=elapsed,
            budget=budget,
            checks=self.checks,
        )


def _four_sigma(p: float, n: int) -> float:
    return 4.0 * math.sqrt(p * (1.0 - p) / n)


# ---------------------------------------------------------------------------
# 1: photon statistics and conditional register states


def photon_projection(pair_amp, pol_amp) -> np.ndarray:
    """Dense reference for a photon projection: (I kron |pol><pol|) @ pair.

    Works on raw amplitude sequences with numpy alone, so it stays independent
    of the memoized qstate transitions it is used to cross-check.
    """
    pol = np.asarray(pol_amp, dtype=complex)
    projector = np.kron(np.eye(2), np.outer(pol, pol.conj()))
    return projector @ np.asarray(pair_amp, dtype=complex)


def _projection_oracle(theta: float, q: int, basis: int, value: int) -> np.ndarray:
    """Independent register-state computation: explicit kron projector."""
    pair = (math.cos(theta) * np.kron([1.0, 0.0], qstate.pol_ket(0, q).amplitudes())
            + math.sin(theta) * np.kron([0.0, 1.0], qstate.pol_ket(1, q).amplitudes()))
    pol = qstate.pol_ket(basis, value).amplitudes()
    projected = photon_projection(pair, pol)
    alpha = projected.reshape(2, 2) @ np.conj(pol)
    norm = np.linalg.norm(alpha)
    if norm < 1e-12:
        raise AssertionError("projection annihilated the state")
    return alpha / norm


def criterion_born() -> CriterionResult:
    rec = _Recorder()
    rng = np.random.default_rng(11001)
    samples = 100_000
    matches = 0
    for _ in range(samples):
        q = int(rng.integers(0, 2))
        basis = int(rng.integers(0, 2))
        outcome, _ = qstate.measure_photon(qstate.prepare_pair(QUARTER_PI, q), basis, rng)
        matches += outcome == q
    rec.band(
        "P(photon value = q) at 100k samples",
        matches / samples,
        0.75,
        _four_sigma(0.75, samples),
    )

    heavy_x = (math.sqrt(2.0 / 3.0), math.sqrt(1.0 / 3.0))
    heavy_y = (math.sqrt(1.0 / 3.0), math.sqrt(2.0 / 3.0))
    pure_x, pure_y = (1.0, 0.0), (0.0, 1.0)
    for q in (0, 1):
        for basis in (0, 1):
            for value in (0, 1):
                conditional = qstate.expected_alpha_after_photon(QUARTER_PI, q, basis, value)
                oracle = _projection_oracle(QUARTER_PI, q, basis, value)
                agreement = abs(
                    np.vdot(oracle, np.array([conditional.a0, conditional.a1]))
                )
                rec.add(
                    f"conditional state q={q} basis={basis} value={value} matches projector",
                    abs(agreement - 1.0) <= 1e-12,
                    round(float(agreement), 15),
                    "overlap modulus 1",
                )
                if value == q:
                    expected = heavy_x if basis == 0 else heavy_y
                else:
                    expected = pure_x if basis == 1 else pure_y
                off = max(
                    abs(abs(conditional.a0) - expected[0]),
                    abs(abs(conditional.a1) - expected[1]),
                )
                rec.add(
                    f"conditional amplitudes q={q} basis={basis} value={value}",
                    off <= 1e-12,
                    round(float(off), 15),
                    "within 1e-12 of the closed form",
                )
    return rec.finish(1, "born", "photon statistics and conditional register states", 5.0)


# ---------------------------------------------------------------------------
# 2: counting formulas


def criterion_counting() -> CriterionResult:
    rec = _Recorder()
    config = harness.RunConfig.from_dict(
        {
            "master_seed": 22002,
            "trials": 50,
            "label": "acceptance-counting",
            "params": {"s": 2000, "f_a": 0.10, "f_b": 0.15, "f_c": 0.05},
            "code": {"kind": "block-repetition", "k": 8, "ratio_d": 0.05},
        }
    )
    report = harness.run_batch(config)
    targets = {"ratio_M": 0.325, "ratio_D": 0.100, "ratio_MminusD": 0.225}
    rec.add("gates evaluated", report.gates_evaluated, report.gates_evaluated, True)
    for gate in report.gates:
        rec.add(
            f"{gate.metric} formula target",
            abs(gate.target - targets[gate.metric]) <= 1e-12,
            gate.target,
            targets[gate.metric],
        )
        rec.band(f"{gate.metric} within band", gate.empirical, gate.target, gate.band)
    return rec.finish(2, "counting", "set-size formulas over 50 honest runs at s=2000", 30.0)


# ---------------------------------------------------------------------------
# 3: exact invariants


def criterion_invariants() -> CriterionResult:
    rec = _Recorder()
    config = harness.RunConfig.from_dict(
        {
            "master_seed": 33003,
            "trials": 1000,
            "label": "acceptance-invariants",
            "params": {"s": 200, "f_a": 0.10, "f_b": 0.20, "f_c": 0.10, "s_prime": 40},
            "code": {"kind": "block-repetition", "k": 8, "ratio_d": 0.05},
        }
    )
    report = harness.run_batch(config)
    rec.add("lie counts realized", report.config["lie_counts"] == [10, 30, 10],
            report.config["lie_counts"], [10, 30, 10])
    for key in harness.VIOLATION_KEYS:
        rec.add(f"zero {key} violations", report.violations[key] == 0,
                report.violations[key], 0)
    rec.add("all 1000 honest unveils accepted",
            report.stats["unveil_accept_rate"].mean == 1.0,
            report.stats["unveil_accept_rate"].mean, 1.0)
    return rec.finish(3, "invariants", "exact invariants over 1000 honest runs", 60.0)


# ---------------------------------------------------------------------------
# 4: solver measurement budgets


def criterion_solvers() -> CriterionResult:
    rec = _Recorder()
    params = protocol.ProtocolParams(s=2000, f_a=0.10, f_b=0.15, f_c=0.05)
    trials = 15
    counts: dict[str, list] = {"semi": [], "optimal": [], "B": [], "C": []}
    rng = np.random.default_rng(44004)
    for _ in range(trials):
        counts["semi"].append(protocol.semi_classical_solver(params, rng).measured_count)
        counts["optimal"].append(protocol.optimal_solver(params, rng).measured_count)
        counts["B"].append(protocol.variant_solver("B", params, rng).measured_count)
        counts["C"].append(protocol.variant_solver("C", params, rng).measured_count)

    rec.add("semi-classical measures every pair",
            all(c == params.s for c in counts["semi"]),
            sorted(set(counts["semi"])), [params.s])
    rec.add("same-basis variant measures s/2",
            all(c == params.s // 2 for c in counts["B"]),
            sorted(set(counts["B"])), [params.s // 2])

    def sample_band(values: list) -> float:
        std = float(np.std(values, ddof=1))
        return 4.0 * std / math.sqrt(len(values)) + 1e-9

    mean_c = float(np.mean(counts["C"]))
    mean_opt = float(np.mean(counts["optimal"]))
    rec.band("cross-value variant mean count", mean_c, 0.375 * params.s,
             sample_band(counts["C"]))
    rec.band("entangled-protocol mean count", mean_opt, 0.325 * params.s,
             sample_band(counts["optimal"]))
    ordering = mean_opt < mean_c < float(np.mean(counts["B"]))
    rec.add("budget ordering entangled < cross-value < same-basis", ordering,
            [round(mean_opt, 1), round(mean_c, 1), float(np.mean(counts["B"]))],
            "strictly increasing")
    return rec.finish(4, "solvers", "measurement budgets of the detection strategies", 30.0)


# ---------------------------------------------------------------------------
# 5: binding


def _fake_unveil_rate(s: int, m: int, provider, trials: int, seed: int) -> float:
    params = protocol.ProtocolParams(s=s, f_a=0.10, f_b=0.15, f_c=0.05)
    alice = adversary.FakeUnmeasuredAlice(m, "send-x")
    successes = 0
    for i in range(trials):
        result = protocol.execute_run(
            params, harness.trial_rng(seed, i), alice=alice, code_provider=provider
        )
        successes += result.unveil_accepted
    return successes / trials


def criterion_binding() -> CriterionResult:
    # Tests the send-x fabrication policy only.  Under send-best-guess the same
    # d = 6 batch (seed 55016, 1000 trials) is accepted at 0.729, against the
    # (2/3)^3 = 0.296 bound (ROADMAP item 1).
    rec = _Recorder()
    stats = adversary.fake_survival_trials(80_000, np.random.default_rng(55001), policy="send-x")
    # the sqrt(2/3)|x> + sqrt(1/3)|y> conditional arises when Bob's rectilinear
    # outcome agrees with the value bit; a substituted |x> escapes it 2/3 of the time
    heavy_x = stats.cases["heavy-x"]
    catch = 1.0 - heavy_x.survival
    rec.band("per-pair catch against the sqrt(2/3)-leading state", catch, 1.0 / 3.0,
             _four_sigma(1.0 / 3.0, heavy_x.episodes))

    for distance, s in ((6, 64), (10, 104)):
        m = distance // 2
        provider = lincode.block_repetition_provider(8, t=distance)
        rate = _fake_unveil_rate(s, m, provider, trials=1000, seed=55010 + distance)
        bound = adversary.binding_bound(distance) + _four_sigma(max(rate, 1e-3), 1000)
        rec.add(
            f"fake unveil of {m} registers at code distance {distance} suppressed",
            rate <= bound,
            round(rate, 4),
            f"<= {bound:.4f}",
        )

    trend = []
    for s, m in ((500, 3), (1000, 6), (2000, 12)):
        provider = lincode.block_repetition_provider(8, ratio_d=0.0133)
        trend.append(_fake_unveil_rate(s, m, provider, trials=400, seed=55020 + s))
    rec.add(
        "success rate non-increasing in s at fixed ratios",
        trend[0] >= trend[1] >= trend[2],
        [round(r, 4) for r in trend],
        "non-increasing over s = 500, 1000, 2000",
    )
    return rec.finish(5, "binding",
                      "fake-register survival and fake-unveil suppression (send-x policy)",
                      180.0)


# ---------------------------------------------------------------------------
# 6: over-measurement


def criterion_over_measure() -> CriterionResult:
    rec = _Recorder()
    s, trials = 500, 1000
    config = harness.RunConfig.from_dict(
        {
            "master_seed": 66006,
            "trials": trials,
            "label": "acceptance-over-measure",
            "params": {"s": s, "f_a": 0.10, "f_b": 0.15, "f_c": 0.05},
            "alice": f"over-measure:{s // 5}",
            "code": {"kind": "block-repetition", "k": 8, "ratio_d": 0.05},
        }
    )
    report = harness.run_batch(config)
    caught_u4 = sum(count for stage, count in report.caught.items() if stage.startswith("U4"))
    rec.add(
        "0.2s extra claimed measurements rejected at the size check",
        caught_u4 / trials >= 0.999,
        round(caught_u4 / trials, 4),
        ">= 0.999",
    )
    rec.add("no oversized unveil accepted",
            report.stats["unveil_accept_rate"].mean == 0.0,
            report.stats["unveil_accept_rate"].mean, 0.0)
    return rec.finish(6, "over-measure", "oversized claimed-measured set is rejected", 60.0)


# ---------------------------------------------------------------------------
# 7: concealment


def criterion_concealing() -> CriterionResult:
    rec = _Recorder()
    trials = 2000
    config = harness.RunConfig.from_dict(
        {
            "master_seed": 77007,
            "trials": trials,
            "label": "acceptance-concealing",
            "params": {
                "s": 20, "f_a": 0.01, "f_b": 0.02, "f_c": 0.01,
                "ratio_k": 0.8, "ratio_d": 0.05,
            },
            "bob": "early-extract",
        }
    )
    report = harness.run_batch(config)
    accuracy = report.stats["bob_guess_accuracy"]
    rec.add("every trial produced an extraction", accuracy.count == trials,
            accuracy.count, trials)
    rec.band("early-extraction guess accuracy", accuracy.mean, 0.5,
             _four_sigma(0.5, trials))

    control = adversary.measure_binding(
        protocol.ProtocolParams(s=16, f_a=0.15, f_b=0.20, f_c=0.15),
        trials=300,
        rng=np.random.default_rng(77008),
        code_provider=lincode.identity_code_provider(),
    )
    rec.add("identity-code control has distance 1", control.distance == 1,
            control.distance, 1)
    rec.add(
        "identity-code control breaks binding",
        control.success_rate >= 0.5,
        round(control.success_rate, 4),
        ">= 0.5",
    )
    return rec.finish(7, "concealing", "committed bit hidden from early extraction", 120.0)


# ---------------------------------------------------------------------------
# 8: code counting bounds


_SEEDED_CODES = (
    (14, 8, 3, 88001),
    (16, 9, 3, 88002),
    (20, 11, 4, 88003),
    (24, 13, 4, 88004),
)


def criterion_codes() -> CriterionResult:
    rec = _Recorder()
    gamma = lincode.inv_binary_entropy(0.5)
    rec.add("inverse binary entropy at 1/2", abs(gamma - 0.1100279) <= 1e-6,
            round(gamma, 8), "0.1100279 +- 1e-6")

    worst = None
    for n in range(8, 65):
        margin = math.comb(n, math.ceil(gamma * n)) / (2.0 ** (n / 2.0) / math.sqrt(n))
        worst = margin if worst is None else min(worst, margin)
    rec.add("binomial bound C(n, ceil(gamma n)) >= 2^(n/2)/sqrt(n) for n in 8..64",
            worst >= 1.0, round(worst, 3), ">= 1")

    for n, k, d_target, seed in _SEEDED_CODES:
        G = lincode.generate_code(
            lincode.CodeSpec(n=n, k=k, d_target=d_target), np.random.default_rng(seed)
        )
        d0 = int(0.225 * n + 0.5)
        count = lincode.count_codewords_at_distance(G, np.zeros(n, dtype=np.uint8), d0)
        bound = 2.0 ** (k - n / 2.0) / math.sqrt(n)
        rec.add(f"d0 respects the entropy floor for ({n},{k})",
                d0 >= math.ceil(gamma * n), d0, f">= {math.ceil(gamma * n)}")
        rec.add(
            f"codewords at distance {d0} of a ({n},{k}) code beat 2^(k-n/2)/sqrt(n)",
            count >= bound,
            count,
            f">= {bound:.3f}",
        )
    return rec.finish(8, "codes", "code counting bounds", 10.0)


# ---------------------------------------------------------------------------
# 9: determinism


def criterion_determinism() -> CriterionResult:
    rec = _Recorder()

    def make(**extra):
        return harness.run_batch(
            harness.RunConfig.from_dict(
                {
                    "master_seed": 99009,
                    "trials": 20,
                    "label": "acceptance-determinism",
                    "params": {"s": 60, "f_a": 0.10, "f_b": 0.15, "f_c": 0.05,
                               "s_prime": 12},
                    "code": {"kind": "block-repetition", "k": 8, "ratio_d": 0.1},
                    "transcripts": True,
                    **extra,
                }
            )
        )

    # threads is a legacy key: accepted, validated and ignored
    first, second, legacy = make(), make(), make(threads=8)
    rec.add("repeat execution is bit-identical",
            harness.report_json(first) == harness.report_json(second),
            "identical" if harness.report_json(first) == harness.report_json(second) else "differs",
            "identical")
    rec.add("legacy threads key leaves the report bit-identical",
            harness.report_json(first) == harness.report_json(legacy),
            "identical" if harness.report_json(first) == harness.report_json(legacy) else "differs",
            "identical")
    rec.add("transcripts identical across repeats and the legacy threads key",
            first.transcripts == legacy.transcripts == second.transcripts,
            "identical" if first.transcripts == legacy.transcripts == second.transcripts
            else "differs",
            "identical")
    return rec.finish(9, "determinism",
                      "bit-identical reports across repeats and a legacy threads key", 30.0)


# ---------------------------------------------------------------------------
# registry


CRITERIA = (
    ("born", criterion_born),
    ("counting", criterion_counting),
    ("invariants", criterion_invariants),
    ("solvers", criterion_solvers),
    ("binding", criterion_binding),
    ("over-measure", criterion_over_measure),
    ("concealing", criterion_concealing),
    ("codes", criterion_codes),
    ("determinism", criterion_determinism),
)


def criterion_keys() -> tuple:
    return tuple(key for key, _ in CRITERIA)


def run_criteria(only=None) -> list:
    """Execute the requested criteria (all by default), in suite order."""
    if only is not None:
        unknown = set(only) - set(criterion_keys())
        if unknown:
            raise ValueError(f"unknown criteria: {sorted(unknown)}")
    results = []
    for key, fn in CRITERIA:
        if only is None or key in only:
            results.append(fn())
    return results
