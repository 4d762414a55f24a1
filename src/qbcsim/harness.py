"""Seeded Monte Carlo runner: batches, sweeps, and machine-readable reports.

A batch executes `trials` protocol runs from one configuration, one after
another.  Trial i draws its generator from SeedSequence((master_seed, i)),
so it depends only on (master_seed, i), and a report can be reproduced from
its own config echo.  Reports carry no timestamps or host data for the same
reason: identical configs must produce byte-identical files.  A `threads`
key from older configs is accepted, checked to be an integer >= 1, and
ignored.

The statistical gates compare the three set-size ratios against the counting
formulas, with a four-standard-error band computed from the per-trial sample
spread.  Gates only make sense for an honest Alice (a cheating strategy moves
the claimed sizes on purpose), so gate evaluation on an adversarial config is
a configuration error, not a failed gate.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import adversary, lincode, protocol
from .lincode import CodeProvider
from .protocol import ProtocolParams, RunResult

GATE_METRICS = ("ratio_M", "ratio_D", "ratio_MminusD")
VIOLATION_KEYS = ("d_soundness", "lie_b_annihilation", "c5_empty", "u5_parity")


class ConfigError(ValueError):
    """A run or sweep configuration cannot be executed as given."""


# ---------------------------------------------------------------------------
# aggregate types


@dataclass(frozen=True)
class MetricStats:
    """Sample summary for one metric; count can be zero for unused metrics."""

    mean: Optional[float]
    std: Optional[float]
    count: int
    ci95: Optional[float]

    @classmethod
    def from_samples(cls, samples) -> "MetricStats":
        n = len(samples)
        if n == 0:
            return cls(None, None, 0, None)
        arr = np.asarray(samples, dtype=float)
        mean = float(arr.mean())
        std = float(arr.std(ddof=1)) if n > 1 else 0.0
        ci = 1.96 * std / math.sqrt(n)
        return cls(mean, std, n, ci)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "MetricStats":
        return cls(**d)


@dataclass(frozen=True)
class GateCheck:
    metric: str
    target: float
    empirical: float
    band: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "GateCheck":
        return cls(**d)


@dataclass
class BatchReport:
    label: str
    config: dict
    trials: int
    stats: dict
    violations: dict
    caught: dict
    code_shapes: list
    gates: list
    gates_evaluated: bool
    entropy_floor: Optional[dict] = None
    transcripts: Optional[list] = None

    @property
    def gates_passed(self) -> Optional[bool]:
        if not self.gates_evaluated:
            return None
        return all(g.passed for g in self.gates)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "config": self.config,
            "trials": self.trials,
            "stats": {k: v.to_dict() for k, v in self.stats.items()},
            "violations": dict(self.violations),
            "caught": dict(self.caught),
            "code_shapes": [list(s) for s in self.code_shapes],
            "gates": [g.to_dict() for g in self.gates],
            "gates_evaluated": self.gates_evaluated,
            "gates_passed": self.gates_passed,
            "entropy_floor": self.entropy_floor,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BatchReport":
        return cls(
            label=d["label"],
            config=d["config"],
            trials=d["trials"],
            stats={k: MetricStats.from_dict(v) for k, v in d["stats"].items()},
            violations=dict(d["violations"]),
            caught=dict(d["caught"]),
            code_shapes=[tuple(s) for s in d["code_shapes"]],
            gates=[GateCheck.from_dict(g) for g in d["gates"]],
            gates_evaluated=d["gates_evaluated"],
            entropy_floor=d.get("entropy_floor"),
        )

    def csv_rows(self) -> list:
        rows = []
        gate_by_metric = {g.metric: g for g in self.gates}
        for name in sorted(self.stats):
            st = self.stats[name]
            gate = gate_by_metric.get(name)
            rows.append(
                _csv_row(
                    self.label, name, mean=st.mean, std=st.std, count=st.count, ci95=st.ci95,
                    gate_target=gate.target if gate else None,
                    gate_band=gate.band if gate else None,
                    gate_passed=gate.passed if gate else None,
                )
            )
        for key in VIOLATION_KEYS:
            rows.append(_csv_row(self.label, f"violations_{key}",
                                 mean=self.violations.get(key, 0), count=self.trials))
        return rows


def _csv_row(point: str, metric: str, **values) -> dict:
    """One CSV_COLUMNS row; columns not given are empty."""
    row = dict.fromkeys(CSV_COLUMNS)
    row.update(point=point, metric=metric, **values)
    return row


# ---------------------------------------------------------------------------
# configuration


_TOP_KEYS = {
    "master_seed", "trials", "label", "params", "alice", "bob", "code",
    "bit", "gates", "transcripts", "threads",
}
_CODE_KEYS = {
    "ratio": {"kind", "ratio_k", "ratio_d"},
    "block-repetition": {"kind", "k", "t", "ratio_d"},
    "identity": {"kind"},
}


@dataclass
class RunConfig:
    master_seed: int
    trials: int
    params: ProtocolParams
    label: str = "run"
    alice_spec: str = "honest"
    bob_spec: str = "honest"
    code: Optional[dict] = None
    bit: Optional[int] = None
    gates: Optional[bool] = None  # None = decide from the strategy mix
    transcripts: bool = False

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(d) - _TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("master_seed", "trials", "params"):
            if key not in d:
                raise ConfigError(f"config key {key!r} is required")
        master_seed = _as_int(d["master_seed"], "master_seed")
        if not (0 <= master_seed < 2 ** 64):
            raise ConfigError("master_seed must fit in 64 unsigned bits")
        trials = _as_int(d["trials"], "trials")
        if trials < 1:
            raise ConfigError("trials must be >= 1")
        params = build_params(d["params"])
        bit = d.get("bit")
        if bit is not None and _as_int(bit, "bit") not in (0, 1):
            raise ConfigError("bit must be null, 0 or 1")
        # accepted for old configs; batches always run serially
        if _as_int(d.get("threads", 1), "threads") < 1:
            raise ConfigError("threads must be >= 1")
        gates = d.get("gates")
        if gates is not None and not isinstance(gates, bool):
            raise ConfigError("gates must be true, false or omitted")
        transcripts = d.get("transcripts", False)
        if not isinstance(transcripts, bool):
            raise ConfigError("transcripts must be true, false or omitted")
        config = cls(
            master_seed=master_seed,
            trials=trials,
            params=params,
            label=str(d.get("label", "run")),
            alice_spec=str(d.get("alice", "honest")),
            bob_spec=str(d.get("bob", "honest")),
            code=d.get("code"),
            bit=bit,
            gates=gates,
            transcripts=transcripts,
        )
        config.validate()
        return config

    def validate(self) -> None:
        try:
            alice = adversary.make_alice_strategy(self.alice_spec)
            adversary.make_bob_strategy(self.bob_spec)
        except protocol.StrategyError as exc:
            raise ConfigError(str(exc)) from exc
        build_code_provider(self.code, self.params)
        if self.gates is True:
            if alice.name != "honest":
                raise ConfigError("gates compare honest counting formulas; alice must be honest")
            if self.trials < 30:
                raise ConfigError("gates need at least 30 trials")

    def evaluate_gates(self) -> bool:
        if self.gates is not None:
            return self.gates
        return self.alice_spec == "honest" and self.trials >= 30

    def echo(self) -> dict:
        d = {
            "master_seed": self.master_seed,
            "trials": self.trials,
            "label": self.label,
            "params": {
                "s": self.params.s,
                "f_a": self.params.f_a,
                "f_b": self.params.f_b,
                "f_c": self.params.f_c,
                "s_prime": self.params.s_prime,
                "theta": list(self.params.theta)
                if isinstance(self.params.theta, tuple)
                else self.params.theta,
                "ratio_k": self.params.ratio_k,
                "ratio_d": self.params.ratio_d,
                "tolerance_z": self.params.tolerance_z,
            },
            "alice": self.alice_spec,
            "bob": self.bob_spec,
            "code": self.code,
            "bit": self.bit,
            "gates": self.gates,
            "transcripts": self.transcripts,
            "lie_counts": list(self.params.lie_counts),
        }
        return d


def _as_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer")
    return int(value)


def _as_real(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{name} must be a number")
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite")
    return float(value)


_INT_PARAMS = ("s", "s_prime")
_REAL_PARAMS = ("f_a", "f_b", "f_c", "ratio_k", "ratio_d", "tolerance_z")


def build_params(d: dict) -> ProtocolParams:
    if not isinstance(d, dict):
        raise ConfigError("params must be a JSON object")
    kwargs = dict(d)
    # values are checked, not converted, so the config echo keeps them as given
    for key in _INT_PARAMS:
        if key in kwargs:
            _as_int(kwargs[key], key)
    for key in _REAL_PARAMS:
        if key in kwargs:
            _as_real(kwargs[key], key)
    theta = kwargs.get("theta")
    if isinstance(theta, (list, tuple)):
        for angle in theta:
            _as_real(angle, "theta")
        kwargs["theta"] = tuple(theta)
    elif "theta" in kwargs:
        _as_real(theta, "theta")
    try:
        return ProtocolParams(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad params: {exc}") from exc
    except protocol.ProtocolError as exc:
        raise ConfigError(str(exc)) from exc


def build_code_provider(code: Optional[dict], params: ProtocolParams) -> CodeProvider:
    if code is None:
        return lincode.ratio_code_provider(params.ratio_k, params.ratio_d)
    if not isinstance(code, dict) or "kind" not in code:
        raise ConfigError("code config must be an object with a 'kind' key")
    kind = code["kind"]
    allowed = _CODE_KEYS.get(kind)
    if allowed is None:
        raise ConfigError(f"unknown code kind {kind!r}")
    unknown = set(code) - allowed
    if unknown:
        raise ConfigError(f"unknown keys for code kind {kind!r}: {sorted(unknown)}")
    try:
        if kind == "ratio":
            return lincode.ratio_code_provider(
                _as_real(code.get("ratio_k", params.ratio_k), "ratio_k"),
                _as_real(code.get("ratio_d", params.ratio_d), "ratio_d"),
            )
        if kind == "block-repetition":
            if "k" not in code:
                raise ConfigError("block-repetition code needs 'k'")
            t, ratio_d = code.get("t"), code.get("ratio_d")
            return lincode.block_repetition_provider(
                _as_int(code["k"], "k"),
                t=None if t is None else _as_int(t, "t"),
                ratio_d=None if ratio_d is None else _as_real(ratio_d, "ratio_d"),
            )
        return lincode.identity_code_provider()
    except lincode.CodeError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# execution


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent, order-insensitive generator for one trial."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, trial_index)))


def run_single_trial(config: RunConfig, trial_index: int) -> RunResult:
    rng = trial_rng(config.master_seed, trial_index)
    alice = adversary.make_alice_strategy(config.alice_spec)
    bob = adversary.make_bob_strategy(config.bob_spec)
    provider = build_code_provider(config.code, config.params)
    return protocol.execute_run(
        config.params,
        rng,
        alice=alice,
        bob=bob,
        code_provider=provider,
        bit=config.bit,
        record_transcript=config.transcripts,
    )


def run_batch(config: RunConfig) -> BatchReport:
    """Execute the configured trials and aggregate; deterministic in config."""
    results = [run_single_trial(config, i) for i in range(config.trials)]
    return _aggregate(config, results)


def _aggregate(config: RunConfig, results: list) -> BatchReport:
    alice_honest = adversary.make_alice_strategy(config.alice_spec).name == "honest"
    ratios_m = [r.ratio_M for r in results]
    ratios_d = [r.ratio_D for r in results]
    ratios_md = [r.ratio_MminusD for r in results]
    commit = [int(r.commit_accepted) for r in results]
    unveil = [int(r.unveil_accepted) for r in results]
    cheat = [] if alice_honest else [int(r.unveil_accepted) for r in results]
    guesses = [
        int(r.extraction.guess == r.extraction.truth)
        for r in results
        if r.extraction is not None
    ]
    stats = {
        "ratio_M": MetricStats.from_samples(ratios_m),
        "ratio_D": MetricStats.from_samples(ratios_d),
        "ratio_MminusD": MetricStats.from_samples(ratios_md),
        "commit_accept_rate": MetricStats.from_samples(commit),
        "unveil_accept_rate": MetricStats.from_samples(unveil),
        "cheat_success_rate": MetricStats.from_samples(cheat),
        "bob_guess_accuracy": MetricStats.from_samples(guesses),
    }
    violations = {
        key: int(sum(r.violations.get(key, 0) for r in results)) for key in VIOLATION_KEYS
    }
    caught: dict = {}
    for r in results:
        if r.caught_at is not None:
            caught[r.caught_at] = caught.get(r.caught_at, 0) + 1
    shapes = sorted({r.code_shape for r in results if r.code_shape is not None})

    # concealment-side health flag: desk-scale codes usually sit below the
    # asymptotic distance floor d > gamma*n, and reports should say so
    entropy_floor = None
    if shapes:
        gamma = lincode.inv_binary_entropy(0.5)
        entropy_floor = {
            "gamma": round(gamma, 7),
            "satisfied": bool(all(d > gamma * n for n, _k, d in shapes)),
        }

    gates = []
    evaluated = config.evaluate_gates()
    if evaluated:
        mean_m, _ = config.params.measured_expectation()
        mean_d, _ = config.params.detected_expectation()
        s = config.params.s
        targets = {
            "ratio_M": mean_m / s,
            "ratio_D": mean_d / s,
            "ratio_MminusD": (mean_m - mean_d) / s,
        }
        for metric in GATE_METRICS:
            st = stats[metric]
            band = 4.0 * st.std / math.sqrt(st.count) + 1e-12
            gates.append(
                GateCheck(
                    metric=metric,
                    target=targets[metric],
                    empirical=st.mean,
                    band=band,
                    passed=abs(st.mean - targets[metric]) <= band,
                )
            )

    transcripts = [r.transcript for r in results] if config.transcripts else None
    return BatchReport(
        label=config.label,
        config=config.echo(),
        trials=config.trials,
        stats=stats,
        violations=violations,
        caught=caught,
        code_shapes=shapes,
        gates=gates,
        gates_evaluated=evaluated,
        entropy_floor=entropy_floor,
        transcripts=transcripts,
    )


# ---------------------------------------------------------------------------
# sweeps


SWEEP_AXES = ("s", "s_prime_frac", "f", "ratio_k", "ratio_d")


@dataclass
class SweepPoint:
    label: str
    point: dict
    report: Optional[BatchReport]
    skipped: Optional[str]

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "point": self.point,
            "report": self.report.to_dict() if self.report else None,
            "skipped": self.skipped,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SweepPoint":
        report = BatchReport.from_dict(d["report"]) if d["report"] else None
        return cls(d["label"], d["point"], report, d["skipped"])


@dataclass
class SweepReport:
    base: dict
    grid: dict
    points: list

    def to_dict(self) -> dict:
        return {
            "base": self.base,
            "grid": self.grid,
            "points": [p.to_dict() for p in self.points],
            "summary": self.summary(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SweepReport":
        return cls(d["base"], d["grid"], [SweepPoint.from_dict(p) for p in d["points"]])

    def summary(self) -> list:
        rows = []
        for p in self.points:
            row = {"label": p.label, "skipped": p.skipped}
            if p.report is not None:
                for metric in GATE_METRICS:
                    row[metric] = p.report.stats[metric].mean
                row["unveil_accept_rate"] = p.report.stats["unveil_accept_rate"].mean
                row["cheat_success_rate"] = p.report.stats["cheat_success_rate"].mean
                row["gates_passed"] = p.report.gates_passed
            rows.append(row)
        return rows

    def csv_rows(self) -> list:
        rows = []
        for p in self.points:
            if p.report is None:
                rows.append(_csv_row(p.label, "skipped", count=0))
            else:
                rows.extend(p.report.csv_rows())
        return rows

    @property
    def gates_passed(self) -> Optional[bool]:
        verdicts = [p.report.gates_passed for p in self.points if p.report is not None]
        verdicts = [v for v in verdicts if v is not None]
        if not verdicts:
            return None
        return all(verdicts)


def _point_seed(master_seed: int, index: int) -> int:
    return int(np.random.SeedSequence((master_seed, index)).generate_state(1, np.uint64)[0])


def _apply_point(base: dict, point: dict) -> dict:
    d = json.loads(json.dumps(base))  # deep copy, JSON types only
    params = dict(d.get("params", {}))
    if "s" in point:
        params["s"] = point["s"]
    if "s_prime_frac" in point:
        params["s_prime"] = int(round(point["s_prime_frac"] * params["s"]))
    if "f" in point:
        params["f_a"], params["f_b"], params["f_c"] = point["f"]
    if "ratio_k" in point:
        params["ratio_k"] = point["ratio_k"]
    if "ratio_d" in point:
        params["ratio_d"] = point["ratio_d"]
    d["params"] = params
    return d


def run_sweep(base: dict, grid: dict) -> SweepReport:
    """Run a batch per grid point; infeasible points become skipped rows."""
    if not isinstance(grid, dict):
        raise ConfigError("grid must be a JSON object")
    unknown = set(grid) - set(SWEEP_AXES)
    if unknown:
        raise ConfigError(f"unknown sweep axes: {sorted(unknown)}")
    if not isinstance(base, dict):
        raise ConfigError("base must be a JSON object")
    base_seed = _as_int(base.get("master_seed", 0), "master_seed")
    axes = [(name, grid[name]) for name in SWEEP_AXES if name in grid]
    for name, values in axes:
        if not isinstance(values, (list, tuple)):
            raise ConfigError(f"sweep axis {name!r} must be a list")
        if not values:
            raise ConfigError(f"sweep axis {name!r} is empty")
    combos = itertools.product(*(values for _, values in axes)) if axes else iter(())
    points = []
    for index, combo in enumerate(combos):
        point = {name: value for (name, _), value in zip(axes, combo)}
        label = ",".join(f"{k}={_label_value(v)}" for k, v in point.items())
        config_dict = _apply_point(base, point)
        config_dict["master_seed"] = _point_seed(base_seed, index)
        config_dict["label"] = label
        try:
            config = RunConfig.from_dict(config_dict)
            report = run_batch(config)
            points.append(SweepPoint(label, point, report, None))
        except (ConfigError, protocol.ProtocolError, lincode.CodeError) as exc:
            points.append(SweepPoint(label, point, None, str(exc)))
    return SweepReport(base=base, grid=grid, points=points)


def _label_value(v) -> str:
    if isinstance(v, (list, tuple)):
        return "(" + ",".join(str(x) for x in v) + ")"
    return str(v)


# ---------------------------------------------------------------------------
# report files


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


CSV_COLUMNS = (
    "point", "metric", "mean", "std", "count", "ci95",
    "gate_target", "gate_band", "gate_passed",
)


def report_json(report) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


def report_csv(report) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in report.csv_rows():
        writer.writerow({k: ("" if row.get(k) is None else row.get(k)) for k in CSV_COLUMNS})
    return buffer.getvalue()


def write_report(report, json_path: Optional[str] = None, csv_path: Optional[str] = None,
                 transcripts_path: Optional[str] = None) -> None:
    """Emit report files atomically; missing paths mean the format is skipped."""
    try:
        if json_path:
            _atomic_write(json_path, report_json(report))
        if csv_path:
            _atomic_write(csv_path, report_csv(report))
        if transcripts_path:
            transcripts = getattr(report, "transcripts", None)
            if transcripts is None:
                raise ConfigError("config did not record transcripts; enable 'transcripts'")
            payload = json.dumps({"transcripts": transcripts}, indent=2, sort_keys=True)
            _atomic_write(transcripts_path, payload + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write report: {exc}") from exc
