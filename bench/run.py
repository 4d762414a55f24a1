"""Run one benchmark workload of qbcsim and print its metrics as JSON.

    python3 bench/run.py --workload honest-s2000 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from ./src.
The run drives harness.RunConfig.from_dict -> harness.run_batch ->
harness.write_report in whole batches until --seconds have passed, checks
every report against bench/checks.py, and prints one JSON object as its last
line: correct, attempted and failed trials, and the metrics.

--trace 0 prints the end-to-end metrics (trials_per_s, setup_s,
peak_rss_mb).  --trace 1 alternates an untraced and a traced batch at the
same seed, checks that both wrote the same bytes, and prints the per-layer
metrics of the traced batches.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
# A traced run stops here even before --seconds: every code it builds gets a
# dense distance check afterwards, and that must not outgrow the run.
TRACE_MAX_TRIALS = 1000
SRC = os.path.join(os.path.dirname(HERE), "src")


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def run_round(harness, config, directory: str, tag: str):
    """One timed batch plus report writing: (seconds, report dict, bytes written)."""
    json_path = os.path.join(directory, f"{tag}.json")
    csv_path = os.path.join(directory, f"{tag}.csv")
    start = time.perf_counter()
    report = harness.run_batch(config)
    harness.write_report(report, json_path=json_path, csv_path=csv_path)
    seconds = time.perf_counter() - start
    with open(json_path, "rb") as handle:
        report_json = handle.read()
    with open(csv_path, "rb") as handle:
        report_csv = handle.read()
    return seconds, json.loads(report_json), report_json + report_csv


class Run:
    """Rounds of one workload, with their timings, reports and failures."""

    def __init__(self, harness, workload, seed: int, directory: str):
        self.harness = harness
        self.workload = workload
        self.seed = seed
        self.directory = directory
        self.reports: list = []
        self.problems: list = []  # failed checks; they make the run incorrect
        self.notes: list = []  # failed trials; counted, not a verdict on the rest
        self.attempted = 0
        self.failed = 0

    def config(self, index: int):
        return self.harness.RunConfig.from_dict(self.workload.batch_config(self.seed, index))

    def play(self, config, tag: str, pooled: bool = True):
        """Run one batch; returns (seconds, bytes) or None when it raised.

        Only pooled reports enter the run-level Monte Carlo checks, so a
        traced replay of a batch is not counted as fresh evidence.
        """
        self.attempted += config.trials
        try:
            seconds, report, data = run_round(self.harness, config, self.directory, tag)
        except Exception as exc:  # a raising batch fails all its trials
            self.failed += config.trials
            self.notes.append(f"{tag}: {type(exc).__name__}: {exc}")
            return None
        if pooled:
            self.reports.append(report)
        bad = self.workload.failed(report)
        if bad:
            self.failed += bad
            self.notes.append(f"{tag}: {bad} trials broke an exact check")
        return seconds, data


def untraced(run: Run, first, seconds: float) -> dict:
    rates = []
    start = time.perf_counter()
    index, config = 0, first
    while True:
        played = run.play(config, f"batch-{index}")
        if played is not None:
            rates.append(config.trials / played[0])
        index += 1
        if time.perf_counter() - start >= seconds:
            break
        config = run.config(index)
    if not rates:
        return {}
    return {
        "trials_per_s": {"value": statistics.median(rates), "unit": "trials/s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def traced(run: Run, first, seconds: float) -> dict:
    import checks
    from tracer import Tracer

    tracer = Tracer()
    bare_s = traced_s = 0.0
    trials = batches = report_bytes = 0
    start = time.perf_counter()
    index, config = 0, first
    while True:
        bare = run.play(config, f"bare-{index}")
        with tracer.installed():
            seen = run.play(config, f"traced-{index}", pooled=False)
        tracer.fold()
        if bare is not None and seen is not None:
            run.problems += checks.check_identical(bare[1], seen[1], f"batch {index}")
            bare_s += bare[0]
            traced_s += seen[0]
            trials += config.trials
            batches += 1
            report_bytes += len(seen[1])
        index += 1
        if time.perf_counter() - start >= seconds or trials >= TRACE_MAX_TRIALS:
            break
        config = run.config(index)
    if not trials:
        return {}
    w = run.workload
    run.problems += checks.check_equal("create_pair calls", tracer.calls["qstate.create_pair"],
                                       trials * w.s)
    expected = checks.lie_counts(w.s, w.s_prime, w.f)
    run.problems += [f"realized lie counts {r.lie_counts} != {expected}"
                     for r in tracer.results if tuple(r.lie_counts) != expected]
    counts = tracer.counts()
    run.problems += checks.check_equal("fabricated registers vs replace_alpha calls",
                                       counts["adversary.fabricated_registers"],
                                       tracer.calls["qstate.replace_alpha"])
    unique = {(rows.tobytes(), rows.shape, d): (rows, d) for rows, d in tracer.codes}
    run.problems += checks.check_codes(list(unique.values()))
    return layer_metrics(tracer, trials, batches, report_bytes, traced_s - bare_s)


def layer_metrics(tracer, trials: int, batches: int, report_bytes: int, overhead: float) -> dict:
    own, total, calls = tracer.self_seconds, tracer.seconds, tracer.calls
    counts = tracer.counts()
    results = tracer.results
    committed = [r for r in results if r.commit_accepted]
    reach_u4 = [r for r in committed if not (r.caught_at or "").startswith("U3")]
    reach_u5 = [r for r in reach_u4 if not (r.caught_at or "").startswith("U4")]

    def per_trial(value, unit="s/trial"):
        return {"value": value / trials, "unit": unit}

    def own_s(*names):
        return per_trial(sum(own[n] for n in names))

    def count(*names):
        return per_trial(sum(calls[n] for n in names), "1/trial")

    return {
        "harness.batch_s": per_trial(total["harness.run_batch"]),
        "harness.trial_wait_s": per_trial(total["protocol.execute_run"]
                                          - counts["protocol.execute_run"]),
        "harness.report_write_s": {"value": total["harness.write_report"] / batches,
                                   "unit": "s/batch"},
        "harness.report_bytes": {"value": report_bytes / batches, "unit": "B/batch"},
        "protocol.c1_prepare_s": own_s("protocol.alice_commit_prepare"),
        "protocol.c2_partition_s": own_s("protocol.bob_partition_measure"),
        "protocol.c3_announce_s": own_s("protocol.bob_announce"),
        "protocol.c4_detect_s": own_s("protocol.alice_detect"),
        "protocol.c5_check_s": own_s("protocol.bob_check_commit"),
        "protocol.c67_encode_s": own_s("protocol.alice_encode_commit"),
        "protocol.u12_unveil_s": own_s("protocol.alice_unveil"),
        "protocol.u35_verify_s": own_s("protocol.bob_verify_unveil"),
        "protocol.commits_accepted": per_trial(len(committed), "1/trial"),
        "protocol.reach_u4": per_trial(len(reach_u4), "1/trial"),
        "protocol.reach_u5": per_trial(len(reach_u5), "1/trial"),
        "protocol.unveils_accepted": per_trial(sum(r.unveil_accepted for r in results), "1/trial"),
        "qstate.prepare_s": own_s("qstate.prepare"),
        "qstate.measure_photon_s": own_s("qstate.measure_photon"),
        "qstate.measure_alpha_s": own_s("qstate.measure_alpha", "qstate.measure_alpha_in"),
        "qstate.measure_joint_s": own_s("qstate.measure_joint"),
        "qstate.env_bookkeeping_s": own_s("qstate.create_pair", "qstate.send",
                                          "qstate.replace_alpha"),
        "qstate.measurements": count("qstate.measure_photon", "qstate.measure_alpha",
                                     "qstate.measure_alpha_in", "qstate.measure_joint"),
        "qstate.states_constructed": per_trial(
            counts["qstate.QubitState"] + counts["qstate.PairState"], "1/trial"),
        "lincode.code_build_s": own_s("lincode.generate_code", "lincode.from_rows"),
        "lincode.codes_built": count("lincode.generate_code", "lincode.from_rows"),
        "lincode.codewords_s": own_s("lincode.codewords"),
        "lincode.sample_s": own_s("lincode.sample_nondegenerate_mask",
                                  "lincode.sample_codeword_with_parity"),
        "lincode.is_codeword_s": own_s("lincode.is_codeword"),
        "adversary.extract_s": own_s("adversary.extract_commit_bit"),
        "adversary.extractions": count("adversary.extract_commit_bit"),
        "adversary.pre_encode_s": own_s("adversary.pre_encode"),
        "adversary.fabricated_registers": per_trial(
            counts["adversary.fabricated_registers"], "1/trial"),
        "trace.overhead_s": per_trial(overhead),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "qbcsim")):
        print(f"no qbcsim sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from qbcsim import harness

    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as directory:
        run = Run(harness, workload, args.seed, directory)
        first = run.config(0)
        setup_s = time.perf_counter() - T0
        if args.trace:
            metrics = traced(run, first, args.seconds)
        else:
            metrics = untraced(run, first, args.seconds)
            metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    run.problems += workload.check(run.reports)
    for note in run.notes:
        print(f"trial failed: {note}", file=sys.stderr)
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
