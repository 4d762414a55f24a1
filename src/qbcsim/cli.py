"""Command-line front end: runs, sweeps, code utilities, demo, release gates.

Exit codes are part of the interface: 0 success, 1 usage/config/I-O trouble,
2 a statistical gate failed.  Scripts can branch on "infrastructure broke"
versus "the physics check failed" without parsing output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import acceptance, adversary, harness, lincode, protocol, qstate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GATE = 2

DEMO_MAX_S = 16


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _load_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _bits(arr) -> str:
    return "".join(str(int(b)) for b in arr)


# ---------------------------------------------------------------------------
# run


_PARAM_OVERRIDES = (
    ("s", "s"),
    ("f_a", "f_a"),
    ("f_b", "f_b"),
    ("f_c", "f_c"),
    ("s_prime", "s_prime"),
    ("theta", "theta"),
)


def _effective_config(args) -> dict:
    config = _load_json(args.config)
    if not isinstance(config, dict):
        raise harness.ConfigError("config must be a JSON object")
    params = config.get("params", {})
    if not isinstance(params, dict):
        raise harness.ConfigError("params must be a JSON object")
    params = dict(params)
    for attr, key in _PARAM_OVERRIDES:
        value = getattr(args, attr)
        if value is not None:
            params[key] = value
    config["params"] = params
    for attr, key in (
        ("seed", "master_seed"),
        ("trials", "trials"),
        ("alice", "alice"),
        ("bob", "bob"),
        ("bit", "bit"),
        ("label", "label"),
    ):
        value = getattr(args, attr)
        if value is not None:
            config[key] = value
    return config


def _print_batch(report: harness.BatchReport) -> None:
    print(f"label: {report.label}  trials: {report.trials}")
    print("effective config:")
    print(json.dumps(report.config, indent=2, sort_keys=True))
    print("metrics:")
    for name in sorted(report.stats):
        st = report.stats[name]
        if st.count == 0:
            print(f"  {name:<22} (unused)")
        else:
            print(f"  {name:<22} {st.mean:.4f} +- {st.ci95:.4f}  (n={st.count})")
    print(f"violations: {report.violations}")
    if report.caught:
        print(f"rejections by stage: {report.caught}")
    if report.entropy_floor is not None:
        state = "above" if report.entropy_floor["satisfied"] else "below"
        print(f"code distance {state} the gamma*n floor "
              f"(gamma={report.entropy_floor['gamma']}, informational)")
    if report.gates_evaluated:
        for gate in report.gates:
            verdict = "PASS" if gate.passed else "FAIL"
            print(
                f"gate {gate.metric:<14} empirical {gate.empirical:.4f} "
                f"target {gate.target:.4f} band {gate.band:.4f}  {verdict}"
            )
        print(f"gates: {'PASS' if report.gates_passed else 'FAIL'}")


def cmd_run(args) -> int:
    try:
        config = harness.RunConfig.from_dict(_effective_config(args))
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(f"cannot read config {args.config}: {exc}")
    except harness.ConfigError as exc:
        return _fail(str(exc))
    if args.transcripts_out and not config.transcripts:
        return _fail("--transcripts-out needs a config with \"transcripts\": true")
    report = harness.run_batch(config)
    _print_batch(report)
    harness.write_report(
        report,
        json_path=args.json_out,
        csv_path=args.csv_out,
        transcripts_path=args.transcripts_out,
    )
    if report.gates_evaluated and not report.gates_passed:
        return EXIT_GATE
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args) -> int:
    try:
        document = _load_json(args.config)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(f"cannot read config {args.config}: {exc}")
    if not isinstance(document, dict) or "base" not in document or "grid" not in document:
        return _fail("sweep config needs 'base' and 'grid' keys")
    sweep = harness.run_sweep(document["base"], document["grid"])
    for row in sweep.summary():
        if row["skipped"] is not None:
            print(f"{row['label']}: skipped ({row['skipped']})")
        else:
            gates = row.get("gates_passed")
            verdict = "-" if gates is None else ("PASS" if gates else "FAIL")
            print(
                f"{row['label']}: ratio_M={row['ratio_M']:.4f} "
                f"ratio_D={row['ratio_D']:.4f} gates={verdict}"
            )
    harness.write_report(sweep, json_path=args.json_out, csv_path=args.csv_out)
    print(f"{len(sweep.points)} grid points")
    if sweep.gates_passed is False:
        return EXIT_GATE
    return EXIT_OK


# ---------------------------------------------------------------------------
# demo


def _born_oracle(state, basis: int) -> tuple[float, float]:
    """Photon outcome probabilities via an explicit kron projector."""
    probs = [
        float(np.linalg.norm(acceptance.photon_projection(
            state.amp, qstate.pol_ket(basis, value).amplitudes())) ** 2)
        for value in (0, 1)
    ]
    total = probs[0] + probs[1]
    return probs[0] / total, probs[1] / total


def _checked_probability(state, basis: int, value: int) -> float:
    """Born probability printed by the demo; always cross-checked."""
    fast = qstate.born_probabilities_photon(state, basis)[value]
    slow = _born_oracle(state, basis)[value]
    if abs(fast - slow) > 1e-12:
        raise AssertionError(f"probability cross-check failed: {fast} vs {slow}")
    return fast


def _register_survival(env, index: int, reference) -> float:
    """Probability the handed-over register passes the conditional-state test."""
    alpha, _ = qstate.factor_product(env.state(index))
    fast = abs(qstate.overlap(reference, alpha)) ** 2
    e_vec = np.array([reference.a0, reference.a1], dtype=complex)
    a_vec = np.array([alpha.a0, alpha.a1], dtype=complex)
    slow = float(np.real(a_vec.conj() @ np.outer(e_vec, e_vec.conj()) @ a_vec))
    if abs(fast - slow) > 1e-12:
        raise AssertionError(f"survival cross-check failed: {fast} vs {slow}")
    return fast


def _joint_survival(env, index: int, reference) -> float:
    """Probability the whole pair passes the projective test against `reference`."""
    fast = abs(qstate.pair_overlap(reference, env.state(index))) ** 2
    r_vec = np.asarray(reference.amp, dtype=complex)
    s_vec = np.asarray(env.state(index).amp, dtype=complex)
    slow = float(np.real(s_vec.conj() @ np.outer(r_vec, r_vec.conj()) @ s_vec))
    if abs(fast - slow) > 1e-12:
        raise AssertionError(f"survival cross-check failed: {fast} vs {slow}")
    return fast


def cmd_demo(args) -> int:
    if args.s > DEMO_MAX_S:
        return _fail(f"demo is capped at s <= {DEMO_MAX_S} for readability, got {args.s}")
    s_prime = args.s_prime if args.s_prime is not None else args.s // 4
    try:
        params = protocol.ProtocolParams(
            s=args.s, f_a=0.10, f_b=0.15, f_c=0.05, s_prime=s_prime
        )
        alice = adversary.make_alice_strategy(args.alice_strategy)
    except protocol.ProtocolError as exc:
        return _fail(str(exc))
    rng = np.random.default_rng(args.seed)
    provider = lincode.ratio_code_provider(params.ratio_k, params.ratio_d)
    transcript = protocol.Transcript(recording=True)
    env = protocol.RegisterEnvironment(transcript)
    run = protocol.RunState(params=params, env=env, transcript=transcript)
    bob = protocol.BobStrategy()

    na, nb, nc = params.lie_counts
    print(f"demo: s={params.s} pairs, delayed set {s_prime}, "
          f"lie counts a={na} b={nb} c={nc}, seed {args.seed}")
    print(f"alice strategy: {alice.name}")

    print("\n[C1] Alice prepares entangled pairs and sends every photon")
    protocol.alice_commit_prepare(run, alice, rng)
    for rec in run.records:
        lam = env.schmidt(rec.index)
        p_match = _checked_probability(env.state(rec.index), 0, rec.q)
        print(
            f"  pair {rec.index}: q={rec.q} theta={rec.theta:.3f} "
            f"schmidt=({lam[0]:.3f},{lam[1]:.3f}) "
            f"P(q'=q)={p_match:.3f} [checked]"
        )

    print("\n[C2] Bob keeps a delayed subset and measures the rest")
    protocol.bob_partition_measure(run, bob, rng)
    print(f"  delayed: {sorted(run.delayed)}")
    for rec in run.records:
        if rec.bob_set == protocol.MEASURED:
            print(f"  pair {rec.index}: basis p'={rec.bob_basis} outcome q'={rec.bob_outcome}")

    print("\n[C3] Bob announces, lying on his chosen classes")
    protocol.bob_announce(run, bob, rng)
    for rec in run.records:
        print(f"  pair {rec.index}: lie={rec.lie:<7} announced (p'',q'')="
              f"({rec.ann_basis},{rec.ann_value})")

    print("\n[C4] Alice measures where the announced value contradicts hers")
    protocol.alice_detect(run, rng)
    for rec in run.records:
        if rec.alice_set == "M":
            mark = " -> detected" if rec.in_detected else ""
            print(f"  pair {rec.index}: register outcome p={rec.alice_outcome}{mark}")
    print(f"  claimed measured M: {sorted(run.claimed_measured)}")
    print(f"  detected D: {sorted(run.detected)}")

    print("\n[C5] Bob checks the detected set")
    protocol.bob_check_commit(run, bob, rng)
    mean, sigma = params.detected_expectation()
    print(f"  |D|={len(run.detected)} against {mean:.2f} +- "
          f"{params.tolerance_z:.0f}*{sigma:.2f}, contradiction hits: {run.c5_hits}")
    if not run.commit_accepted:
        print(f"  commit rejected: {run.caught_at}")
        return EXIT_OK
    print("  commit phase accepted")

    before = set(run.claimed_measured)
    alice.pre_encode(run, rng)
    removed, added = sorted(before - run.claimed_measured), sorted(run.claimed_measured - before)
    if removed or added:
        print(f"  (cheat) claimed-measured set edited: removed {removed} added {added}")

    committed = args.bit if args.bit is not None else int(rng.integers(0, 2))
    print(f"\n[C6+C7] Alice commits bit {committed} through the code layer")
    protocol.alice_encode_commit(run, provider, committed, rng)
    print(f"  n=s-|D|={run.code.n}, code (n={run.code.n}, k={run.code.k}, "
          f"d={run.code.verified_min_distance})")
    print(f"  pattern  c0 = {_bits(run.c0)}")
    print(f"  mask     r  = {_bits(run.mask)}")
    print(f"  codeword c  = {_bits(run.codeword)}  with c.r = {lincode.dot(run.codeword, run.mask)}")
    print(f"  announced c' = c xor c0 = {_bits(run.c_prime)}")

    bob.after_commit(run, rng)

    print("\n[U1+U2] Alice unveils and hands over the claimed-unmeasured registers")
    package = protocol.alice_unveil(run, alice, rng)
    print(f"  claimed bit {package.bit}, claimed c0 = {_bits(package.c0)}")
    print(f"  registers handed over: {list(package.alpha_indices)}")

    print("\n[U3] survival probabilities of the handed registers [checked]")
    for i in package.alpha_indices:
        if i in run.delayed:
            reference = qstate.prepare_pair(package.theta_claims[i], package.q_claims[i])
            p = _joint_survival(env, i, reference)
            print(f"  pair {i} (delayed, joint test): survives with p={p:.3f}")
        else:
            rec = run.records[i]
            e = qstate.expected_alpha_after_photon(
                package.theta_claims[i], package.q_claims[i], rec.bob_basis, rec.bob_outcome
            )
            p = _register_survival(env, i, e)
            print(f"  pair {i} (register vs conditional state): survives with p={p:.3f}")

    protocol.bob_verify_unveil(run, bob, package, rng)
    claimed_m = len(run.detected) + int(package.c0.sum())
    mean, sigma = params.measured_expectation()
    print(f"\n[U4] claimed |M|={claimed_m} against {mean:.2f} +- "
          f"{params.tolerance_z:.0f}*{sigma:.2f}")
    print(f"[U5] codeword parity c.r = {lincode.dot(package.codeword, run.mask)} "
          f"must equal claimed bit {package.bit}"
          if package.codeword is not None else "[U5] not reached")

    if run.unveil_accepted:
        print("\nVERDICT: ACCEPT")
    else:
        print(f"\nVERDICT: REJECT at {run.caught_at}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# code utilities


def cmd_code_gen(args) -> int:
    try:
        spec = lincode.CodeSpec(n=args.n, k=args.k, d_target=args.d)
        G = lincode.generate_code(spec, np.random.default_rng(args.seed),
                                  max_attempts=args.attempts)
    except lincode.CodeError as exc:
        return _fail(str(exc))
    text = lincode.code_to_json(G)
    if args.out:
        harness._atomic_write(args.out, text + "\n")
        print(f"wrote ({G.n},{G.k}) code with verified distance "
              f"{G.verified_min_distance} to {args.out}")
    else:
        print(text)
    return EXIT_OK


def cmd_code_check(args) -> int:
    try:
        with open(args.path) as handle:
            G = lincode.code_from_json(handle.read())
    except (OSError, lincode.CodeError, qstate.StateError, ValueError) as exc:
        return _fail(f"cannot load code from {args.path}: {exc}")
    distance = lincode.min_distance(G)
    print(f"code: n={G.n} k={G.k} min distance {distance}")
    if args.d0 is None:
        return EXIT_OK
    count = lincode.count_codewords_at_distance(G, np.zeros(G.n, dtype=np.uint8), args.d0)
    bound = 2.0 ** (G.k - G.n / 2.0) / math.sqrt(G.n)
    verdict = "PASS" if count >= bound else "FAIL"
    print(f"codewords at distance {args.d0}: {count}")
    print(f"bound 2^(k-n/2)/sqrt(n) = {bound:.4f}  {verdict}")
    return EXIT_OK if count >= bound else EXIT_GATE


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    only = None
    if args.only:
        only = []
        for item in args.only:
            only.extend(part for part in item.split(",") if part)
    try:
        results = acceptance.run_criteria(only)
    except ValueError as exc:
        return _fail(str(exc))
    if args.json:
        print(json.dumps([r.to_dict() for r in results], indent=2, sort_keys=True))
    else:
        for result in results:
            mark = "PASS" if result.passed else "FAIL"
            print(f"[{result.number}] {result.key:<13} {mark}  "
                  f"({result.elapsed:.1f}s / budget {result.budget:.0f}s)  "
                  f"{result.description}")
            for check in result.checks if not result.passed else result.failures():
                status = "ok" if check.passed else "FAIL"
                print(f"      {status:<4} {check.name}: {check.observed} "
                      f"(want {check.target})")
        passed = sum(r.passed for r in results)
        print(f"{passed}/{len(results)} criteria passed")
    return EXIT_OK if all(r.passed for r in results) else EXIT_GATE


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbcsim",
        description="entangled-pair bit commitment: protocol runs, sweeps and checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one batch from a JSON config")
    run.add_argument("--config", required=True, help="path to the batch config")
    run.add_argument("--seed", type=int, help="override master_seed")
    run.add_argument("--trials", type=int)
    run.add_argument("--s", type=int)
    run.add_argument("--f-a", dest="f_a", type=float)
    run.add_argument("--f-b", dest="f_b", type=float)
    run.add_argument("--f-c", dest="f_c", type=float)
    run.add_argument("--s-prime", dest="s_prime", type=int)
    run.add_argument("--theta", type=float)
    run.add_argument("--alice", help="alice strategy spec, e.g. fake-unmeasured:2")
    run.add_argument("--bob", help="bob strategy spec, e.g. early-extract")
    run.add_argument("--bit", type=int, choices=(0, 1))
    run.add_argument("--label")
    run.add_argument("--json-out")
    run.add_argument("--csv-out")
    run.add_argument("--transcripts-out")
    run.set_defaults(handler=cmd_run)

    sweep = sub.add_parser("sweep", help="run a grid of batches")
    sweep.add_argument("--config", required=True, help="JSON with 'base' and 'grid'")
    sweep.add_argument("--json-out")
    sweep.add_argument("--csv-out")
    sweep.set_defaults(handler=cmd_sweep)

    demo = sub.add_parser("demo", help="narrated single run at toy scale")
    demo.add_argument("--s", type=int, default=8)
    demo.add_argument("--seed", type=int, default=7)
    demo.add_argument("--s-prime", dest="s_prime", type=int)
    demo.add_argument("--alice-strategy", default="honest")
    demo.add_argument("--bit", type=int, choices=(0, 1))
    demo.set_defaults(handler=cmd_demo)

    gen = sub.add_parser("code-gen", help="generate a random linear code")
    gen.add_argument("-n", type=int, required=True)
    gen.add_argument("-k", type=int, required=True)
    gen.add_argument("-d", type=int, required=True)
    gen.add_argument("--seed", type=int, default=2026)
    gen.add_argument("--attempts", type=int, default=20000,
                     help="rejection-sampling budget for rare distance targets")
    gen.add_argument("--out")
    gen.set_defaults(handler=cmd_code_gen)

    check = sub.add_parser("code-check", help="inspect a stored code")
    check.add_argument("path")
    check.add_argument("--d0", type=int)
    check.set_defaults(handler=cmd_code_check)

    verify = sub.add_parser("verify", help="run the acceptance criteria")
    verify.add_argument("--only", action="append",
                        help="comma-separated criterion keys, repeatable")
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(handler=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.handler(args)
    except (harness.ConfigError, protocol.ProtocolError, lincode.CodeError,
            qstate.StateError) as exc:
        return _fail(str(exc))
    except OSError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
