"""Adversary strategies: every cheat is caught at the advertised check with
the advertised probability, and the two Bob-side attacks behave as analyzed.

Statistical targets follow from the per-index survival rates: a fabricated
register survives the conditional-state check with probability 1/2 under
send-x (averaged over Bob's basis choice) and 8/9 under send-best-guess when
conditioned on claimed measured-but-undetected membership, so m independent
fakes survive at the m-th power of those rates.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qbcsim import adversary as adv
from qbcsim import lincode
from qbcsim.lincode import (
    UnsupportedScale,
    block_repetition_provider,
    identity_code_provider,
    ratio_code_provider,
)
from qbcsim.protocol import (
    ProtocolParams,
    RegisterEnvironment,
    RunState,
    StrategyError,
    Transcript,
    execute_run,
)
from qbcsim.qstate import measure_pair_in_state, prepare_pair

STD_F = dict(f_a=0.10, f_b=0.15, f_c=0.05)
FAST_PROVIDER = block_repetition_provider(8, ratio_d=0.1)


def band(p, trials, z=4.0):
    return z * math.sqrt(p * (1.0 - p) / trials)


def accept_rate(params, alice, trials, seed, provider=FAST_PROVIDER):
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(trials):
        r = execute_run(params, rng, alice=alice, code_provider=provider)
        hits += r.unveil_accepted
    return hits / trials


# ---------------------------------------------------------------------------
# configuration validation and factories


def test_policy_and_argument_validation():
    with pytest.raises(StrategyError):
        adv.FakeUnmeasuredAlice(2, "send-z")
    with pytest.raises(StrategyError):
        adv.FakeUnmeasuredAlice(-1)
    with pytest.raises(StrategyError):
        adv.OverMeasureAlice(-2)
    with pytest.raises(StrategyError):
        adv.WrongPreparationAlice("variant-D")
    with pytest.raises(StrategyError):
        adv.BitFlipAlice(target_bit=2)
    with pytest.raises(StrategyError):
        adv.FrequencyCheatBob((0.1, 0.2))
    with pytest.raises(StrategyError):
        adv.FrequencyCheatBob((0.1, 0.2, 1.5))


def test_strategy_factories_parse_specs():
    alice = adv.make_alice_strategy("fake-unmeasured:3:send-best-guess")
    assert isinstance(alice, adv.FakeUnmeasuredAlice)
    assert alice.m == 3 and alice.fake_policy == "send-best-guess"
    assert isinstance(adv.make_alice_strategy("over-measure:5"), adv.OverMeasureAlice)
    wrong = adv.make_alice_strategy("wrong-preparation:variant-B")
    assert wrong.variant == "variant-B"
    assert isinstance(adv.make_alice_strategy("bit-flip"), adv.BitFlipAlice)
    assert adv.make_alice_strategy("honest").name == "honest"
    assert isinstance(adv.make_bob_strategy("early-extract"), adv.EarlyExtractBob)
    bob = adv.make_bob_strategy("frequency-cheat:0.2,0.1,0.05")
    assert bob.f_targets == (0.2, 0.1, 0.05)
    for bad in ("teleport", "fake-unmeasured", "fake-unmeasured:x", "over-measure:1:2"):
        with pytest.raises(StrategyError):
            adv.make_alice_strategy(bad)
    with pytest.raises(StrategyError):
        adv.make_bob_strategy("frequency-cheat")


# ---------------------------------------------------------------------------
# fake-unmeasured Alice


def test_fake_unmeasured_zero_is_honest():
    params = ProtocolParams(s=100, **STD_F)
    rng = np.random.default_rng(21)
    result = execute_run(params, rng, alice=adv.FakeUnmeasuredAlice(0), code_provider=FAST_PROVIDER)
    assert result.unveil_accepted and result.flip_count == 0


def test_fake_unmeasured_send_x_survival():
    # each faked register survives with probability 1/2, independently
    params = ProtocolParams(s=200, **STD_F)
    rng = np.random.default_rng(101)
    trials, m = 300, 4
    accepted = 0
    for _ in range(trials):
        r = execute_run(params, rng, alice=adv.FakeUnmeasuredAlice(m), code_provider=FAST_PROVIDER)
        assert r.flip_count == m
        if r.unveil_accepted:
            accepted += 1
        else:
            assert r.caught_at == "U3b"
    expected = 0.5 ** m
    assert abs(accepted / trials - expected) <= band(expected, trials)


def test_fake_unmeasured_best_guess_survival():
    # sending the collapsed register survives at 8/9 per fake: claimed
    # measured-but-undetected splits 35:5:5 honest:a:c at these frequencies
    # with survival 1, 1/3, 2/3 respectively
    params = ProtocolParams(s=200, **STD_F)
    trials, m = 300, 4
    rate = accept_rate(params, adv.FakeUnmeasuredAlice(m, "send-best-guess"), trials, 102)
    expected = (8.0 / 9.0) ** m
    assert abs(rate - expected) <= band(expected, trials)
    send_x = accept_rate(params, adv.FakeUnmeasuredAlice(m, "send-x"), trials, 103)
    assert rate > send_x  # best-guess is the stronger policy


def test_fake_unmeasured_monotone_in_m():
    params = ProtocolParams(s=200, **STD_F)
    low = accept_rate(params, adv.FakeUnmeasuredAlice(1), 400, 104)
    high = accept_rate(params, adv.FakeUnmeasuredAlice(3), 400, 104)
    assert high < low


def test_fake_unmeasured_pool_exhaustion():
    params = ProtocolParams(s=20, **STD_F)
    rng = np.random.default_rng(9)
    with pytest.raises(StrategyError):
        execute_run(params, rng, alice=adv.FakeUnmeasuredAlice(50), code_provider=FAST_PROVIDER)


# ---------------------------------------------------------------------------
# over-measure Alice


def test_over_measure_caught_exactly_on_lie_b_hits():
    # a small surplus stays inside the size band, so the only exposure is
    # landing on a lie-b index: accept rate (5/6)^extra at these frequencies
    params = ProtocolParams(s=200, **STD_F)
    rng = np.random.default_rng(110)
    trials, extra = 300, 3
    accepted = 0
    for _ in range(trials):
        r = execute_run(params, rng, alice=adv.OverMeasureAlice(extra), code_provider=FAST_PROVIDER)
        assert r.flip_count == extra
        assert (r.caught_at == "U4-lie-b") == bool(r.violations["lie_b_annihilation"])
        accepted += r.unveil_accepted
    expected = (5.0 / 6.0) ** extra
    assert abs(accepted / trials - expected) <= band(expected, trials)


def test_over_measure_large_surplus_breaks_size_band():
    params = ProtocolParams(s=200, **STD_F)
    rng = np.random.default_rng(111)
    for _ in range(50):
        r = execute_run(params, rng, alice=adv.OverMeasureAlice(60), code_provider=FAST_PROVIDER)
        assert not r.unveil_accepted
        assert r.caught_at == "U4-size"


def test_over_measure_pool_exhaustion():
    params = ProtocolParams(s=100, **STD_F)
    rng = np.random.default_rng(12)
    with pytest.raises(StrategyError):
        execute_run(params, rng, alice=adv.OverMeasureAlice(200), code_provider=FAST_PROVIDER)


# ---------------------------------------------------------------------------
# wrong preparation Alice


def test_product_preparation_fails_joint_test_half_the_time():
    params = ProtocolParams(s=10, **STD_F)
    strategy = adv.WrongPreparationAlice("all-product")
    rng = np.random.default_rng(140)
    trials, survived = 4000, 0
    for _ in range(trials // params.s):
        for state, theta, q in zip(*strategy.prepare(params, rng)):
            outcome, _ = measure_pair_in_state(state, prepare_pair(theta, q), rng)
            survived += outcome == 0
    assert abs(survived / trials - 0.5) <= band(0.5, trials)


def test_product_preparation_caught_at_entanglement_check():
    params = ProtocolParams(s=40, f_a=0.15, f_b=0.20, f_c=0.15, s_prime=20)
    rng = np.random.default_rng(141)
    caught_u3a = 0
    for _ in range(60):
        r = execute_run(
            params, rng, alice=adv.WrongPreparationAlice("all-product"),
            code_provider=FAST_PROVIDER,
        )
        assert not r.unveil_accepted
        caught_u3a += r.caught_at == "U3a"
    assert caught_u3a >= 54  # stray statistical rejections allowed


def test_variant_b_preparation_breaks_lie_b_annihilation():
    # the ideal preparation makes (M-D) disjoint from lie-b with certainty;
    # the same-basis attack state destroys that invariant
    params = ProtocolParams(s=200, **STD_F)
    rng = np.random.default_rng(142)
    violations = 0
    for _ in range(60):
        r = execute_run(
            params, rng, alice=adv.WrongPreparationAlice("variant-B"),
            code_provider=FAST_PROVIDER,
        )
        assert not r.unveil_accepted
        violations += r.violations["lie_b_annihilation"]
    assert violations >= 30


def test_variant_c_preparation_caught_at_commit():
    # the cross-value state detects honestly-announced indices, so D leaks
    # outside the lie classes and Bob rejects at the soundness check
    params = ProtocolParams(s=200, **STD_F)
    rng = np.random.default_rng(143)
    for _ in range(50):
        r = execute_run(
            params, rng, alice=adv.WrongPreparationAlice("variant-C"),
            code_provider=FAST_PROVIDER,
        )
        assert not r.commit_accepted
        assert r.caught_at == "C5-soundness"


# ---------------------------------------------------------------------------
# fabrication survival episodes


def test_send_x_survival_by_case():
    stats = adv.fake_survival_trials(30000, np.random.default_rng(150), policy="send-x")
    assert stats.survival("exact-x") == 1.0
    assert stats.survival("exact-y") == 0.0
    n_hx = stats.cases["heavy-x"].episodes
    assert abs(stats.survival("heavy-x") - 2.0 / 3.0) <= band(2.0 / 3.0, n_hx)
    n_hy = stats.cases["heavy-y"].episodes
    assert abs(stats.survival("heavy-y") - 1.0 / 3.0) <= band(1.0 / 3.0, n_hy)
    assert abs(stats.overall - 0.5) <= band(0.5, 30000)


def test_best_guess_survival_never_beats_two_thirds():
    stats = adv.fake_survival_trials(
        30000, np.random.default_rng(151), policy="send-best-guess"
    )
    assert stats.survival("exact-x") == 1.0
    assert stats.survival("exact-y") == 1.0
    for case in ("heavy-x", "heavy-y"):
        n = stats.cases[case].episodes
        assert abs(stats.survival(case) - 5.0 / 9.0) <= band(5.0 / 9.0, n)
    assert stats.overall <= 2.0 / 3.0 + band(2.0 / 3.0, 30000)
    assert abs(stats.overall - 2.0 / 3.0) <= band(2.0 / 3.0, 30000)


# ---------------------------------------------------------------------------
# bit-flip Alice and the binding measurement


HAMMING_ROWS = ["1000110", "0100101", "0010011", "0001111"]


def test_nearest_codeword_with_parity_is_minimal():
    code = lincode.GeneratorMatrix.from_rows([lincode.as_bits(r, 7) for r in HAMMING_ROWS])
    mask = lincode.as_bits("1010010", 7)
    rng = np.random.default_rng(160)
    words = lincode.codewords(code)
    parities = (words @ mask.astype(np.uint64)) & 1
    start = words[5]
    for parity in (0, 1):
        found = adv.nearest_codeword_with_parity(code, start, mask, parity, rng)
        assert lincode.is_codeword(code, found)
        assert lincode.dot(found, mask) == parity
        best = min(int((w ^ start).sum()) for w, p in zip(words, parities) if p == parity)
        assert int((found ^ start).sum()) == best


def test_binding_bound_formula():
    assert adv.binding_bound(6) == pytest.approx((2.0 / 3.0) ** 3)
    assert adv.binding_bound(12) == pytest.approx((2.0 / 3.0) ** 6)


def test_bit_flip_respects_binding_bound_d6():
    params = ProtocolParams(s=64, **STD_F)
    report = adv.measure_binding(
        params, 400, np.random.default_rng(161),
        code_provider=block_repetition_provider(8, t=6),
    )
    assert report.distance == 6
    assert report.mean_flips == 6.0  # one repetition block flips per attack
    assert report.success_rate <= report.bound + 4.0 * math.sqrt(
        max(report.success_rate * (1 - report.success_rate), 1e-9) / report.trials
    )
    assert report.success_rate >= 0.03  # the attack does slip through sometimes


def test_bit_flip_success_drops_with_distance():
    rng = np.random.default_rng(162)
    p64 = ProtocolParams(s=64, **STD_F)
    p128 = ProtocolParams(s=128, **STD_F)
    r6 = adv.measure_binding(p64, 300, rng, code_provider=block_repetition_provider(8, t=6))
    r12 = adv.measure_binding(p128, 300, rng, code_provider=block_repetition_provider(8, t=12))
    assert r12.success_rate < r6.success_rate
    assert r12.success_rate <= r12.bound + 4.0 * math.sqrt(
        max(r12.success_rate * (1 - r12.success_rate), 1e-9) / r12.trials
    )


def test_identity_code_breaks_binding():
    # d=1 leaves a single register between the two bits: the negative control
    params = ProtocolParams(s=16, f_a=0.15, f_b=0.20, f_c=0.15)
    report = adv.measure_binding(
        params, 300, np.random.default_rng(163), code_provider=identity_code_provider()
    )
    assert report.distance == 1
    assert report.mean_flips == 1.0
    assert report.success_rate >= 0.5


def test_bit_flip_target_equal_to_committed_is_honest():
    params = ProtocolParams(s=64, **STD_F)
    rng = np.random.default_rng(164)
    r = execute_run(
        params, rng, alice=adv.BitFlipAlice(target_bit=1),
        code_provider=block_repetition_provider(8, t=6), bit=1,
    )
    assert r.unveil_accepted and r.flip_count == 0 and r.unveiled_bit == 1


# ---------------------------------------------------------------------------
# early extraction Bob


def test_early_extract_balanced_when_concealing():
    # lie fractions chosen so the realized lie counts are zero: every
    # undetected index then carries the same posterior and only the coset
    # structure of the code could leak the parity
    params = ProtocolParams(s=18, f_a=0.01, f_b=0.02, f_c=0.01, ratio_k=0.8, ratio_d=0.05)
    assert params.lie_counts == (0, 0, 0)
    provider = ratio_code_provider(0.8, 0.05)
    rng = np.random.default_rng(170)
    trials, hits = 1000, 0
    for _ in range(trials):
        r = execute_run(params, rng, bob=adv.EarlyExtractBob(), code_provider=provider)
        assert r.extraction is not None
        assert r.extraction.posterior >= 0.5
        hits += r.extraction.guess == r.extraction.truth
    assert abs(hits / trials - 0.5) <= 0.07


def test_early_extract_identity_code_leaks():
    params = ProtocolParams(s=8, f_a=0.15, f_b=0.20, f_c=0.15)
    rng = np.random.default_rng(171)
    trials, hits = 800, 0
    for _ in range(trials):
        r = execute_run(params, rng, bob=adv.EarlyExtractBob(), code_provider=identity_code_provider())
        hits += r.extraction.guess == r.extraction.truth
    assert hits / trials >= 0.53


def _primal_parity_weights(code, prob_one, c_prime, mask):
    """Reference (w0, w1): log-likelihood of every pattern over all 2^k codewords."""
    words = lincode.codewords(code)
    patterns = words ^ np.asarray(c_prime, dtype=np.uint8)[None, :]
    log_zero = np.log1p(-prob_one)
    positive = prob_one > 0.0
    loglik = np.full(len(words), log_zero.sum())
    if positive.any():
        logit = np.log(prob_one[positive]) - log_zero[positive]
        loglik += patterns[:, positive].astype(float) @ logit
    if (~positive).any():
        loglik[patterns[:, ~positive].any(axis=1)] = -np.inf
    parities = (words @ np.asarray(mask, dtype=np.uint64)) & 1
    weights = np.exp(loglik - loglik.max())
    w1 = float(weights[parities == 1].sum())
    return float(weights.sum()) - w1, w1


# c' is drawn as a run draws it, a codeword XOR a pattern sampled from the
# prices, so some codeword always has positive likelihood.  The dual sum adds
# signed terms of size up to 1, so a c' far from every codeword (which no run
# produces) can leave W small and cost the dual side its relative accuracy.
@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, adv.EXTRACT_MAX_N),
    k=st.integers(1, adv.EXTRACT_MAX_K),
    seed=st.integers(0, 2**32 - 1),
    zero_share=st.sampled_from([0.0, 0.3, 1.0]),
)
@example(n=12, k=4, seed=1, zero_share=0.3)  # codeword side: k <= n - k
@example(n=20, k=16, seed=2, zero_share=0.3)  # dual side, criterion 7's shape
@example(n=9, k=9, seed=3, zero_share=0.0)  # identity code: C-perp = {0}
def test_dual_parity_weights_match_primal_reference(n, k, seed, zero_share):
    assume(k <= n)
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 2, size=(k, n), dtype=np.uint8)
    assume(lincode._gf2_rank(rows) == k)
    code = lincode.GeneratorMatrix(rows=rows, n=n, k=k, verified_min_distance=0)  # unused
    prob_one = rng.random(n)
    prob_one[rng.random(n) < zero_share] = 0.0
    pattern = (rng.random(n) < prob_one).astype(np.uint8)
    c_prime = lincode.encode(code, rng.integers(0, 2, size=k)) ^ pattern
    mask = rng.integers(0, 2, size=n, dtype=np.uint8)

    w0, w1 = adv._parity_weights(code, prob_one, c_prime, mask)
    r0, r1 = _primal_parity_weights(code, prob_one, c_prime, mask)
    assert abs(w1 / (w0 + w1) - r1 / (r0 + r1)) <= 1e-12
    assert abs(max(w0, w1) / (w0 + w1) - max(r0, r1) / (r0 + r1)) <= 1e-12
    if abs(r1 - r0) > 1e-9 * (r0 + r1):
        assert (w1 > w0) == (r1 > r0)


def test_early_extract_scale_guard():
    params = ProtocolParams(s=200, **STD_F)
    rng = np.random.default_rng(172)
    with pytest.raises(UnsupportedScale):
        execute_run(params, rng, bob=adv.EarlyExtractBob(), code_provider=FAST_PROVIDER)


def test_extract_requires_commit_state():
    params = ProtocolParams(s=16, **STD_F)
    transcript = Transcript(recording=False)
    run = RunState(params=params, env=RegisterEnvironment(transcript), transcript=transcript)
    with pytest.raises(StrategyError):
        adv.extract_commit_bit(run, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# frequency-cheating Bob


def test_frequency_cheat_shifts_detected_mean():
    params = ProtocolParams(s=200, **STD_F)
    bob = adv.FrequencyCheatBob((0.20, 0.10, 0.05))
    rng = np.random.default_rng(180)
    trials = 200
    total_detected = 0
    for _ in range(trials):
        r = execute_run(params, rng, bob=bob, code_provider=FAST_PROVIDER)
        assert r.commit_accepted and r.unveil_accepted  # his own bands absorb the shift
        total_detected += r.detected
    # his targets put E|D| at 27.5 versus 20.0 under the agreed frequencies
    cheat_mean, cheat_sigma = 27.5, math.sqrt(10 + 30 * 3 / 16)
    honest_mean = params.detected_expectation()[0]
    observed = total_detected / trials
    assert abs(observed - cheat_mean) <= 4.0 * cheat_sigma / math.sqrt(trials)
    assert observed > honest_mean + 4.0


def test_frequency_cheat_infeasible_targets():
    params = ProtocolParams(s=100, f_a=0.15, f_b=0.20, f_c=0.15, s_prime=40)
    bob = adv.FrequencyCheatBob((0.05, 0.20, 0.10))
    rng = np.random.default_rng(181)
    with pytest.raises(StrategyError):
        execute_run(params, rng, bob=bob, code_provider=FAST_PROVIDER)


# ---------------------------------------------------------------------------
# runs that share one generator


# sha256 of repr(result) + repr(final generator state), taken before the U3
# checks were batched.  Each U3 sweep stops at its first failure; unless it
# leaves the generator where a per-index loop would, every later run on the
# same generator diverges, and these hashes move.
PINNED_SHARED = {
    "send-x": "113648780b99556088752ccb9f25dfd19732c7ce9d4ff03657a34f17f42ed8a4",
    "send-best-guess": "e7e7c490fbc0238ccc0c1f19f71632fb3900c0ea4345b450a20b1d1bc84c8178",
    "fake-unmeasured:2": "8d330dde5836c3ef2687d8fa299555d1e2a5a5956440b0f2b70e5da4a52e7f05",
}


def _pinned_sha(text, rng):
    return hashlib.sha256((text + repr(rng.bit_generator.state)).encode()).hexdigest()


@pytest.mark.parametrize("policy", adv.FAKE_POLICIES)
def test_binding_runs_sharing_one_generator_are_pinned(policy):
    rng = np.random.default_rng(424242)
    report = adv.measure_binding(ProtocolParams(s=500, **STD_F), trials=100, rng=rng,
                                 code_provider=block_repetition_provider(8, t=6),
                                 fake_policy=policy)
    assert _pinned_sha(repr(report), rng) == PINNED_SHARED[policy]


def test_fake_unveil_runs_sharing_one_generator_are_pinned():
    rng = np.random.default_rng(20261021)
    params = ProtocolParams(s=60, s_prime=12, **STD_F)
    alice = adv.FakeUnmeasuredAlice(2)
    text = "".join(
        repr(execute_run(params, rng, alice=alice, code_provider=FAST_PROVIDER,
                         record_transcript=True))
        for _ in range(40)
    )
    assert _pinned_sha(text, rng) == PINNED_SHARED["fake-unmeasured:2"]
