"""Dishonest strategies and the measurements that catch them.

Every adversary here subclasses the honest strategy objects from the protocol
module and overrides single hooks, so a cheating run reuses the exact same
state machine as an honest one.  The classes keep Alice's claimed sets and the
physically measured sets distinct; the gap between the two is the cheat.

Alice-side strategies:

- FakeUnmeasuredAlice: measure everything honestly, then claim m of the
  measured-but-undetected registers were never touched and hand over
  substitutes at unveil time.
- OverMeasureAlice: measure extra registers from the claimed-unmeasured pool
  and report them as part of the measured set, inflating its size.
- WrongPreparationAlice: replace the agreed entangled preparation with a
  product state or one of the Problem-P solver states.
- BitFlipAlice: commit honestly, then unveil the opposite bit by switching to
  the nearest codeword of the other parity and forging the flipped positions.

Bob-side strategies:

- EarlyExtractBob: after c' is announced, price every candidate pattern
  w xor c' from his own measurement record and guess the committed bit, the
  mask parity of w, before any unveil.  The sums over the 2^k codewords are
  taken over the 2^(n-k) words of the dual code when that side is smaller
  (Poisson summation), so a rate-4/5 code costs 2^(n/5) products, not 2^k.
- FrequencyCheatBob: lie with different class frequencies than agreed while
  adjusting his own acceptance bands so he never flags himself.

The module also provides standalone estimators: fake_survival_trials plays
single-pair fabrication episodes against the register check, and
measure_binding estimates the success rate of the unveil-the-other-bit attack
against the (2/3)^(d/2) bound set by the code distance d.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import lincode
from .lincode import CodeProvider, UnsupportedScale
from .protocol import (
    ALICE,
    DELAYED,
    AliceStrategy,
    BobStrategy,
    ExtractionResult,
    ProtocolParams,
    RunState,
    StrategyError,
    detected_band_from_counts,
    execute_run,
    lie_counts_for,
    measured_band_from_counts,
)
from .qstate import (
    KET_X,
    KET_Y,
    PairState,
    RandomStream,
    born_probabilities_photon,
    expected_alpha_after_photon,
    factor_product,
    measure_in_basis,
    measure_photon,
    pol_ket,
    prepare_pair,
    tensor,
)

FAKE_POLICIES = ("send-x", "send-best-guess")
PREPARATION_VARIANTS = ("all-product", "variant-B", "variant-C")

# Bayesian extraction enumerates codewords or dual words, so cap the code size.
EXTRACT_MAX_N = 20
EXTRACT_MAX_K = 16


def _check_policy(policy: str) -> str:
    if policy not in FAKE_POLICIES:
        raise StrategyError(f"unknown fake policy {policy!r}; choose from {FAKE_POLICIES}")
    return policy


class _FabricatingAlice(AliceStrategy):
    """Shared fabrication hook: substitute registers whose measurement is denied.

    A register is fabricated exactly when it was physically measured but is
    claimed unmeasured.  send-x hands over a fresh |x> register; the
    best-guess policy hands over the collapsed register itself, the best
    state Alice can produce, among these policies, without knowing Bob's
    photon outcome.
    """

    def __init__(self, fake_policy: str = "send-x"):
        self.fake_policy = _check_policy(fake_policy)

    def fake_alpha(self, run: RunState, index: int, rng: RandomStream):
        if index not in run.really_measured or index in run.claimed_measured:
            return None
        if self.fake_policy == "send-x":
            return KET_X
        return None  # collapsed register goes out as-is


class FakeUnmeasuredAlice(_FabricatingAlice):
    """Deny m measurements: drop m claimed measured-but-undetected indices.

    m = 0 degenerates to the honest strategy.  Each faked register faces the
    conditional-state check at unveil, so the survival chance shrinks
    geometrically with m.
    """

    name = "fake-unmeasured"

    def __init__(self, m: int, fake_policy: str = "send-x"):
        super().__init__(fake_policy)
        if m < 0:
            raise StrategyError("m must be nonnegative")
        self.m = int(m)

    def pre_encode(self, run: RunState, rng: RandomStream) -> None:
        if self.m == 0:
            return
        pool = [i for i in run.rest_indices if i in run.claimed_measured]
        if self.m > len(pool):
            raise StrategyError(
                f"cannot deny {self.m} measurements, only {len(pool)} candidates"
            )
        picks = rng.choice(len(pool), size=self.m, replace=False)
        for j in picks:
            run.claimed_measured.discard(pool[int(j)])
        run.flip_count += self.m


class OverMeasureAlice(AliceStrategy):
    """Measure extra registers from the claimed-unmeasured pool and say so.

    The extra indices join the claimed measured set before encoding, so the
    claimed set size grows by `extra` and drifts out of its statistical band.
    The claimed register basis is reported truthfully unless it equals the
    announced basis (which would put the index in D retroactively); then the
    opposite basis is claimed.
    """

    name = "over-measure"

    def __init__(self, extra: int):
        if extra < 0:
            raise StrategyError("extra must be nonnegative")
        self.extra = int(extra)

    def pre_encode(self, run: RunState, rng: RandomStream) -> None:
        if self.extra == 0:
            return
        pool = [i for i in run.rest_indices if i not in run.claimed_measured]
        if self.extra > len(pool):
            raise StrategyError(
                f"cannot over-measure {self.extra} registers, only {len(pool)} unmeasured"
            )
        picks = [pool[int(j)] for j in rng.choice(len(pool), size=self.extra, replace=False)]
        for i, p in zip(picks, run.env.measure_alphas(picks, ALICE, rng)):
            rec = run.records[i]
            rec.alice_outcome = p
            run.really_measured.add(i)
            run.claimed_measured.add(i)
            run.p_claims[i] = p if p != rec.ann_basis else 1 - rec.ann_basis
        run.flip_count += self.extra


class WrongPreparationAlice(AliceStrategy):
    """Send a preparation other than the agreed entangled pair.

    all-product draws one branch of the agreed state, so each pair is an
    unentangled (register, photon) sample with the right marginals.  The two
    solver variants embed the Problem-P attack states; their photons carry no
    value bit, so the claimed q is a fresh coin.
    """

    name = "wrong-preparation"

    def __init__(self, variant: str = "all-product"):
        if variant not in PREPARATION_VARIANTS:
            raise StrategyError(
                f"unknown variant {variant!r}; choose from {PREPARATION_VARIANTS}"
            )
        self.variant = variant

    def prepare(self, params: ProtocolParams, rng: RandomStream):
        # per pair a value bit, then (all-product) the branch draw, interleaved
        states, thetas, qs = [], [], []
        for index in range(params.s):
            theta = params.theta_for(index)
            q = int(rng.integers(0, 2))
            c, s = math.cos(theta), math.sin(theta)
            if self.variant == "all-product":
                if rng.random() < c * c:
                    state = tensor(KET_X, pol_ket(0, q))
                else:
                    state = tensor(KET_Y, pol_ket(1, q))
            elif self.variant == "variant-B":
                state = PairState((c, 0.0, 0.0, s))
            else:  # variant-C
                state = PairState((c, 0.0, -s / math.sqrt(2.0), s / math.sqrt(2.0)))
            states.append(state)
            thetas.append(theta)
            qs.append(q)
        return states, thetas, qs


class BitFlipAlice(_FabricatingAlice):
    """Commit honestly, then unveil the other bit.

    The unveil claims the opposite-parity codeword nearest to the committed
    one.  Every flipped position needs its story changed: a 1 to 0 flip denies
    a real measurement (fabricated register at handover), a 0 to 1 flip
    measures a genuinely untouched register late and reports it.  target_bit
    fixes the unveiled bit; None always flips.
    """

    name = "bit-flip"

    def __init__(self, fake_policy: str = "send-x", target_bit: Optional[int] = None):
        super().__init__(fake_policy)
        if target_bit not in (None, 0, 1):
            raise StrategyError("target_bit must be None, 0 or 1")
        self.target_bit = target_bit

    def choose_unveil_bit(self, run: RunState, rng: RandomStream) -> int:
        if self.target_bit is None:
            return 1 - run.committed_bit
        return self.target_bit

    def prepare_unveil(self, run: RunState, bit: int, rng: RandomStream) -> None:
        if bit == run.committed_bit:
            super().prepare_unveil(run, bit, rng)
            return
        claimed = nearest_codeword_with_parity(run.code, run.codeword, run.mask, bit, rng)
        delta = np.flatnonzero(claimed ^ run.codeword)
        for j in delta:
            i = run.rest_indices[int(j)]
            if i in run.claimed_measured:
                run.claimed_measured.discard(i)  # deny, fabricate at handover
            else:
                rec = run.records[i]
                p = run.env.measure_alpha(i, ALICE, rng)  # late real measurement
                rec.alice_outcome = p
                run.really_measured.add(i)
                run.claimed_measured.add(i)
                run.p_claims[i] = p if p != rec.ann_basis else 1 - rec.ann_basis
        run.flip_count += len(delta)
        run.claimed_bit = bit
        run.claimed_codeword = claimed


def nearest_codeword_with_parity(
    code: lincode.GeneratorMatrix,
    codeword: np.ndarray,
    mask: np.ndarray,
    parity: int,
    rng: RandomStream,
) -> np.ndarray:
    """Codeword of the requested mask parity closest in Hamming distance.

    Ties break uniformly at random.  Enumerates the codebook, so the usual
    enumeration cap applies.
    """
    if code.k > lincode.ENUMERATION_MAX_K:
        raise UnsupportedScale(
            f"nearest-codeword search enumerates 2^k words; k={code.k} is too large"
        )
    words = lincode.codewords(code)
    parities = (words @ np.asarray(mask, dtype=np.uint64)) & 1
    candidates = words[parities == parity]
    if len(candidates) == 0:
        raise lincode.DegenerateMaskError("no codeword carries the requested parity")
    dist = (candidates ^ np.asarray(codeword, dtype=np.uint8)).sum(axis=1)
    best = np.flatnonzero(dist == dist.min())
    pick = best[int(rng.integers(0, len(best)))]
    return candidates[pick].copy()


# ---------------------------------------------------------------------------
# Bob-side strategies


class EarlyExtractBob(BobStrategy):
    """Honest play plus a pre-unveil Bayesian guess at the committed bit.

    Once c' is public, every codeword w induces a candidate pattern w xor c',
    and Bob's own measurement record prices each pattern.  Summing the
    pattern likelihoods per mask parity gives a posterior over the bit; the
    guess and its posterior are stored on the run for the harness to score.
    """

    name = "early-extract"

    def after_commit(self, run: RunState, rng: RandomStream) -> None:
        run.extraction = extract_commit_bit(run, rng)


def extract_commit_bit(run: RunState, rng: RandomStream) -> ExtractionResult:
    """Best guess at the committed bit from Bob's pre-unveil view.

    Uses only announcements, Bob's own outcomes, and the public code data;
    Alice's value bits and register outcomes stay out of reach.  Codeword w
    makes the pattern w xor c', whose bit j Bob's record puts at 1 with
    probability P_j; w0 and w1 sum the pattern likelihoods over the codewords
    of mask parity 0 and 1.  With W = w0 + w1 and S = w0 - w1, Poisson
    summation turns both into sums over the 2^(n-k) words of the dual code,
    up to the common factor 2^(k-n), with delta_j = (-1)^(c'_j) (1 - 2 P_j):

        W ~ sum_{y in C-perp} prod_{j in y} delta_j
        S ~ sum_{y in C-perp} prod_{j in y xor r} delta_j

    (Hartmann-Rudolph symbol-by-symbol MAP decoding).  Whichever of the
    code and its dual is smaller is enumerated; the dual words come from the
    code, which keeps the ones its distance certificate walked.  An exact
    tie w0 == w1 is broken by a coin.
    """
    code = run.code
    if code is None or run.c_prime is None:
        raise StrategyError("extraction runs after the commit phase only")
    if code.n > EXTRACT_MAX_N or code.k > EXTRACT_MAX_K:
        raise UnsupportedScale(
            f"extraction sums over codewords of length n; ({code.n},{code.k}) "
            f"exceeds the ({EXTRACT_MAX_N},{EXTRACT_MAX_K}) cap"
        )
    undetected = [run.records[i] for i in run.rest_indices]
    prob_one = [
        _posterior_measured(run.params.theta_for(r.index), r.ann_basis, r.ann_value,
                            r.bob_set == DELAYED, r.bob_basis, r.bob_outcome)
        for r in undetected
    ]
    w0, w1 = _parity_weights(code, prob_one, run.c_prime, run.mask)
    if w1 > w0:
        guess = 1
    elif w0 > w1:
        guess = 0
    else:
        guess = int(rng.integers(0, 2))
    posterior = max(w0, w1) / (w0 + w1)
    return ExtractionResult(guess=guess, posterior=posterior, truth=run.committed_bit)


def _parity_weights(code: lincode.GeneratorMatrix, prob_one, c_prime, mask) -> tuple[float, float]:
    """Unnormalized (w0, w1) summed over C or C-perp; see extract_commit_bit."""
    p = np.asarray(prob_one, dtype=float)
    flip = np.asarray(c_prime, dtype=bool)
    signed = np.asarray(mask, dtype=bool)
    # factor pairs (zero, one): a word takes one[j] where bit j is set, else zero[j]
    if code.k <= code.n - code.k:  # W and S directly, S signed by (-1)^(w.r)
        words = lincode.codewords(code)
        zero, one = np.where(flip, p, 1.0 - p), np.where(flip, 1.0 - p, p)
        factors = [(zero, one), (zero, np.where(signed, -one, one))]
    else:
        words = lincode.dual_codewords(code)
        delta = np.where(flip, -1.0, 1.0) * (1.0 - 2.0 * p)
        factors = [(np.ones_like(delta), delta),
                   (np.where(signed, delta, 1.0), np.where(signed, 1.0, delta))]
    total, signed_total = (
        np.where(words == 1, one, zero).prod(axis=1).sum() for zero, one in factors
    )
    return float(total + signed_total) / 2.0, float(total - signed_total) / 2.0


@functools.lru_cache(maxsize=4096)
def _posterior_measured(theta, p2, q2, delayed, bob_basis, bob_outcome) -> float:
    """P(pattern bit = 1 | Bob's view) for one undetected index.

    The pattern bit is 1 exactly when Alice's value bit differs from the
    announced value q2.  Weigh both value hypotheses by the likelihood of
    Bob's own data, times the chance the index stayed out of D.  Depends on
    scalars only, so each combination is computed once.
    """
    weights = {}
    for v in (0, 1):
        # a delayed photon is untouched, so Bob has no outcome to price
        base = 1.0 if delayed else born_probabilities_photon(
            prepare_pair(theta, v), bob_basis)[bob_outcome]
        if v == q2:
            escape = 1.0
        elif delayed:
            # register marginal gives P(outcome x) = cos^2 theta
            escape = 1.0 - (math.cos(theta) ** 2 if p2 == 0 else math.sin(theta) ** 2)
        else:
            amps = expected_alpha_after_photon(theta, v, bob_basis, bob_outcome).amplitudes()
            escape = 1.0 - abs(amps[p2]) ** 2
        weights[v] = base * escape
    return weights[1 - q2] / (weights[0] + weights[1])


class FrequencyCheatBob(BobStrategy):
    """Lie with private class frequencies instead of the agreed ones.

    Bob's own acceptance bands are recomputed from his private targets, so he
    never trips his own checks; the shifted D and M statistics are what an
    outside observer (or the harness) can see.
    """

    name = "frequency-cheat"

    def __init__(self, f_targets: tuple[float, float, float]):
        if len(f_targets) != 3:
            raise StrategyError("f_targets must be the (f_a, f_b, f_c) triple")
        self.f_targets = tuple(float(f) for f in f_targets)
        if not all(0.0 <= f < 1.0 for f in self.f_targets):
            raise StrategyError("lie frequencies must sit in [0, 1)")

    def _counts(self, params: ProtocolParams) -> tuple[int, int, int]:
        counts = lie_counts_for(params.s, params.s_prime, *self.f_targets)
        if min(counts) < 0:
            raise StrategyError(
                f"private targets {self.f_targets} infeasible at s={params.s}, "
                f"s'={params.s_prime}"
            )
        if sum(counts) > params.s - params.s_prime:
            raise StrategyError("private lie counts exceed the measured set")
        return counts

    def lie_counts(self, params: ProtocolParams) -> tuple[int, int, int]:
        return self._counts(params)

    def detected_band(self, params: ProtocolParams) -> tuple[float, float]:
        return detected_band_from_counts(self._counts(params), params.s_prime)

    def measured_band(self, params: ProtocolParams) -> tuple[float, float]:
        return measured_band_from_counts(self._counts(params), params.s, params.s_prime)


# ---------------------------------------------------------------------------
# strategy factories (shared by the harness and the command line)


def make_alice_strategy(spec: str) -> AliceStrategy:
    """Build an Alice strategy from a "kind[:arg[:arg]]" string."""
    kind, *args = str(spec).split(":")
    try:
        if kind == "honest":
            _expect_args(kind, args, 0)
            return AliceStrategy()
        if kind == "fake-unmeasured":
            _expect_args(kind, args, 1, 2)
            policy = args[1] if len(args) > 1 else "send-x"
            return FakeUnmeasuredAlice(int(args[0]), policy)
        if kind == "over-measure":
            _expect_args(kind, args, 1)
            return OverMeasureAlice(int(args[0]))
        if kind == "wrong-preparation":
            _expect_args(kind, args, 0, 1)
            return WrongPreparationAlice(args[0] if args else "all-product")
        if kind == "bit-flip":
            _expect_args(kind, args, 0, 1)
            return BitFlipAlice(args[0] if args else "send-x")
    except ValueError as exc:
        raise StrategyError(f"bad argument for strategy {spec!r}: {exc}") from exc
    raise StrategyError(f"unknown Alice strategy {kind!r}")


def make_bob_strategy(spec: str) -> BobStrategy:
    """Build a Bob strategy from a "kind[:arg]" string."""
    kind, *args = str(spec).split(":")
    try:
        if kind == "honest":
            _expect_args(kind, args, 0)
            return BobStrategy()
        if kind == "early-extract":
            _expect_args(kind, args, 0)
            return EarlyExtractBob()
        if kind == "frequency-cheat":
            _expect_args(kind, args, 1)
            triple = tuple(float(x) for x in args[0].split(","))
            return FrequencyCheatBob(triple)
    except ValueError as exc:
        raise StrategyError(f"bad argument for strategy {spec!r}: {exc}") from exc
    raise StrategyError(f"unknown Bob strategy {kind!r}")


def _expect_args(kind: str, args: list, low: int, high: Optional[int] = None) -> None:
    high = low if high is None else high
    if not (low <= len(args) <= high):
        raise StrategyError(f"strategy {kind!r} takes {low}..{high} arguments, got {len(args)}")


# ---------------------------------------------------------------------------
# fabrication survival episodes


@dataclass
class CaseTally:
    episodes: int = 0
    survived: int = 0

    @property
    def survival(self) -> float:
        return self.survived / self.episodes if self.episodes else float("nan")


@dataclass
class FakeSurvivalStats:
    """Single-pair fabrication outcomes, split by Bob's conditional state.

    Case names describe the register state Bob checks against: exact-x and
    exact-y arise when his photon outcome contradicts the value bit (the
    register must then be a basis state), heavy-x and heavy-y when it agrees
    (an unbalanced superposition leaning the named way).  Names follow the
    theta = pi/4 geometry.
    """

    policy: str
    theta: float
    cases: dict = field(default_factory=dict)

    def tally(self, case: str, survived: bool) -> None:
        entry = self.cases.setdefault(case, CaseTally())
        entry.episodes += 1
        entry.survived += int(survived)

    def survival(self, case: str) -> float:
        return self.cases[case].survival

    @property
    def overall(self) -> float:
        episodes = sum(c.episodes for c in self.cases.values())
        survived = sum(c.survived for c in self.cases.values())
        return survived / episodes if episodes else float("nan")


def _episode_case(basis: int, agreed: bool) -> str:
    if agreed:
        return "heavy-x" if basis == 0 else "heavy-y"
    return "exact-y" if basis == 0 else "exact-x"


def fake_survival_trials(
    trials: int,
    rng: RandomStream,
    policy: str = "send-x",
    theta: float = math.pi / 4.0,
) -> FakeSurvivalStats:
    """Play single-pair fabrication episodes against the register check.

    Episode: honest preparation, Bob measures the photon in a random basis,
    Alice measures her register (the cheat: she will deny this), then hands
    over a substitute chosen by `policy`.  Bob tests the substitute against
    the conditional state his photon outcome dictates; outcome 0 survives.
    """
    _check_policy(policy)
    stats = FakeSurvivalStats(policy=policy, theta=theta)
    for _ in range(trials):
        q = int(rng.integers(0, 2))
        basis = int(rng.integers(0, 2))
        outcome, collapsed = measure_photon(prepare_pair(theta, q), basis, rng)
        register, _ = factor_product(collapsed)
        own = measure_in_basis(register, KET_X, rng)  # Alice's record, x or y
        if policy == "send-x":
            sent = KET_X
        else:
            sent = KET_X if own == 0 else KET_Y
        expected = expected_alpha_after_photon(theta, q, basis, outcome)
        survived = measure_in_basis(sent, expected, rng) == 0
        stats.tally(_episode_case(basis, outcome == q), survived)
    return stats


# ---------------------------------------------------------------------------
# binding measurement


def binding_bound(distance: int) -> float:
    """Survival bound (2/3)^(d/2) for d fabricated or late-measured registers."""
    return (2.0 / 3.0) ** (distance / 2.0)


@dataclass
class BindingReport:
    trials: int
    commit_rejected: int
    successes: int
    distance: int
    mean_flips: float

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials if self.trials else float("nan")

    @property
    def bound(self) -> float:
        return binding_bound(self.distance)


def measure_binding(
    params: ProtocolParams,
    trials: int,
    rng: RandomStream,
    code_provider: Optional[CodeProvider] = None,
    fake_policy: str = "send-x",
) -> BindingReport:
    """Estimate how often the unveil-the-other-bit attack slips through.

    Success means Bob accepted an unveil of the bit Alice did not commit.
    The reported bound uses the smallest code distance seen across trials.
    """
    if trials <= 0:
        raise StrategyError("trials must be positive")
    alice = BitFlipAlice(fake_policy=fake_policy)
    successes = 0
    commit_rejected = 0
    flips = 0
    distance = None
    for _ in range(trials):
        result = execute_run(params, rng, alice=alice, code_provider=code_provider)
        if not result.commit_accepted:
            commit_rejected += 1
            continue
        flips += result.flip_count
        if result.code_shape is not None:
            d = result.code_shape[2]
            distance = d if distance is None else min(distance, d)
        if result.unveil_accepted and result.unveiled_bit != result.committed_bit:
            successes += 1
    attempted = trials - commit_rejected
    return BindingReport(
        trials=trials,
        commit_rejected=commit_rejected,
        successes=successes,
        distance=distance if distance is not None else 0,
        mean_flips=flips / attempted if attempted else float("nan"),
    )
