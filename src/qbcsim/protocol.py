"""Commit and unveil state machines for the entangled-pair bit commitment.

A run walks the seven commit steps and five unveil steps with one Alice and
one Bob strategy object plugged in.  The RegisterEnvironment owns every joint
quantum state and refuses operations on subsystems the acting party does not
hold, so locality violations fail loudly instead of silently corrupting a
simulation.

Naming used everywhere:

- q_i: Alice's value bit for pair i, theta_i its preparation angle.
- Bob splits pairs into the measured set (he measures the photon right away,
  basis p', outcome q') and the delayed set (photon stored untouched).
- Bob announces per-index results (p'', q''), lying with classes a, b, c on
  the measured set and answering uniformly at random on the delayed set.
- Alice marks i as "measured" (claimed set M) when q'' = not q_i, measures
  those alpha registers (outcome p_i), and announces D = {i in M : p_i = p''}.
- The encoded pattern c0 over S - D has bit 1 exactly on claimed M - D.

Set membership is tracked twice: what Alice claims (drives the messages) and
what physically happened (drives the quantum checks).  Honest strategies keep
the two identical; adversaries in the adversary module pry them apart.

Random draws: every step consumes the generator in the order a loop over the
pairs would, so the mapping from seed to result does not depend on how the
work is batched.  The steps run on the environment's batch methods
(send_many, measure_photons, measure_alphas, measure_joints), which draw the
Born samples of a sweep as one rng.random(n) block; honest Alice draws her s
value bits and Bob the announcements of his delayed set as one
rng.integers(0, 2, size=n) block.  numpy gives the same numbers as n single
draws.  The U3 sweeps stop at their first failed check and rewind the
generator to just past it.  Bob's C2 basis bits and Born draws alternate, so
they stay one pair of draws per index.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import lincode
from .lincode import CodeProvider, GeneratorMatrix, ratio_code_provider
from .qstate import (
    ALPHA,
    JOINT,
    KET_X,
    PHOTON,
    Measurement,
    PairState,
    QubitState,
    RandomStream,
    expected_alpha_after_photon,
    factor_product,
    is_product,
    measure_alpha as _pair_measure_alpha,
    measure_alpha_in as _qubit_measure_alpha_in,
    measure_in_basis,
    measure_pair_in_state,
    measure_photon as _pair_measure_photon,
    prepare_pair,
    schmidt_coefficients,
    tensor,
)

ALICE = "alice"
BOB = "bob"

DELAYED = "delayed"
MEASURED = "measured"

LIE_CLASSES = ("a", "b", "c")


class ProtocolError(ValueError):
    """Invalid protocol parameters or misuse of a step function."""


class StrategyError(ProtocolError):
    """A strategy was configured outside its legal envelope."""


class EnvironmentBreach(RuntimeError):
    """A party touched a subsystem it does not own."""


def round_half_up(x: float) -> int:
    # int(round()) rounds half to even; the lie-count formulas need half-up
    return int(math.floor(x + 0.5))


def _uniform_bit(rng: RandomStream) -> int:
    return int(rng.integers(0, 2))


def lie_counts_for(s: int, s_prime: int, f_a: float, f_b: float, f_c: float) -> tuple[int, int, int]:
    """Lie-class sizes solving f_x = (|L_x| + s'/4) / s, rounded half-up."""
    quarter = s_prime / 4.0
    return (
        round_half_up(f_a * s - quarter),
        round_half_up(f_b * s - quarter),
        round_half_up(f_c * s - quarter),
    )


def detected_band_from_counts(counts: tuple[int, int, int], s_prime: int) -> tuple[float, float]:
    na, nb, nc = counts
    mean = na / 2.0 + nb / 4.0 + nc / 4.0 + s_prime / 4.0
    var = na / 4.0 + (nb + nc + s_prime) * 3.0 / 16.0
    return mean, math.sqrt(var)


def measured_band_from_counts(
    counts: tuple[int, int, int], s: int, s_prime: int
) -> tuple[float, float]:
    na, nb, nc = counts
    h = s - s_prime - na - nb - nc
    mean = h / 4.0 + 3.0 * na / 4.0 + nb / 4.0 + 3.0 * nc / 4.0 + s_prime / 2.0
    var = (s - s_prime) * 3.0 / 16.0 + s_prime / 4.0
    return mean, math.sqrt(var)


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class ProtocolParams:
    """Agreed run parameters: pair count, lie frequencies, delayed-set size.

    theta may be a single angle applied to every pair or a per-index tuple.
    ratio_k and ratio_d are the agreed code ratios; tolerance_z scales every
    statistical acceptance band in units of its binomial sigma.
    """

    s: int
    f_a: float
    f_b: float
    f_c: float
    s_prime: int = 0
    theta: float | tuple = math.pi / 4
    ratio_k: float = 0.6
    ratio_d: float = 0.2
    tolerance_z: float = 4.0

    def __post_init__(self) -> None:
        if self.s < 1:
            raise ProtocolError("s must be >= 1")
        if not (0 <= self.s_prime <= self.s):
            raise ProtocolError(f"need 0 <= s_prime <= s, got s_prime={self.s_prime}")
        for name, f in (("f_a", self.f_a), ("f_b", self.f_b), ("f_c", self.f_c)):
            if not (0.0 < f < 0.25):
                raise ProtocolError(f"{name} must lie strictly in (0, 1/4), got {f}")
        if not self.f_b > self.f_c:
            raise ProtocolError(f"need f_b > f_c, got f_b={self.f_b}, f_c={self.f_c}")
        if isinstance(self.theta, (int, float)):
            _check_angle(float(self.theta))
        else:
            angles = tuple(float(t) for t in self.theta)
            if len(angles) != self.s:
                raise ProtocolError("per-index theta needs exactly s angles")
            for t in angles:
                _check_angle(t)
            object.__setattr__(self, "theta", angles)
        if self.tolerance_z <= 0:
            raise ProtocolError("tolerance_z must be positive")
        na, nb, nc = self.lie_counts
        if min(na, nb, nc) < 0:
            raise ProtocolError(
                f"lie counts ({na},{nb},{nc}) infeasible: f_x*s must cover s_prime/4"
            )
        if na + nb + nc > self.s - self.s_prime:
            raise ProtocolError("lie counts exceed the measured-set size")

    @property
    def lie_counts(self) -> tuple[int, int, int]:
        """Lie-class sizes on the measured set: |L_a|, |L_b|, |L_c|.

        Solves f_x = (|L_x| + s'/4) / s for each class, rounded half-up.
        """
        return lie_counts_for(self.s, self.s_prime, self.f_a, self.f_b, self.f_c)

    @property
    def honest_count(self) -> int:
        na, nb, nc = self.lie_counts
        return self.s - self.s_prime - na - nb - nc

    def theta_for(self, index: int) -> float:
        if isinstance(self.theta, tuple):
            return self.theta[index]
        return float(self.theta)

    def detected_expectation(self) -> tuple[float, float]:
        """(mean, sigma) of |D| from the per-index membership indicators.

        Per class, P(i in D) is 0 (honest), 1/2 (a), 1/4 (b), 1/4 (c), and
        1/4 on the delayed set; the probabilities do not depend on theta.
        """
        return detected_band_from_counts(self.lie_counts, self.s_prime)

    def measured_expectation(self) -> tuple[float, float]:
        """(mean, sigma) of |M| the same way; P(i in M) is 1/4, 3/4, 1/4,
        3/4 per class and 1/2 on the delayed set."""
        return measured_band_from_counts(self.lie_counts, self.s, self.s_prime)


def _check_angle(t: float) -> None:
    if not (0.0 < t < math.pi / 2.0):
        raise ProtocolError(f"theta must be in the open interval (0, pi/2), got {t}")


# ---------------------------------------------------------------------------
# transcript and environment


class Transcript:
    """Ordered event log; JSON-lines on disk, one {seq, actor, kind, payload}
    object per line.  With recording off nothing is kept, and the hot loops
    skip building payloads by checking `recording` first."""

    def __init__(self, recording: bool = True) -> None:
        self.recording = recording
        self.events: list[dict] = []
        self._seq = 0

    def append(self, actor: str, kind: str, **payload) -> None:
        if self.recording:
            self._seq += 1
            self.events.append(
                {"seq": self._seq, "actor": actor, "kind": kind, "payload": payload}
            )

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(e, sort_keys=True) for e in self.events)

    @classmethod
    def from_jsonl(cls, text: str) -> "Transcript":
        t = cls(recording=True)
        for line in text.splitlines():
            if line.strip():
                t.events.append(json.loads(line))
        t._seq = t.events[-1]["seq"] if t.events else 0
        return t


class RegisterEnvironment:
    """Holds every joint state and enforces who may touch what.

    Pairs are numbered 0, 1, ... in creation order and stored in per-index
    lists: the joint state, and per subsystem ("alpha", "photon") its owner
    and whether it was measured.  Measurements and sends go through here so
    each is both access-checked and logged.

    The batch forms (send_many, measure_photons, measure_alphas,
    measure_joints) check every index's owner before they draw or change
    anything, and then act like the per-index calls in index order: the same
    draws (n Born draws are one rng.random(n) block), states, flags and
    events.  A sweep given `expect` ends right after the first outcome that
    differs from it, as a loop that stops at a failed check would, and
    leaves the generator where that loop leaves it.
    """

    def __init__(self, transcript: Optional[Transcript] = None) -> None:
        self.transcript = transcript if transcript is not None else Transcript(False)
        self._states: list[PairState] = []
        self._owner: dict[str, list[str]] = {"alpha": [], "photon": []}
        self._measured: dict[str, list[bool]] = {"alpha": [], "photon": []}

    def create_pair(self, index: int, state: PairState, party: str,
                    photon_to: Optional[str] = None) -> None:
        """Add pair `index` held by `party`; photon_to hands its photon over
        at once, logged as a send right after the preparation."""
        if index != len(self._states):
            raise ProtocolError(f"cannot create pair {index}: pairs are created in index "
                                f"order and the next one is {len(self._states)}")
        self._states.append(state)
        self._owner["alpha"].append(party)
        self._owner["photon"].append(party if photon_to is None else photon_to)
        self._measured["alpha"].append(False)
        self._measured["photon"].append(False)
        if self.transcript.recording:
            self.transcript.append(party, "prepare", index=index)
            if photon_to is not None:
                self.transcript.append(party, "send", index=index, subsystem="photon",
                                       to=photon_to)

    def send(self, index: int, subsystem: str, sender: str, receiver: str) -> None:
        self._require(index, subsystem, sender)
        self._owner[subsystem][index] = receiver
        self.transcript.append(sender, "send", index=index, subsystem=subsystem, to=receiver)

    def send_many(self, indices, subsystem: str, sender: str, receiver: str) -> None:
        owners = self._require_all(indices, subsystem, sender)
        for i in indices:
            owners[i] = receiver
        if self.transcript.recording:
            for i in indices:
                self.transcript.append(sender, "send", index=i, subsystem=subsystem, to=receiver)

    def _require(self, index: int, subsystem: str, party: str) -> None:
        self._require_all((index,), subsystem, party)

    def _require_all(self, indices, subsystem: str, party: str) -> list[str]:
        """Owner list of `subsystem`, once `party` is known to hold every index."""
        owners = self._owner.get(subsystem)
        bad = [i for i in indices if owners is None or not 0 <= i < len(owners)]
        if bad:
            raise ProtocolError(f"no such subsystem ({bad[0]}, {subsystem})")
        held = [owners[i] for i in indices]
        if held.count(party) != len(held):
            j = next(j for j, owner in enumerate(held) if owner != party)
            raise EnvironmentBreach(
                f"{party} acted on ({indices[j]}, {subsystem}) owned by {held[j]}"
            )
        return owners

    def measure_photon(self, index: int, party: str, basis: int, rng: RandomStream) -> int:
        self._require(index, "photon", party)
        outcome, collapsed = _pair_measure_photon(self._states[index], basis, rng)
        self._states[index] = collapsed
        self._measured["photon"][index] = True
        self.transcript.append(party, "measure-photon", index=index, basis=basis, outcome=outcome)
        return outcome

    def measure_alpha(self, index: int, party: str, rng: RandomStream) -> int:
        """Computational-basis measurement of the register; 0 is |x>."""
        self._require(index, "alpha", party)
        outcome, collapsed = _pair_measure_alpha(self._states[index], rng)
        self._states[index] = collapsed
        self._measured["alpha"][index] = True
        self.transcript.append(party, "measure-alpha", index=index, outcome=outcome)
        return outcome

    def measure_alpha_in(self, index: int, party: str, basis0: QubitState, rng: RandomStream) -> int:
        self._require(index, "alpha", party)
        outcome, collapsed = _qubit_measure_alpha_in(self._states[index], basis0, rng)
        self._states[index] = collapsed
        self._measured["alpha"][index] = True
        self.transcript.append(party, "measure-alpha-in", index=index, outcome=outcome)
        return outcome

    def measure_joint(self, index: int, party: str, reference: PairState, rng: RandomStream) -> int:
        """Binary projective test of the whole pair; needs both subsystems."""
        self._require(index, "alpha", party)
        self._require(index, "photon", party)
        outcome, collapsed = measure_pair_in_state(self._states[index], reference, rng)
        self._states[index] = collapsed
        self._measured["alpha"][index] = True
        self._measured["photon"][index] = True
        self.transcript.append(party, "measure-joint", index=index, outcome=outcome)
        return outcome

    # -- sweeps: one call for many indices, same draws as the per-index loop

    def measure_photons(self, indices, party: str, bases, rng: RandomStream,
                        expect=None) -> list[int]:
        """measure_photon(indices[j], party, bases[j], rng) for every j."""
        self._require_all(indices, "photon", party)
        outcomes = self._sweep(PHOTON, indices, bases, rng, expect)
        self._record(party, "measure-photon", ("photon",), indices, outcomes, bases)
        return outcomes

    def measure_photons_in_random_bases(self, indices, party: str,
                                        rng: RandomStream) -> tuple[list[int], list[int]]:
        """Photon measurements in fair-coin bases: (bases, outcomes).

        Each basis bit is drawn right before its Born draw, as in a per-index
        loop.  PCG64 serves bits from halves of 64-bit words and doubles from
        whole words, so these pairs cannot be split into two blocks without
        changing the stream; only the bookkeeping is batched.
        """
        self._require_all(indices, "photon", party)
        bases, draws = [], []
        for _ in indices:
            bases.append(_uniform_bit(rng))
            draws.append(rng.random())
        outcomes = self._apply(PHOTON, indices, bases, draws, None)
        self._record(party, "measure-photon", ("photon",), indices, outcomes, bases)
        return bases, outcomes

    def measure_alphas(self, indices, party: str, rng: RandomStream, bases0=None,
                       expect=None) -> list[int]:
        """measure_alpha for every index, or measure_alpha_in(indices[j],
        party, bases0[j], rng) when bases0 is given."""
        self._require_all(indices, "alpha", party)
        keys = [KET_X] * len(indices) if bases0 is None else bases0
        outcomes = self._sweep(ALPHA, indices, keys, rng, expect)
        kind = "measure-alpha" if bases0 is None else "measure-alpha-in"
        self._record(party, kind, ("alpha",), indices, outcomes)
        return outcomes

    def measure_joints(self, indices, party: str, references, rng: RandomStream,
                       expect=None) -> list[int]:
        """measure_joint(indices[j], party, references[j], rng) for every j."""
        self._require_all(indices, "alpha", party)
        self._require_all(indices, "photon", party)
        outcomes = self._sweep(JOINT, indices, references, rng, expect)
        self._record(party, "measure-joint", ("alpha", "photon"), indices, outcomes)
        return outcomes

    def _sweep(self, measurement: Measurement, indices, keys, rng: RandomStream,
               expect) -> list[int]:
        n = len(indices)
        if n == 0:
            return []
        start = rng.bit_generator.state if expect is not None else None
        outcomes = self._apply(measurement, indices, keys, rng.random(n).tolist(), expect)
        if len(outcomes) < n:
            # a per-index loop stops drawing at the failed check: end there too
            rng.bit_generator.state = start
            rng.random(len(outcomes))
        return outcomes

    def _apply(self, measurement: Measurement, indices, keys, draws, expect) -> list[int]:
        """Measure indices[j] against keys[j] with uniform draws[j], in order."""
        branch, collapse = measurement.branch, measurement.collapse
        states = self._states
        # (id(state), id(key)) -> [state, key, p0, total, outcome 0, outcome 1];
        # holding state and key keeps their ids unique for the whole sweep
        seen: dict = {}
        outcomes: list[int] = []
        for j, i in enumerate(indices):
            state, key = states[i], keys[j]
            entry = seen.get((id(state), id(key)))
            if entry is None:
                entry = [state, key, *branch(state, key), None, None]
                seen[(id(state), id(key))] = entry
            drawn = 0 if draws[j] * entry[3] < entry[2] else 1
            result = entry[4 + drawn]
            if result is None:
                result = entry[4 + drawn] = collapse(state, key, drawn)
            outcome, states[i] = result
            outcomes.append(outcome)
            if expect is not None and outcome != expect[j]:
                break
        return outcomes

    def _record(self, party: str, kind: str, subsystems, indices, outcomes,
                bases=None) -> None:
        """Mark what the first len(outcomes) indices measured and log them."""
        for subsystem in subsystems:
            flags = self._measured[subsystem]
            for i in indices[:len(outcomes)]:
                flags[i] = True
        if self.transcript.recording:
            for j, outcome in enumerate(outcomes):
                basis = {} if bases is None else {"basis": bases[j]}
                self.transcript.append(party, kind, index=indices[j], outcome=outcome, **basis)

    def replace_alpha(self, index: int, party: str, fresh: QubitState) -> None:
        """Swap in a fabricated register state.

        Only legal on product states: a party holding one half of an entangled
        pair cannot locally exchange its register for an unentangled one
        without tracing out, and this simulator keeps pure states only.
        """
        self._require(index, "alpha", party)
        state = self._states[index]
        if not is_product(state):
            raise EnvironmentBreach("cannot replace the register of an entangled pair")
        _, photon = factor_product(state)
        self._states[index] = tensor(fresh, photon)
        self.transcript.append(party, "replace-alpha", index=index)

    # god view, for checks and tests, not for strategies
    def state(self, index: int) -> PairState:
        return self._states[index]

    def schmidt(self, index: int) -> tuple[float, float]:
        return schmidt_coefficients(self._states[index])

    def photon_measured(self, index: int) -> bool:
        return self._measured["photon"][index]

    def alpha_measured(self, index: int) -> bool:
        return self._measured["alpha"][index]


# ---------------------------------------------------------------------------
# per-pair records and run state


@dataclass(slots=True)
class PairRecord:
    index: int
    q: int
    theta: float
    bob_set: str = MEASURED          # "measured" or "delayed"
    bob_basis: Optional[int] = None  # p'
    bob_outcome: Optional[int] = None  # q'
    lie: str = "honest"
    ann_basis: Optional[int] = None  # p''
    ann_value: Optional[int] = None  # q''
    alice_set: Optional[str] = None  # claimed "M" or "U"
    alice_outcome: Optional[int] = None  # real p_i when measured
    in_detected: bool = False


@dataclass
class UnveilPackage:
    bit: int
    codeword: np.ndarray
    c0: np.ndarray
    q_claims: dict[int, int]
    theta_claims: dict[int, float]
    p_claims: dict[int, int]
    alpha_indices: tuple[int, ...]


@dataclass
class ExtractionResult:
    guess: int
    posterior: float
    truth: int


@dataclass
class RunState:
    """Everything a run accumulates; strategies receive this object.

    Fields marked as Bob's are his private knowledge before unveiling; Alice
    strategies must not read them (the environment enforces the quantum side,
    the classical side is a code-review contract).
    """

    params: ProtocolParams
    env: RegisterEnvironment
    transcript: Transcript
    records: list[PairRecord] = field(default_factory=list)
    delayed: frozenset = frozenset()          # Bob's S'
    lie_sets: dict = field(default_factory=dict)  # Bob's L_a/L_b/L_c and honest
    claimed_measured: set = field(default_factory=set)  # Alice's claimed M
    really_measured: set = field(default_factory=set)
    detected: frozenset = frozenset()         # announced D
    p_claims: dict = field(default_factory=dict)
    commit_accepted: Optional[bool] = None
    caught_at: Optional[str] = None
    c5_hits: int = 0
    rest_indices: tuple = ()                  # sorted S - D
    code: Optional[GeneratorMatrix] = None
    mask: Optional[np.ndarray] = None         # r
    committed_bit: Optional[int] = None
    codeword: Optional[np.ndarray] = None     # c
    c0: Optional[np.ndarray] = None           # claimed pattern at commit
    c_prime: Optional[np.ndarray] = None
    claimed_bit: Optional[int] = None
    claimed_codeword: Optional[np.ndarray] = None
    unveil_accepted: Optional[bool] = None
    extraction: Optional[ExtractionResult] = None
    flip_count: int = 0

    def claimed_unmeasured(self) -> set:
        return {i for i in self.rest_indices if i not in self.claimed_measured}

    def pattern_from_claims(self) -> np.ndarray:
        bits = [1 if i in self.claimed_measured else 0 for i in self.rest_indices]
        return np.array(bits, dtype=np.uint8)


@dataclass
class RunResult:
    s: int
    s_prime: int
    claimed_M: int
    detected: int
    claimed_MminusD: int
    commit_accepted: bool
    unveil_accepted: bool
    caught_at: Optional[str]
    committed_bit: Optional[int]
    unveiled_bit: Optional[int]
    flip_count: int
    violations: dict
    lie_counts: tuple[int, int, int]
    code_shape: Optional[tuple[int, int, int]]
    extraction: Optional[ExtractionResult]
    transcript: Optional[str]

    @property
    def ratio_M(self) -> float:
        return self.claimed_M / self.s

    @property
    def ratio_D(self) -> float:
        return self.detected / self.s

    @property
    def ratio_MminusD(self) -> float:
        return self.claimed_MminusD / self.s


# ---------------------------------------------------------------------------
# lie machinery


def announced_for(lie: str, p: int, q: int) -> tuple[int, int]:
    """Announcement (p'', q'') produced by a lie class on true outcome (p, q)."""
    if lie == "honest":
        return p, q
    if lie == "a":
        return p, 1 - q
    if lie == "b":
        return 1 - p, q
    if lie == "c":
        return 1 - p, 1 - q
    raise ProtocolError(f"unknown lie class {lie!r}")


def assign_lie_classes(indices, counts: tuple[int, int, int], rng: RandomStream) -> dict:
    """Random lie-class assignment over the measured set: returns index -> class."""
    pool = list(indices)
    na, nb, nc = counts
    if na + nb + nc > len(pool):
        raise ProtocolError("lie counts exceed available indices")
    order = rng.permutation(len(pool))
    assignment = {}
    cursor = 0
    for cls, count in (("a", na), ("b", nb), ("c", nc)):
        for _ in range(count):
            assignment[pool[order[cursor]]] = cls
            cursor += 1
    for j in range(cursor, len(pool)):
        assignment[pool[order[j]]] = "honest"
    return assignment


# ---------------------------------------------------------------------------
# strategy bases (honest behavior)


class AliceStrategy:
    """Honest Alice; adversaries subclass and override individual hooks."""

    name = "honest"

    def prepare(self, params: ProtocolParams, rng: RandomStream):
        """Return (joint states, claimed thetas, claimed qs), one entry per pair.

        The s value bits are one block, the same draws as s single bits.
        """
        qs = rng.integers(0, 2, size=params.s).tolist()
        thetas = [params.theta_for(i) for i in range(params.s)]
        return [prepare_pair(t, q) for t, q in zip(thetas, qs)], thetas, qs

    def pre_encode(self, run: RunState, rng: RandomStream) -> None:
        """Runs between the C5 verdict and the codeword layer."""

    def choose_unveil_bit(self, run: RunState, rng: RandomStream) -> int:
        return run.committed_bit

    def prepare_unveil(self, run: RunState, bit: int, rng: RandomStream) -> None:
        """Adjust claims for the unveil; honest Alice claims the truth."""
        if bit != run.committed_bit:
            raise StrategyError("honest Alice cannot unveil the other bit")
        run.claimed_bit = bit
        run.claimed_codeword = run.codeword

    def fake_alpha(self, run: RunState, index: int, rng: RandomStream):
        """Replacement register for a claimed-unmeasured index, or None."""
        return None


class BobStrategy:
    """Honest Bob; dishonest variants live in the adversary module."""

    name = "honest"

    def choose_delayed(self, params: ProtocolParams, rng: RandomStream) -> frozenset:
        picks = rng.choice(params.s, size=params.s_prime, replace=False)
        return frozenset(int(i) for i in picks)

    def lie_counts(self, params: ProtocolParams) -> tuple[int, int, int]:
        return params.lie_counts

    def detected_band(self, params: ProtocolParams) -> tuple[float, float]:
        return params.detected_expectation()

    def measured_band(self, params: ProtocolParams) -> tuple[float, float]:
        return params.measured_expectation()

    def after_commit(self, run: RunState, rng: RandomStream) -> None:
        """Runs once c' is announced, before any unveil message."""


# ---------------------------------------------------------------------------
# commit steps


def alice_commit_prepare(run: RunState, alice: AliceStrategy, rng: RandomStream) -> None:
    """C1: prepare s pairs, keep the registers, send every photon to Bob."""
    states, thetas, qs = alice.prepare(run.params, rng)
    if not len(states) == len(thetas) == len(qs) == run.params.s:
        raise StrategyError("prepare must return s states, angles and value bits")
    for i, (state, theta, q) in enumerate(zip(states, thetas, qs)):
        run.records.append(PairRecord(i, q, theta))
        run.env.create_pair(i, state, ALICE, photon_to=BOB)


def bob_partition_measure(run: RunState, bob: BobStrategy, rng: RandomStream) -> None:
    """C2: split off the delayed set, measure the rest in random bases."""
    run.delayed = bob.choose_delayed(run.params, rng)
    if len(run.delayed) != run.params.s_prime:
        raise ProtocolError("delayed set has the wrong size")
    measured = []
    for rec in run.records:
        if rec.index in run.delayed:
            rec.bob_set = DELAYED
        else:
            measured.append(rec)
    bases, outcomes = run.env.measure_photons_in_random_bases(
        [rec.index for rec in measured], BOB, rng)
    for rec, basis, outcome in zip(measured, bases, outcomes):
        rec.bob_basis, rec.bob_outcome = basis, outcome


def bob_announce(run: RunState, bob: BobStrategy, rng: RandomStream) -> None:
    """C3: announce per-index results, lying per class on the measured set
    and uniformly at random on the delayed set."""
    measured = [r.index for r in run.records if r.bob_set == MEASURED]
    assignment = assign_lie_classes(measured, bob.lie_counts(run.params), rng)
    # (p'', q'') of each delayed index in index order, as one block of bits
    coins = iter(rng.integers(0, 2, size=2 * (run.params.s - len(measured))).tolist())
    sets: dict[str, set] = {"a": set(), "b": set(), "c": set(), "honest": set()}
    for rec in run.records:
        if rec.bob_set == DELAYED:
            rec.lie = "random"
            rec.ann_basis = next(coins)
            rec.ann_value = next(coins)
        else:
            rec.lie = assignment[rec.index]
            sets[rec.lie].add(rec.index)
            rec.ann_basis, rec.ann_value = announced_for(
                rec.lie, rec.bob_basis, rec.bob_outcome
            )
    if run.transcript.recording:
        for rec in run.records:
            run.transcript.append(
                BOB, "announce", index=rec.index, basis=rec.ann_basis, value=rec.ann_value
            )
    run.lie_sets = {k: frozenset(v) for k, v in sets.items()}


def alice_detect(run: RunState, rng: RandomStream) -> None:
    """C4: split by q'' vs q_i, measure the claimed-measured registers, and
    announce D, the indices whose register outcome matches the announced
    basis."""
    claimed = []
    for rec in run.records:
        rec.alice_set = "M" if rec.ann_value == 1 - rec.q else "U"
        if rec.alice_set == "M":
            claimed.append(rec.index)
    run.claimed_measured.update(claimed)
    run.really_measured.update(claimed)
    detected = set()
    for i, outcome in zip(claimed, run.env.measure_alphas(claimed, ALICE, rng)):
        rec = run.records[i]
        rec.alice_outcome = run.p_claims[i] = outcome
        if outcome == rec.ann_basis:
            rec.in_detected = True
            detected.add(i)
    run.detected = frozenset(detected)
    run.rest_indices = tuple(i for i in range(run.params.s) if i not in run.detected)
    run.transcript.append(ALICE, "announce-detected", detected=sorted(detected))


def bob_check_commit(run: RunState, bob: BobStrategy, rng: RandomStream) -> None:
    """C5: three checks, any failure aborts the commit.

    (i) each delayed-set index in D gets its stored photon measured in the
    announced basis; an outcome equal to the announced value is proof of a
    contradiction (an honest register hit collapses the photon to the
    opposite value).  (ii) D may contain only lied-about or delayed indices.
    (iii) |D| must sit inside the agreed statistical band.
    """
    checked = sorted(run.detected & run.delayed)
    bases = [run.records[i].ann_basis for i in checked]
    outcomes = run.env.measure_photons(checked, BOB, bases, rng)
    run.c5_hits += sum(o == run.records[i].ann_value for i, o in zip(checked, outcomes))
    if run.c5_hits:
        _reject_commit(run, "C5-photon")
        return
    allowed = run.lie_sets["a"] | run.lie_sets["b"] | run.lie_sets["c"] | run.delayed
    if not run.detected <= allowed:
        _reject_commit(run, "C5-soundness")
        return
    mean, sigma = bob.detected_band(run.params)
    if abs(len(run.detected) - mean) > run.params.tolerance_z * sigma:
        _reject_commit(run, "C5-size")
        return
    run.commit_accepted = True
    run.transcript.append(BOB, "check", stage="C5", verdict="accept")


def _reject_commit(run: RunState, reason: str) -> None:
    run.commit_accepted = False
    run.caught_at = reason
    run.transcript.append(BOB, "check", stage="C5", verdict=reason)


def alice_encode_commit(
    run: RunState,
    code_provider: CodeProvider,
    bit: int,
    rng: RandomStream,
) -> None:
    """C6+C7: fix the pattern c0 over S-D, agree on a code of length s-|D|,
    pick a random codeword with the committed parity, announce c' = c xor c0."""
    if bit not in (0, 1):
        raise ProtocolError("committed bit must be 0 or 1")
    n = len(run.rest_indices)
    run.c0 = run.pattern_from_claims()
    run.code = code_provider(n, rng)
    if run.code.n != n:
        raise ProtocolError(f"code length {run.code.n} does not match s-|D| = {n}")
    run.mask = lincode.sample_nondegenerate_mask(run.code, rng)
    run.committed_bit = bit
    run.codeword = lincode.sample_codeword_with_parity(run.code, run.mask, bit, rng)
    run.c_prime = run.codeword ^ run.c0
    run.transcript.append(
        ALICE, "commit", n=n, weight=int(run.c0.sum()), c_prime=[int(b) for b in run.c_prime]
    )


# ---------------------------------------------------------------------------
# unveil steps


def alice_unveil(run: RunState, alice: AliceStrategy, rng: RandomStream) -> UnveilPackage:
    """U1+U2: announce bit, codeword and pattern, hand over the claimed
    unmeasured registers (after the strategy had a chance to fabricate)."""
    bit = alice.choose_unveil_bit(run, rng)
    alice.prepare_unveil(run, bit, rng)
    c0 = run.pattern_from_claims()
    package = UnveilPackage(
        bit=run.claimed_bit,
        codeword=run.claimed_codeword,
        c0=c0,
        q_claims={r.index: r.q for r in run.records},
        theta_claims={r.index: r.theta for r in run.records},
        p_claims=dict(run.p_claims),
        alpha_indices=tuple(sorted(run.claimed_unmeasured())),
    )
    pending = []
    for i in package.alpha_indices:
        fake = alice.fake_alpha(run, i, rng)
        if fake is not None:
            # hand over the registers before i first, so events keep their order
            run.env.send_many(pending, "alpha", ALICE, BOB)
            pending = []
            run.env.replace_alpha(i, ALICE, fake)
        pending.append(i)
    run.env.send_many(pending, "alpha", ALICE, BOB)
    run.transcript.append(ALICE, "unveil", bit=package.bit, weight=int(c0.sum()))
    return package


def bob_verify_unveil(
    run: RunState, bob: BobStrategy, package: UnveilPackage, rng: RandomStream
) -> None:
    """U3 through U5, stopping at the first failed check.

    U3a: delayed-set indices claimed unmeasured are projectively tested
         against the announced preparation (both subsystems are at Bob now).
    U3b: measured-set indices claimed unmeasured get the register measured
         against the conditional state Bob can compute from his own outcome.
    U3c: delayed-set indices claimed measured must have collapsed the stored
         photon to the claimed basis and value.
    U4:  the claimed measured-set size must sit in its band, and no claimed
         measured-but-undetected index may carry lie b.
    U5:  codeword membership, c' consistency, and the parity that encodes
         the bit.
    """
    claimed_M_minus_D = [i for i in run.rest_indices if i in run.claimed_measured]
    claimed_U = package.alpha_indices
    thetas, qs = package.theta_claims, package.q_claims

    # each sweep stops at its first failure, as a per-index loop would
    joint = [i for i in claimed_U if i in run.delayed]
    passed = [0] * len(joint)
    references = [prepare_pair(thetas[i], qs[i]) for i in joint]
    if run.env.measure_joints(joint, BOB, references, rng, expect=passed) != passed:
        _reject_unveil(run, "U3a")
        return
    register = [i for i in claimed_U if i not in run.delayed]
    passed = [0] * len(register)
    conditional = [
        expected_alpha_after_photon(
            thetas[i], qs[i], run.records[i].bob_basis, run.records[i].bob_outcome
        )
        for i in register
    ]
    if run.env.measure_alphas(register, BOB, rng, bases0=conditional,
                              expect=passed) != passed:
        _reject_unveil(run, "U3b")
        return
    photon = [i for i in claimed_M_minus_D if i in run.delayed]
    values = [qs[i] for i in photon]
    bases = [package.p_claims[i] for i in photon]
    if run.env.measure_photons(photon, BOB, bases, rng, expect=values) != values:
        _reject_unveil(run, "U3c")
        return

    claimed_M = len(run.detected) + int(package.c0.sum())
    mean, sigma = bob.measured_band(run.params)
    if abs(claimed_M - mean) > run.params.tolerance_z * sigma:
        _reject_unveil(run, "U4-size")
        return
    if any(i in run.lie_sets["b"] for i in claimed_M_minus_D):
        _reject_unveil(run, "U4-lie-b")
        return

    if not lincode.is_codeword(run.code, package.codeword):
        _reject_unveil(run, "U5-codeword")
        return
    if not np.array_equal(package.codeword ^ package.c0, run.c_prime):
        _reject_unveil(run, "U5-cprime")
        return
    if lincode.dot(package.codeword, run.mask) != package.bit:
        _reject_unveil(run, "U5-parity")
        return

    run.unveil_accepted = True
    run.transcript.append(BOB, "check", stage="U5", verdict="accept")


def _reject_unveil(run: RunState, reason: str) -> None:
    run.unveil_accepted = False
    run.caught_at = reason
    run.transcript.append(BOB, "check", stage=reason[:3], verdict=reason)


# ---------------------------------------------------------------------------
# full run


def execute_run(
    params: ProtocolParams,
    rng: RandomStream,
    alice: Optional[AliceStrategy] = None,
    bob: Optional[BobStrategy] = None,
    code_provider: Optional[CodeProvider] = None,
    bit: Optional[int] = None,
    record_transcript: bool = False,
) -> RunResult:
    """One complete commit + unveil run; returns the observable summary."""
    alice = alice if alice is not None else AliceStrategy()
    bob = bob if bob is not None else BobStrategy()
    if code_provider is None:
        code_provider = ratio_code_provider(params.ratio_k, params.ratio_d)
    transcript = Transcript(recording=record_transcript)
    env = RegisterEnvironment(transcript)
    run = RunState(params=params, env=env, transcript=transcript)

    alice_commit_prepare(run, alice, rng)
    bob_partition_measure(run, bob, rng)
    bob_announce(run, bob, rng)
    alice_detect(run, rng)
    bob_check_commit(run, bob, rng)
    if run.commit_accepted:
        alice.pre_encode(run, rng)
        committed = bit if bit is not None else _uniform_bit(rng)
        alice_encode_commit(run, code_provider, committed, rng)
        bob.after_commit(run, rng)
        package = alice_unveil(run, alice, rng)
        bob_verify_unveil(run, bob, package, rng)
    return _summarize(run, record_transcript)


def _summarize(run: RunState, with_transcript: bool) -> RunResult:
    lie_union = run.lie_sets["a"] | run.lie_sets["b"] | run.lie_sets["c"] if run.lie_sets else frozenset()
    claimed_m_minus_d = {i for i in run.rest_indices if i in run.claimed_measured}
    violations = {
        "d_soundness": int(bool(run.detected - (lie_union | run.delayed))),
        "lie_b_annihilation": int(bool(claimed_m_minus_d & run.lie_sets.get("b", frozenset()))),
        "c5_empty": run.c5_hits,
        "u5_parity": 0,
    }
    if run.claimed_codeword is not None and run.mask is not None:
        violations["u5_parity"] = int(
            lincode.dot(run.claimed_codeword, run.mask) != run.claimed_bit
        )
    return RunResult(
        s=run.params.s,
        s_prime=run.params.s_prime,
        claimed_M=len(run.detected) + len(claimed_m_minus_d),
        detected=len(run.detected),
        claimed_MminusD=len(claimed_m_minus_d),
        commit_accepted=bool(run.commit_accepted),
        unveil_accepted=bool(run.unveil_accepted),
        caught_at=run.caught_at,
        committed_bit=run.committed_bit,
        unveiled_bit=run.claimed_bit,
        flip_count=run.flip_count,
        violations=violations,
        lie_counts=(
            len(run.lie_sets.get("a", ())),
            len(run.lie_sets.get("b", ())),
            len(run.lie_sets.get("c", ())),
        ),
        code_shape=(run.code.n, run.code.k, run.code.verified_min_distance)
        if run.code is not None
        else None,
        extraction=run.extraction,
        transcript=run.transcript.to_jsonl() if with_transcript else None,
    )


# ---------------------------------------------------------------------------
# standalone Problem-P solvers


@dataclass(frozen=True)
class SolverResult:
    detected: frozenset
    measured_count: int
    s: int
    lie_sets: dict

    @property
    def detected_count(self) -> int:
        return len(self.detected)


def _solver_lie_roll(params: ProtocolParams, rng: RandomStream) -> dict:
    if params.s_prime != 0:
        raise ProtocolError("standalone solvers run the no-delayed-set game")
    return assign_lie_classes(range(params.s), params.lie_counts, rng)


def _freeze_lie_sets(assignment: dict) -> dict:
    sets: dict[str, set] = {"a": set(), "b": set(), "c": set(), "honest": set()}
    for i, cls in assignment.items():
        sets[cls].add(i)
    return {k: frozenset(v) for k, v in sets.items()}


def semi_classical_solver(params: ProtocolParams, rng: RandomStream) -> SolverResult:
    """Send plain polarization states instead of entangled pairs.

    Alice knows (p_i, q_i) up front, so detection is pure bookkeeping: an
    announcement equal to (p_i, not q_i) is impossible for a truthful Bob.
    Costs a measurement on every one of the s pairs (the states are fixed
    before Bob answers, which is what "measuring all of them first" means).
    """
    assignment = _solver_lie_roll(params, rng)
    detected = set()
    for i in range(params.s):
        p_i, q_i = _uniform_bit(rng), _uniform_bit(rng)
        if _uniform_bit(rng) == 0:
            basis, outcome = p_i, q_i
        else:
            basis, outcome = 1 - p_i, _uniform_bit(rng)
        ann = announced_for(assignment[i], basis, outcome)
        if ann == (p_i, 1 - q_i):
            detected.add(i)
    return SolverResult(frozenset(detected), params.s, params.s, _freeze_lie_sets(assignment))


def optimal_solver(params: ProtocolParams, rng: RandomStream) -> SolverResult:
    """The protocol's own detection method run standalone: measure only the
    indices whose announced value contradicts q_i."""
    assignment = _solver_lie_roll(params, rng)
    detected = set()
    measured = 0
    for i in range(params.s):
        theta = params.theta_for(i)
        q_i = _uniform_bit(rng)
        state = prepare_pair(theta, q_i)
        basis = _uniform_bit(rng)
        outcome, collapsed = _pair_measure_photon(state, basis, rng)
        ann = announced_for(assignment[i], basis, outcome)
        if ann[1] != 1 - q_i:
            continue
        measured += 1
        alpha, _ = factor_product(collapsed)
        p_i = measure_in_basis(alpha, KET_X, rng)
        if p_i == ann[0]:
            detected.add(i)
    return SolverResult(frozenset(detected), measured, params.s, _freeze_lie_sets(assignment))


# first vector of the register basis the same-basis variant measures in,
# keyed by the announced basis p''
_B_BASIS0 = {0: KET_X, 1: QubitState(1 / math.sqrt(2), 1 / math.sqrt(2))}


def _require_quarter_pi(params: ProtocolParams) -> None:
    theta = params.theta
    if isinstance(theta, tuple) or abs(float(theta) - math.pi / 4) > 1e-9:
        raise ProtocolError("this solver variant is defined at theta = pi/4 only")


def variant_solver(kind: str, params: ProtocolParams, rng: RandomStream) -> SolverResult:
    """The two other preparations, both solving the detection problem at
    theta = pi/4 with different measurement budgets.

    Same-basis variant ("B"): both photon branches live in the rectilinear
    basis, so measuring the register in a basis adapted to the announced p''
    steers the photon into that basis; a random half of the indices is
    checked and any announced value disagreeing with the steered value on a
    truthful index is impossible.  Budget: s/2.

    Cross-value variant ("C"): the photon branches are |0deg> and |135deg>;
    announcements (0,1) and (1,0) pin the register to |y> and |x> exactly,
    so only those get measured.  Budget: [1/4+(f_a+f_b)/2]s.
    """
    kind = _canonical_variant(kind)
    _require_quarter_pi(params)
    assignment = _solver_lie_roll(params, rng)
    detected = set()
    measured = 0
    if kind == "B":
        chosen = {int(i) for i in rng.choice(params.s, size=params.s // 2, replace=False)}
        state = PairState((1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)))
        for i in range(params.s):
            basis = _uniform_bit(rng)
            outcome, collapsed = _pair_measure_photon(state, basis, rng)
            ann = announced_for(assignment[i], basis, outcome)
            if i not in chosen:
                continue
            measured += 1
            alpha, _ = factor_product(collapsed)
            v = measure_in_basis(alpha, _B_BASIS0[ann[0]], rng)
            if v != ann[1]:
                detected.add(i)
    else:
        state = PairState((1 / math.sqrt(2.0), 0, -0.5, 0.5))
        for i in range(params.s):
            basis = _uniform_bit(rng)
            outcome, collapsed = _pair_measure_photon(state, basis, rng)
            ann = announced_for(assignment[i], basis, outcome)
            if ann not in ((0, 1), (1, 0)):
                continue
            measured += 1
            alpha, _ = factor_product(collapsed)
            expect_y = ann == (0, 1)
            v = measure_in_basis(alpha, KET_X, rng)
            got_y = v == 1
            if got_y != expect_y:
                detected.add(i)
    return SolverResult(frozenset(detected), measured, params.s, _freeze_lie_sets(assignment))


def _canonical_variant(kind: str) -> str:
    alias = {
        "B": "B",
        "B-same-basis": "B",
        "same-basis": "B",
        "C": "C",
        "C-cross-value": "C",
        "cross-value": "C",
    }
    try:
        return alias[kind]
    except KeyError:
        raise ProtocolError(f"unknown solver variant {kind!r}")
