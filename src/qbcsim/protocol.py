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
    KET_X,
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
    object per line.  With recording off only the sequence counter advances."""

    def __init__(self, recording: bool = True) -> None:
        self.recording = recording
        self.events: list[dict] = []
        self._seq = 0

    def append(self, actor: str, kind: str, **payload) -> None:
        self._seq += 1
        if self.recording:
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

    Ownership is tracked per subsystem ("alpha", "photon").  Measurements and
    sends go through here so each is both access-checked and logged.
    """

    def __init__(self, transcript: Optional[Transcript] = None) -> None:
        self.transcript = transcript if transcript is not None else Transcript(False)
        self._states: dict[int, PairState] = {}
        self._owner: dict[tuple[int, str], str] = {}
        self._measured: set[tuple[int, str]] = set()

    def create_pair(self, index: int, state: PairState, party: str) -> None:
        if index in self._states:
            raise ProtocolError(f"pair {index} already exists")
        self._states[index] = state
        self._owner[(index, "alpha")] = party
        self._owner[(index, "photon")] = party
        self.transcript.append(party, "prepare", index=index)

    def send(self, index: int, subsystem: str, sender: str, receiver: str) -> None:
        self._require(index, subsystem, sender)
        self._owner[(index, subsystem)] = receiver
        self.transcript.append(sender, "send", index=index, subsystem=subsystem, to=receiver)

    def _require(self, index: int, subsystem: str, party: str) -> None:
        owner = self._owner.get((index, subsystem))
        if owner is None:
            raise ProtocolError(f"no such subsystem ({index}, {subsystem})")
        if owner != party:
            raise EnvironmentBreach(
                f"{party} acted on ({index}, {subsystem}) owned by {owner}"
            )

    def measure_photon(self, index: int, party: str, basis: int, rng: RandomStream) -> int:
        self._require(index, "photon", party)
        outcome, collapsed = _pair_measure_photon(self._states[index], basis, rng)
        self._states[index] = collapsed
        self._measured.add((index, "photon"))
        self.transcript.append(party, "measure-photon", index=index, basis=basis, outcome=outcome)
        return outcome

    def measure_alpha(self, index: int, party: str, rng: RandomStream) -> int:
        """Computational-basis measurement of the register; 0 is |x>."""
        self._require(index, "alpha", party)
        outcome, collapsed = _pair_measure_alpha(self._states[index], rng)
        self._states[index] = collapsed
        self._measured.add((index, "alpha"))
        self.transcript.append(party, "measure-alpha", index=index, outcome=outcome)
        return outcome

    def measure_alpha_in(self, index: int, party: str, basis0: QubitState, rng: RandomStream) -> int:
        self._require(index, "alpha", party)
        outcome, collapsed = _qubit_measure_alpha_in(self._states[index], basis0, rng)
        self._states[index] = collapsed
        self._measured.add((index, "alpha"))
        self.transcript.append(party, "measure-alpha-in", index=index, outcome=outcome)
        return outcome

    def measure_joint(self, index: int, party: str, reference: PairState, rng: RandomStream) -> int:
        """Binary projective test of the whole pair; needs both subsystems."""
        self._require(index, "alpha", party)
        self._require(index, "photon", party)
        outcome, collapsed = measure_pair_in_state(self._states[index], reference, rng)
        self._states[index] = collapsed
        self._measured.add((index, "alpha"))
        self._measured.add((index, "photon"))
        self.transcript.append(party, "measure-joint", index=index, outcome=outcome)
        return outcome

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
        return (index, "photon") in self._measured

    def alpha_measured(self, index: int) -> bool:
        return (index, "alpha") in self._measured


# ---------------------------------------------------------------------------
# per-pair records and run state


@dataclass
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

    def prepare(self, index: int, params: ProtocolParams, rng: RandomStream):
        """Return (joint state, claimed theta, claimed q) for one pair."""
        q = _uniform_bit(rng)
        theta = params.theta_for(index)
        return prepare_pair(theta, q), theta, q

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
    for i in range(run.params.s):
        state, theta, q = alice.prepare(i, run.params, rng)
        run.records.append(PairRecord(index=i, q=q, theta=theta))
        run.env.create_pair(i, state, ALICE)
        run.env.send(i, "photon", ALICE, BOB)


def bob_partition_measure(run: RunState, bob: BobStrategy, rng: RandomStream) -> None:
    """C2: split off the delayed set, measure the rest in random bases."""
    run.delayed = bob.choose_delayed(run.params, rng)
    if len(run.delayed) != run.params.s_prime:
        raise ProtocolError("delayed set has the wrong size")
    for rec in run.records:
        if rec.index in run.delayed:
            rec.bob_set = DELAYED
        else:
            rec.bob_basis = _uniform_bit(rng)
            rec.bob_outcome = run.env.measure_photon(rec.index, BOB, rec.bob_basis, rng)


def bob_announce(run: RunState, bob: BobStrategy, rng: RandomStream) -> None:
    """C3: announce per-index results, lying per class on the measured set
    and uniformly at random on the delayed set."""
    measured = [r.index for r in run.records if r.bob_set == MEASURED]
    assignment = assign_lie_classes(measured, bob.lie_counts(run.params), rng)
    sets: dict[str, set] = {"a": set(), "b": set(), "c": set(), "honest": set()}
    for rec in run.records:
        if rec.bob_set == DELAYED:
            rec.lie = "random"
            rec.ann_basis = _uniform_bit(rng)
            rec.ann_value = _uniform_bit(rng)
        else:
            rec.lie = assignment[rec.index]
            sets[rec.lie].add(rec.index)
            rec.ann_basis, rec.ann_value = announced_for(
                rec.lie, rec.bob_basis, rec.bob_outcome
            )
        run.transcript.append(
            BOB, "announce", index=rec.index, basis=rec.ann_basis, value=rec.ann_value
        )
    run.lie_sets = {k: frozenset(v) for k, v in sets.items()}


def alice_detect(run: RunState, rng: RandomStream) -> None:
    """C4: split by q'' vs q_i, measure the claimed-measured registers, and
    announce D, the indices whose register outcome matches the announced
    basis."""
    detected = set()
    for rec in run.records:
        if rec.ann_value == 1 - rec.q:
            rec.alice_set = "M"
            run.claimed_measured.add(rec.index)
            run.really_measured.add(rec.index)
            rec.alice_outcome = run.env.measure_alpha(rec.index, ALICE, rng)
            run.p_claims[rec.index] = rec.alice_outcome
            if rec.alice_outcome == rec.ann_basis:
                rec.in_detected = True
                detected.add(rec.index)
        else:
            rec.alice_set = "U"
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
    for i in sorted(run.detected & run.delayed):
        rec = run.records[i]
        outcome = run.env.measure_photon(i, BOB, rec.ann_basis, rng)
        if outcome == rec.ann_value:
            run.c5_hits += 1
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
    for i in package.alpha_indices:
        fake = alice.fake_alpha(run, i, rng)
        if fake is not None:
            run.env.replace_alpha(i, ALICE, fake)
        run.env.send(i, "alpha", ALICE, BOB)
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

    for i in claimed_U:
        if i not in run.delayed:
            continue
        reference = prepare_pair(package.theta_claims[i], package.q_claims[i])
        if run.env.measure_joint(i, BOB, reference, rng) == 1:
            _reject_unveil(run, "U3a")
            return
    for i in claimed_U:
        if i in run.delayed:
            continue
        rec = run.records[i]
        e = expected_alpha_after_photon(
            package.theta_claims[i], package.q_claims[i], rec.bob_basis, rec.bob_outcome
        )
        if run.env.measure_alpha_in(i, BOB, e, rng) == 1:
            _reject_unveil(run, "U3b")
            return
    for i in claimed_M_minus_D:
        if i not in run.delayed:
            continue
        p_claim = package.p_claims[i]
        outcome = run.env.measure_photon(i, BOB, p_claim, rng)
        if outcome != package.q_claims[i]:
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
