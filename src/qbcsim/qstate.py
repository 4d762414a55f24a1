"""Exact two-qubit statevector engine for one internal register entangled with
one polarization-encoded photon.

Conventions used throughout the package:

- A polarization ket carries a basis bit p (0 = rectilinear, 1 = diagonal) and
  a value bit q.  In the computational (0deg/90deg) frame the four kets are
  the linear-polarization angles 0, 45, 90, 135 degrees:
      (p=0,q=0) -> (1, 0)          (p=0,q=1) -> (0, 1)
      (p=1,q=0) -> (1, 1)/sqrt2    (p=1,q=1) -> (-1, 1)/sqrt2
  The sign of the 135deg ket is fixed as (-1, 1)/sqrt2.
- The internal register ("alpha") has orthonormal basis states |x>, |y>
  (KET_X, KET_Y).
- A PairState stores the four joint amplitudes over (alpha tensor photon) as
  a flat tuple (x&0deg, x&90deg, y&0deg, y&90deg).  The entangled preparation
  with angle theta and value bit q is
      cos(theta)|x>|0,q> + sin(theta)|y>|1,q> ,   theta in (0, pi/2) open.
- States are immutable values.  A measurement never mutates its input; it
  returns the sampled outcome together with the collapsed state.  The fixed
  kets (KET_X, KET_Y and the four returned by pol_ket) are built once at
  import and shared by every caller.
- The pure transitions are memoized: prepare_pair, expected_alpha_after_photon
  and, for each measurement, the branch weights and the collapsed state.  At
  a fixed theta a run only reaches a handful of distinct states, so each is
  built and validated once and then shared; the collapsed state a measurement
  returns is one immutable object handed to every caller that reaches it.
  The random draw is never cached: each measurement still draws once, and
  only the drawn outcome's collapse is built.  Equal states share one entry,
  and == does not tell 0.0 from -0.0, so a shared state may carry a zero of
  the other sign; no probability or outcome depends on that sign.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

RandomStream = np.random.Generator

ALPHA_X = 0
ALPHA_Y = 1

# Constructors keep amplitudes normalized to this tolerance; measurement
# re-normalizes explicitly so accumulated float error stays ~1e-15.
_NORM_TOL = 1e-9

# Entries kept per memoized transition.  A fixed theta reaches at most a few
# dozen keys per transition; the bound caps memory when every pair has its
# own angle.
_CACHE_SIZE = 4096
_memo = functools.lru_cache(maxsize=_CACHE_SIZE)


class StateError(ValueError):
    """Malformed state, bad parameter, or normalization failure."""


def _require_finite(*values: complex) -> None:
    for z in values:
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise StateError("non-finite amplitude")


@dataclass(frozen=True, slots=True)
class QubitState:
    """Pure state of a single two-level system in a declared basis."""

    a0: complex
    a1: complex

    def __post_init__(self) -> None:
        a0, a1 = complex(self.a0), complex(self.a1)
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "a1", a1)
        _require_finite(a0, a1)
        n = abs(a0) ** 2 + abs(a1) ** 2
        if abs(n - 1.0) > _NORM_TOL:
            raise StateError(f"qubit not normalized: |a|^2 = {n!r}")

    def amplitudes(self) -> tuple[complex, complex]:
        return (self.a0, self.a1)

    def probabilities(self) -> tuple[float, float]:
        return (abs(self.a0) ** 2, abs(self.a1) ** 2)


def unit_qubit(a0: complex, a1: complex) -> QubitState:
    """Build a QubitState from an unnormalized amplitude pair."""
    n = math.sqrt(abs(a0) ** 2 + abs(a1) ** 2)
    if n < 1e-150:
        raise StateError("cannot normalize the zero vector")
    return QubitState(a0 / n, a1 / n)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
KET_X = QubitState(1.0, 0.0)
KET_Y = QubitState(0.0, 1.0)
_KETS = {
    (0, 0): QubitState(1.0, 0.0),
    (0, 1): QubitState(0.0, 1.0),
    (1, 0): QubitState(_INV_SQRT2, _INV_SQRT2),
    (1, 1): QubitState(-_INV_SQRT2, _INV_SQRT2),
}


def pol_ket(p: int, q: int) -> QubitState:
    """Polarization ket for basis bit p and value bit q (see module docstring)."""
    try:
        return _KETS[(int(p), int(q))]
    except KeyError:
        raise StateError(f"basis and value bits must be 0 or 1, got ({p}, {q})")


def orthogonal(state: QubitState) -> QubitState:
    """The unique (up to phase) qubit state orthogonal to the given one."""
    return QubitState(-state.a1.conjugate(), state.a0.conjugate())


def overlap(a: QubitState, b: QubitState) -> complex:
    """Inner product <a|b>."""
    return a.a0.conjugate() * b.a0 + a.a1.conjugate() * b.a1


@dataclass(frozen=True, slots=True)
class PairState:
    """Joint pure state of (alpha register) tensor (photon).

    amp = (x&0deg, x&90deg, y&0deg, y&90deg) in the computational photon frame.
    """

    amp: tuple[complex, complex, complex, complex]

    def __post_init__(self) -> None:
        amp = tuple(complex(z) for z in self.amp)
        if len(amp) != 4:
            raise StateError("PairState needs exactly 4 amplitudes")
        object.__setattr__(self, "amp", amp)
        _require_finite(*amp)
        n = sum(abs(z) ** 2 for z in amp)
        if abs(n - 1.0) > _NORM_TOL:
            raise StateError(f"pair state not normalized: |a|^2 = {n!r}")


def tensor(alpha: QubitState, photon: QubitState) -> PairState:
    """Product state alpha tensor photon."""
    return PairState(
        (
            alpha.a0 * photon.a0,
            alpha.a0 * photon.a1,
            alpha.a1 * photon.a0,
            alpha.a1 * photon.a1,
        )
    )


@_memo
def prepare_pair(theta: float, q: int) -> PairState:
    """Entangled preparation cos(theta)|x>|0,q> + sin(theta)|y>|1,q>.

    theta must lie strictly inside (0, pi/2); the endpoints would be product
    states and are rejected rather than silently allowed.
    """
    if not (0.0 < theta < math.pi / 2.0):
        raise StateError(f"theta must be in the open interval (0, pi/2), got {theta}")
    k0 = pol_ket(0, q)
    k1 = pol_ket(1, q)
    c, s = math.cos(theta), math.sin(theta)
    return PairState(
        (
            c * k0.a0,
            c * k0.a1,
            s * k1.a0,
            s * k1.a1,
        )
    )


def pair_overlap(a: PairState, b: PairState) -> complex:
    """Inner product <a|b> of two joint states."""
    return sum(x.conjugate() * y for x, y in zip(a.amp, b.amp))


def _alpha_components(state: PairState, photon: QubitState) -> tuple[complex, complex]:
    """Unnormalized alpha amplitudes after projecting the photon onto `photon`."""
    k0, k1 = photon.a0.conjugate(), photon.a1.conjugate()
    ax = state.amp[0] * k0 + state.amp[1] * k1
    ay = state.amp[2] * k0 + state.amp[3] * k1
    return ax, ay


def _photon_components(state: PairState, alpha: QubitState) -> tuple[complex, complex]:
    """Unnormalized photon amplitudes after projecting alpha onto `alpha`."""
    b0, b1 = alpha.a0.conjugate(), alpha.a1.conjugate()
    p0 = b0 * state.amp[0] + b1 * state.amp[2]
    p1 = b0 * state.amp[1] + b1 * state.amp[3]
    return p0, p1


@_memo
def _photon_weights(state: PairState, basis: int) -> tuple[float, float]:
    """Unnormalized Born weights for photon values 0 and 1 in `basis`."""
    return tuple(
        abs(ax) ** 2 + abs(ay) ** 2
        for ax, ay in (_alpha_components(state, pol_ket(basis, v)) for v in (0, 1))
    )


@_memo
def _photon_collapse(state: PairState, basis: int, outcome: int) -> PairState:
    photon = pol_ket(basis, outcome)
    return tensor(unit_qubit(*_alpha_components(state, photon)), photon)


def born_probabilities_photon(state: PairState, basis: int) -> tuple[float, float]:
    """Outcome probabilities (value 0, value 1) for a photon measurement in `basis`."""
    p0, p1 = _photon_weights(state, basis)
    total = p0 + p1
    return (p0 / total, p1 / total)


@_memo
def _alpha_weights(state: PairState, basis0: QubitState) -> tuple[float, float]:
    """Unnormalized Born weights for register outcomes basis0 and basis0-perp."""
    return tuple(
        abs(p0) ** 2 + abs(p1) ** 2
        for p0, p1 in (_photon_components(state, b) for b in (basis0, orthogonal(basis0)))
    )


@_memo
def _alpha_collapse(state: PairState, basis0: QubitState, outcome: int) -> PairState:
    vec = basis0 if outcome == 0 else orthogonal(basis0)
    return tensor(vec, unit_qubit(*_photon_components(state, vec)))


@_memo
def _joint_match(state: PairState, reference: PairState) -> float:
    return abs(pair_overlap(reference, state)) ** 2


@_memo
def _joint_residual(state: PairState, reference: PairState) -> Optional[PairState]:
    """Normalized projection onto the complement of `reference`; None if it vanishes."""
    ov = pair_overlap(reference, state)
    residual = tuple(a - ov * r for a, r in zip(state.amp, reference.amp))
    norm = math.sqrt(sum(abs(z) ** 2 for z in residual))
    if norm < 1e-150:
        return None
    return PairState(tuple(z / norm for z in residual))


def _weighed(weights):
    def branch(state: PairState, key) -> tuple[float, float]:
        p0, p1 = weights(state, key)
        return p0, p0 + p1

    return branch


def _collapsed(collapse):
    def outcome_and_state(state: PairState, key, outcome: int) -> tuple[int, PairState]:
        return outcome, collapse(state, key, outcome)

    return outcome_and_state


def _joint_branch(state: PairState, reference: PairState) -> tuple[float, float]:
    # the pass weight is already a probability, and u * 1.0 < match is u < match
    return _joint_match(state, reference), 1.0


def _joint_outcome(state: PairState, reference: PairState, outcome: int) -> tuple[int, PairState]:
    if outcome == 0:
        return 0, reference
    residual = _joint_residual(state, reference)
    if residual is None:
        # probability of reaching this branch is < 1e-300; keep it safe anyway
        return 0, reference
    return 1, residual


@dataclass(frozen=True, slots=True)
class Measurement:
    """One two-outcome projective measurement, split into its memoized parts.

    branch(state, key) gives (p0, total): with the measurement's one uniform
    draw u, outcome 0 happens exactly when u * total < p0.  collapse(state,
    key, outcome) gives the reported outcome and the post-measurement state.
    The key is the photon basis bit (PHOTON), the first vector of the
    register basis (ALPHA) or the reference pair state (JOINT).  sample() is
    the one-pair form; a sweep over many pairs looks both parts up once per
    distinct (state, key) and applies them to a block of draws.
    """

    branch: Callable[[PairState, object], tuple[float, float]]
    collapse: Callable[[PairState, object, int], tuple[int, PairState]]

    def sample(self, state: PairState, key, u: float) -> tuple[int, PairState]:
        p0, total = self.branch(state, key)
        return self.collapse(state, key, 0 if u * total < p0 else 1)


PHOTON = Measurement(_weighed(_photon_weights), _collapsed(_photon_collapse))
ALPHA = Measurement(_weighed(_alpha_weights), _collapsed(_alpha_collapse))
JOINT = Measurement(_joint_branch, _joint_outcome)


def measure_photon(state: PairState, basis: int, rng: RandomStream) -> tuple[int, PairState]:
    """Projectively measure the photon in polarization basis `basis`.

    Parameters
    ----------
    state : PairState
        Joint state before measurement (not modified).
    basis : int
        0 for rectilinear, 1 for diagonal.
    rng : numpy Generator
        Source of the Born-rule sample.

    Returns
    -------
    (outcome, collapsed) : the sampled value bit and the post-measurement
    product state, whose alpha factor is the exact conditional state.
    """
    return PHOTON.sample(state, basis, rng.random())


def measure_alpha(state: PairState, rng: RandomStream) -> tuple[int, PairState]:
    """Measure the alpha register in its computational (|x>, |y>) basis.

    Returns (outcome, collapsed) where outcome 0 means |x> and 1 means |y>;
    the photon factor of the collapsed state is the exact conditional state.
    """
    return measure_alpha_in(state, KET_X, rng)


def measure_alpha_in(
    state: PairState, basis0: QubitState, rng: RandomStream
) -> tuple[int, PairState]:
    """Measure the alpha register in the orthonormal basis (basis0, basis0-perp).

    Outcome 0 reports projection onto basis0.  Works on entangled and product
    states alike; the photon factor collapses to the matching conditional state.
    """
    return ALPHA.sample(state, basis0, rng.random())


def measure_pair_in_state(
    state: PairState, reference: PairState, rng: RandomStream
) -> tuple[int, PairState]:
    """Binary projective test of the joint state against a reference state.

    Outcome 0 means the state passed (projected onto the reference); outcome 1
    projects onto the orthogonal complement within the 4-dim joint space.
    """
    return JOINT.sample(state, reference, rng.random())


def measure_in_basis(state: QubitState, basis0: QubitState, rng: RandomStream) -> int:
    """Two-outcome measurement of a lone qubit; 0 means it matched basis0."""
    p0 = abs(overlap(basis0, state)) ** 2
    return 0 if rng.random() < p0 else 1

def schmidt_coefficients(state: PairState) -> tuple[float, float]:
    """Descending singular values (l1, l2) of the 2x2 amplitude matrix.

    l1^2 + l2^2 = 1; l2 = 0 exactly characterizes product states.  Uses the
    closed 2x2 form: l1 l2 = |det|, l1^2 + l2^2 = trace of A A-dagger.
    """
    a, b, c, d = state.amp
    t = abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2
    det = abs(a * d - b * c)
    disc = max(t * t - 4.0 * det * det, 0.0)
    root = math.sqrt(disc)
    l1 = math.sqrt((t + root) / 2.0)
    l2 = math.sqrt(max((t - root) / 2.0, 0.0))
    return (l1, l2)


def is_product(state: PairState, tol: float = 1e-9) -> bool:
    """True when the smaller Schmidt coefficient is below tol."""
    return schmidt_coefficients(state)[1] < tol


def factor_product(state: PairState, tol: float = 1e-9) -> tuple[QubitState, QubitState]:
    """Split a product state into (alpha, photon) factors.

    Raises StateError when the state is entangled beyond tol.  The factors are
    unique up to opposite global phases.
    """
    if not is_product(state, tol):
        raise StateError("state is entangled; no product factorization exists")
    a, b, c, d = state.amp
    nx = abs(a) ** 2 + abs(b) ** 2
    ny = abs(c) ** 2 + abs(d) ** 2
    photon = unit_qubit(a, b) if nx >= ny else unit_qubit(c, d)
    ax = photon.a0.conjugate() * a + photon.a1.conjugate() * b
    ay = photon.a0.conjugate() * c + photon.a1.conjugate() * d
    return unit_qubit(ax, ay), photon


@_memo
def expected_alpha_after_photon(theta: float, q: int, basis: int, outcome: int) -> QubitState:
    """Conditional alpha state of the standard preparation given a photon result.

    This is the state the register must hold once the photon of
    prepare_pair(theta, q) was measured in `basis` with result `outcome`.
    """
    state = prepare_pair(theta, q)
    ax, ay = _alpha_components(state, pol_ket(basis, outcome))
    return unit_qubit(ax, ay)


def states_equal_up_to_phase(a: QubitState, b: QubitState, tol: float = 1e-12) -> bool:
    return abs(abs(overlap(a, b)) - 1.0) <= tol


def pairs_equal_up_to_phase(a: PairState, b: PairState, tol: float = 1e-12) -> bool:
    return abs(abs(pair_overlap(a, b)) - 1.0) <= tol
