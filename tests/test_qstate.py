import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbcsim import qstate
from qbcsim.qstate import (
    PairState,
    QubitState,
    StateError,
    born_probabilities_photon,
    expected_alpha_after_photon,
    factor_product,
    is_product,
    measure_alpha,
    measure_alpha_in,
    measure_in_basis,
    measure_pair_in_state,
    measure_photon,
    orthogonal,
    overlap,
    pair_overlap,
    pairs_equal_up_to_phase,
    pol_ket,
    prepare_pair,
    schmidt_coefficients,
    states_equal_up_to_phase,
    tensor,
    unit_qubit,
)

RT2 = math.sqrt(2.0)


def np_vector(state: PairState) -> np.ndarray:
    return np.array(state.amp, dtype=complex)


def oracle_collapse_after_photon(state: PairState, basis: int, outcome: int):
    """Independent 4-vector oracle: project with I (x) |b><b| and renormalize."""
    b = np.array(pol_ket(basis, outcome).amplitudes(), dtype=complex)
    proj = np.kron(np.eye(2, dtype=complex), np.outer(b, b.conj()))
    v = proj @ np_vector(state)
    p = float(np.vdot(v, v).real)
    v = v / math.sqrt(p)
    # alpha amplitudes are the coefficients along the projected photon ket
    alpha = np.array([np.vdot(np.kron(e, b), v) for e in (np.eye(2))], dtype=complex)
    return p, alpha


def test_pol_ket_table():
    assert pol_ket(0, 0).amplitudes() == (1, 0)
    assert pol_ket(0, 1).amplitudes() == (0, 1)
    a = pol_ket(1, 0).amplitudes()
    assert a[0] == pytest.approx(1 / RT2, abs=1e-15)
    assert a[1] == pytest.approx(1 / RT2, abs=1e-15)
    b = pol_ket(1, 1).amplitudes()
    assert b[0] == pytest.approx(-1 / RT2, abs=1e-15)
    assert b[1] == pytest.approx(1 / RT2, abs=1e-15)
    # the kets are shared constants, not rebuilt per call
    assert pol_ket(1, 1) is pol_ket(1, 1)


def test_pol_ket_rejects_bad_bits():
    with pytest.raises(StateError):
        pol_ket(2, 0)
    with pytest.raises(StateError):
        pol_ket(0, -1)


def test_diagonal_kets_are_orthonormal():
    k0, k1 = pol_ket(1, 0), pol_ket(1, 1)
    assert abs(overlap(k0, k1)) < 1e-15
    assert abs(overlap(k0, k0) - 1) < 1e-15


def test_orthogonal_is_orthogonal():
    rng = np.random.default_rng(7)
    for _ in range(25):
        re, im = rng.normal(size=2), rng.normal(size=2)
        s = unit_qubit(complex(re[0], im[0]), complex(re[1], im[1]))
        assert abs(overlap(s, orthogonal(s))) < 1e-12


def test_unit_qubit_rejects_zero_and_nonfinite():
    with pytest.raises(StateError):
        unit_qubit(0, 0)
    with pytest.raises(StateError):
        QubitState(complex(math.nan), 0)
    with pytest.raises(StateError):
        QubitState(0.9, 0.9)


def test_prepare_pair_amplitudes_quarter_pi():
    state = prepare_pair(math.pi / 4, 0)
    # cos|x>|0,0> + sin|y>|1,0> = (1/rt2, 0, 1/2, 1/2) internally, all real
    assert state.amp == pytest.approx((1 / RT2, 0, 0.5, 0.5), abs=1e-15)
    assert all(z.imag == 0 for z in state.amp)


def test_prepare_pair_q1_amplitudes():
    state = prepare_pair(math.pi / 4, 1)
    # cos|x>|0,1> + sin|y>|1,1> = (0, 1/rt2, -1/2, 1/2) internally
    assert state.amp[0] == pytest.approx(0, abs=1e-15)
    assert state.amp[1] == pytest.approx(1 / RT2, abs=1e-15)
    assert state.amp[2] == pytest.approx(-0.5, abs=1e-15)
    assert state.amp[3] == pytest.approx(0.5, abs=1e-15)


def test_prepare_pair_rejects_endpoints():
    for theta in (0.0, math.pi / 2, -0.2, 2.0):
        with pytest.raises(StateError):
            prepare_pair(theta, 0)


def test_schmidt_of_standard_preparation():
    # theta = pi/4 gives singular values (cos pi/8, sin pi/8), independent of q
    for q in (0, 1):
        l1, l2 = schmidt_coefficients(prepare_pair(math.pi / 4, q))
        assert l1 == pytest.approx(math.cos(math.pi / 8), abs=1e-12)
        assert l2 == pytest.approx(math.sin(math.pi / 8), abs=1e-12)
        assert l1 * l1 + l2 * l2 == pytest.approx(1.0, abs=1e-12)


def test_schmidt_matches_numpy_svd():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v = v / np.linalg.norm(v)
        s = PairState(tuple(v))
        ours = schmidt_coefficients(s)
        ref = np.linalg.svd(np.array(v).reshape(2, 2), compute_uv=False)
        assert ours[0] == pytest.approx(float(ref[0]), abs=1e-12)
        assert ours[1] == pytest.approx(float(ref[1]), abs=1e-12)


def test_product_detection():
    ent = prepare_pair(math.pi / 4, 0)
    assert not is_product(ent)
    prod = tensor(unit_qubit(1, 1j), pol_ket(1, 1))
    assert is_product(prod)
    with pytest.raises(StateError):
        factor_product(ent)


def test_factor_product_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        p = rng.normal(size=2) + 1j * rng.normal(size=2)
        alpha = unit_qubit(*a)
        photon = unit_qubit(*p)
        got_a, got_p = factor_product(tensor(alpha, photon))
        assert abs(abs(overlap(got_a, alpha)) - 1) < 1e-9
        assert abs(abs(overlap(got_p, photon)) - 1) < 1e-9


def test_born_probabilities_photon():
    state = prepare_pair(math.pi / 4, 0)
    for basis in (0, 1):
        p0, p1 = born_probabilities_photon(state, basis)
        assert p0 == pytest.approx(0.75, abs=1e-12)
        assert p1 == pytest.approx(0.25, abs=1e-12)
    # prepared q=1: outcome 1 is now the likely one
    p0, p1 = born_probabilities_photon(prepare_pair(math.pi / 4, 1), 0)
    assert p0 == pytest.approx(0.25, abs=1e-12)
    assert p1 == pytest.approx(0.75, abs=1e-12)


# Frozen conditional register states for prepare_pair(pi/4, 0), one row per
# (measurement basis, photon outcome).  Probabilities are exact thirds/quarters.
COLLAPSE_TABLE = [
    (0, 0, 0.75, (math.sqrt(2 / 3), math.sqrt(1 / 3))),
    (0, 1, 0.25, (0.0, 1.0)),
    (1, 0, 0.75, (math.sqrt(1 / 3), math.sqrt(2 / 3))),
    (1, 1, 0.25, (1.0, 0.0)),
]


@pytest.mark.parametrize("basis,outcome,prob,alpha", COLLAPSE_TABLE)
def test_conditional_collapse_exact(basis, outcome, prob, alpha):
    state = prepare_pair(math.pi / 4, 0)
    p_oracle, alpha_oracle = oracle_collapse_after_photon(state, basis, outcome)
    assert p_oracle == pytest.approx(prob, abs=1e-12)
    got = expected_alpha_after_photon(math.pi / 4, 0, basis, outcome)
    expected = QubitState(*alpha)
    assert abs(abs(overlap(got, expected)) - 1) < 1e-12
    fid = abs(np.vdot(alpha_oracle, np.array(got.amplitudes())))
    assert fid == pytest.approx(1.0, abs=1e-12)


def test_measure_photon_collapse_and_frequencies():
    rng = np.random.default_rng(2024)
    state = prepare_pair(math.pi / 4, 0)
    n = 20000
    hits = 0
    for _ in range(n):
        outcome, collapsed = measure_photon(state, 1, rng)
        assert is_product(collapsed)
        alpha, photon = factor_product(collapsed)
        assert states_equal_up_to_phase(photon, pol_ket(1, outcome))
        e = expected_alpha_after_photon(math.pi / 4, 0, 1, outcome)
        assert states_equal_up_to_phase(alpha, e)
        hits += outcome == 0
    # P(outcome 0) = 3/4; allow 4 sigma
    sigma = math.sqrt(0.75 * 0.25 / n)
    assert abs(hits / n - 0.75) < 4 * sigma


def test_measure_alpha_conditional_photon():
    rng = np.random.default_rng(77)
    state = prepare_pair(math.pi / 4, 0)
    seen = set()
    for _ in range(200):
        outcome, collapsed = measure_alpha(state, rng)
        seen.add(outcome)
        alpha, photon = factor_product(collapsed)
        want = pol_ket(0, 0) if outcome == 0 else pol_ket(1, 0)
        assert states_equal_up_to_phase(alpha, QubitState(1, 0) if outcome == 0 else QubitState(0, 1))
        assert states_equal_up_to_phase(photon, want)
    assert seen == {0, 1}


def test_measure_alpha_in_rotated_basis():
    rng = np.random.default_rng(13)
    # product state: outcome statistics depend only on the alpha factor
    alpha = unit_qubit(1, 1)
    state = tensor(alpha, pol_ket(0, 1))
    n = 8000
    ones = sum(measure_alpha_in(state, QubitState(1, 0), rng)[0] for _ in range(n))
    sigma = math.sqrt(0.25 / n)
    assert abs(ones / n - 0.5) < 4 * sigma
    # measuring in the state's own basis is deterministic
    out, collapsed = measure_alpha_in(state, alpha, rng)
    assert out == 0
    assert pairs_equal_up_to_phase(collapsed, state)


def test_measure_in_basis_deterministic_cases():
    rng = np.random.default_rng(1)
    s = unit_qubit(3, 4j)
    assert measure_in_basis(s, s, rng) == 0
    assert measure_in_basis(s, orthogonal(s), rng) == 1


def test_measure_pair_in_state_match_rate():
    rng = np.random.default_rng(31)
    state = prepare_pair(math.pi / 4, 0)
    ref = prepare_pair(0.9, 0)
    p = abs(pair_overlap(ref, state)) ** 2
    assert 0.9 < p < 1.0
    n = 20000
    passes = 0
    for _ in range(n):
        out, collapsed = measure_pair_in_state(state, ref, rng)
        if out == 0:
            passes += 1
            assert pairs_equal_up_to_phase(collapsed, ref)
        else:
            assert abs(pair_overlap(ref, collapsed)) < 1e-9
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(passes / n - p) < 4 * sigma


def test_opposite_value_preparations_are_orthogonal():
    rng = np.random.default_rng(32)
    a = prepare_pair(math.pi / 4, 0)
    b = prepare_pair(math.pi / 4, 1)
    assert abs(pair_overlap(a, b)) < 1e-15
    for _ in range(20):
        out, _ = measure_pair_in_state(a, b, rng)
        assert out == 1


def test_measure_pair_in_state_exact_match():
    rng = np.random.default_rng(4)
    state = prepare_pair(0.3, 1)
    for _ in range(50):
        out, collapsed = measure_pair_in_state(state, state, rng)
        assert out == 0
        assert pairs_equal_up_to_phase(collapsed, state)


def test_fake_register_overlap_with_conditional_states():
    # the two oblique conditional states overlap |x> with prob 2/3 and 1/3
    e_heavy_x = expected_alpha_after_photon(math.pi / 4, 0, 0, 0)
    e_heavy_y = expected_alpha_after_photon(math.pi / 4, 0, 1, 0)
    x = QubitState(1, 0)
    assert abs(overlap(e_heavy_x, x)) ** 2 == pytest.approx(2 / 3, abs=1e-12)
    assert abs(overlap(e_heavy_y, x)) ** 2 == pytest.approx(1 / 3, abs=1e-12)


def test_measurement_does_not_mutate_input():
    rng = np.random.default_rng(9)
    state = prepare_pair(math.pi / 4, 0)
    before = state.amp
    measure_photon(state, 1, rng)
    measure_alpha(state, rng)
    assert state.amp == before


# ---------------------------------------------------------------------------
# memoized transitions against an uncached reference
#
# The reference below repeats each transition's arithmetic step by step and
# builds every state afresh, so a cached result must match it exactly: same
# outcome from an identically seeded generator, ==-equal amplitudes and the
# same number of draws.


def ref_prepare_pair(theta, q):
    k0, k1 = pol_ket(0, q), pol_ket(1, q)
    c, s = math.cos(theta), math.sin(theta)
    return PairState((c * k0.a0, c * k0.a1, s * k1.a0, s * k1.a1))


def ref_alpha_components(state, photon):
    k0, k1 = photon.a0.conjugate(), photon.a1.conjugate()
    return (state.amp[0] * k0 + state.amp[1] * k1, state.amp[2] * k0 + state.amp[3] * k1)


def ref_photon_components(state, alpha):
    b0, b1 = alpha.a0.conjugate(), alpha.a1.conjugate()
    return (b0 * state.amp[0] + b1 * state.amp[2], b0 * state.amp[1] + b1 * state.amp[3])


def ref_measure_photon(state, basis, rng):
    comps = [ref_alpha_components(state, pol_ket(basis, v)) for v in (0, 1)]
    p0, p1 = (abs(ax) ** 2 + abs(ay) ** 2 for ax, ay in comps)
    outcome = 0 if rng.random() * (p0 + p1) < p0 else 1
    return outcome, tensor(unit_qubit(*comps[outcome]), pol_ket(basis, outcome))


def ref_measure_alpha_in(state, basis0, rng):
    basis1 = orthogonal(basis0)
    c0 = ref_photon_components(state, basis0)
    c1 = ref_photon_components(state, basis1)
    p0 = abs(c0[0]) ** 2 + abs(c0[1]) ** 2
    p1 = abs(c1[0]) ** 2 + abs(c1[1]) ** 2
    outcome = 0 if rng.random() * (p0 + p1) < p0 else 1
    vec, comp = (basis0, c0) if outcome == 0 else (basis1, c1)
    return outcome, tensor(vec, unit_qubit(*comp))


def ref_measure_pair_in_state(state, reference, rng):
    ov = sum(r.conjugate() * a for r, a in zip(reference.amp, state.amp))
    if rng.random() < abs(ov) ** 2:
        return 0, reference
    residual = tuple(a - ov * r for a, r in zip(state.amp, reference.amp))
    norm = math.sqrt(sum(abs(z) ** 2 for z in residual))
    if norm < 1e-150:
        return 0, reference
    return 1, PairState(tuple(z / norm for z in residual))


def ref_expected_alpha(theta, q, basis, outcome):
    return unit_qubit(*ref_alpha_components(ref_prepare_pair(theta, q), pol_ket(basis, outcome)))


_component = st.floats(-1.0, 1.0, allow_nan=False)
_theta = st.floats(1e-6, math.pi / 2 - 1e-6)


@st.composite
def _unit_vector(draw, size):
    parts = [complex(draw(_component), draw(_component)) for _ in range(size)]
    norm = math.sqrt(sum(abs(z) ** 2 for z in parts))
    if norm < 1e-3:
        parts, norm = [1.0] + [0.0] * (size - 1), 1.0
    return tuple(z / norm for z in parts)


pair_states = _unit_vector(4).map(PairState)
qubit_states = _unit_vector(2).map(lambda a: QubitState(*a))


def _same_draws(seed, cached, reference):
    """Run both sides from one seed; they must agree and leave the streams level."""
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = cached(rng_a), reference(rng_b)
    assert got == want
    assert rng_a.random() == rng_b.random()
    return got


@settings(max_examples=200, deadline=None)
@given(
    state=pair_states,
    basis0=qubit_states,
    reference=pair_states,
    theta=_theta,
    q=st.integers(0, 1),
    basis=st.integers(0, 1),
    outcome=st.integers(0, 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_memoized_transitions_match_uncached_reference(
    state, basis0, reference, theta, q, basis, outcome, seed
):
    prepared = prepare_pair(theta, q)
    assert prepared == ref_prepare_pair(theta, q)
    assert prepare_pair(theta, q) is prepared
    assert expected_alpha_after_photon(theta, q, basis, outcome) == ref_expected_alpha(
        theta, q, basis, outcome)
    for start in (state, prepared):
        # later seeds hit the cache, often with the other outcome drawn
        for s in (seed, seed + 1, seed + 2, seed):
            first, collapsed = _same_draws(
                s,
                lambda rng: measure_photon(start, basis, rng),
                lambda rng: ref_measure_photon(start, basis, rng))
            _same_draws(
                s,
                lambda rng: measure_alpha_in(start, basis0, rng),
                lambda rng: ref_measure_alpha_in(start, basis0, rng))
            _same_draws(
                s,
                lambda rng: measure_pair_in_state(start, reference, rng),
                lambda rng: ref_measure_pair_in_state(start, reference, rng))
            _same_draws(
                s,
                lambda rng: measure_pair_in_state(start, prepared, rng),
                lambda rng: ref_measure_pair_in_state(start, prepared, rng))
        weights = [abs(ax) ** 2 + abs(ay) ** 2
                   for ax, ay in (ref_alpha_components(start, pol_ket(basis, v)) for v in (0, 1))]
        assert born_probabilities_photon(start, basis) == tuple(w / sum(weights) for w in weights)
        # the collapsed photon has a zero-weight branch; remeasuring it in the
        # same basis must not build that branch
        rng = np.random.default_rng(seed)
        again, recollapsed = measure_photon(collapsed, basis, rng)
        assert again == first
        assert pairs_equal_up_to_phase(recollapsed, collapsed)
        out, _ = measure_alpha_in(collapsed, factor_product(collapsed)[0], rng)
        assert out == 0


_MEMOIZED = {
    "prepare_pair", "expected_alpha_after_photon", "_photon_weights", "_photon_collapse",
    "_alpha_weights", "_alpha_collapse", "_joint_match", "_joint_residual",
}


def test_every_cache_is_bounded():
    cached = {name for name, fn in vars(qstate).items() if hasattr(fn, "cache_info")}
    assert cached == _MEMOIZED
    for name in cached:
        assert getattr(qstate, name).cache_info().maxsize is not None
