"""The environment's batch sweeps against the per-index loop they replace.

A batch must give the same outcomes, collapsed states, measured flags and
transcript events as the per-index calls, and leave the generator in the same
state, including a sweep that stops at its first failed check.  It must
refuse a breach before it draws or changes anything.  The numpy facts the
batches rest on are pinned at the bottom.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbcsim.protocol import (
    ALICE,
    BOB,
    EnvironmentBreach,
    ProtocolError,
    RegisterEnvironment,
    Transcript,
)
from qbcsim.qstate import (
    KET_X,
    KET_Y,
    PairState,
    expected_alpha_after_photon,
    pol_ket,
    prepare_pair,
    tensor,
    unit_qubit,
)

# Shared objects repeat within a sweep (as cached preparations do in a run);
# the fresh copy is equal to the first state but is a different object.
POOL = (
    *(prepare_pair(t, q) for t in (math.pi / 4, 0.3, 1.2) for q in (0, 1)),
    tensor(KET_X, pol_ket(0, 1)),
    tensor(unit_qubit(0.6, 0.8), pol_ket(1, 0)),
    PairState(prepare_pair(math.pi / 4, 0).amp),
)
REGISTER_BASES = (
    KET_X,
    KET_Y,
    unit_qubit(0.6, 0.8j),
    expected_alpha_after_photon(math.pi / 4, 0, 0, 0),
    expected_alpha_after_photon(0.3, 1, 1, 0),
)
KINDS = ("photon", "alpha", "alpha-in", "joint", "random-bases")
# subsystems each kind acts on, for the breach test
NEEDS = {"photon": ("photon",), "random-bases": ("photon",), "alpha": ("alpha",),
         "alpha-in": ("alpha",), "joint": ("alpha", "photon")}


@st.composite
def sweeps(draw, kind, min_indices=0):
    n = draw(st.integers(1, 8))
    picks = draw(st.lists(st.integers(0, len(POOL) - 1), min_size=n, max_size=n))
    # repeats included: a second visit sees the state the first one left
    indices = draw(st.lists(st.integers(0, n - 1), min_size=min_indices, max_size=12))
    if kind in ("photon", "random-bases"):
        keys = draw(st.lists(st.integers(0, 1), min_size=len(indices), max_size=len(indices)))
    elif kind == "alpha-in":
        keys = [REGISTER_BASES[k] for k in draw(st.lists(
            st.integers(0, len(REGISTER_BASES) - 1), min_size=len(indices),
            max_size=len(indices)))]
    elif kind == "joint":
        keys = [POOL[k] for k in draw(st.lists(
            st.integers(0, len(POOL) - 1), min_size=len(indices), max_size=len(indices)))]
    else:
        keys = [None] * len(indices)
    expect = None
    if kind != "random-bases" and draw(st.booleans()):
        expect = draw(st.lists(st.integers(0, 1), min_size=len(indices),
                               max_size=len(indices)))
    return picks, indices, keys, expect


def _env(picks, recording, breach=None, subsystems=()):
    """Bob holds every pair, except `subsystems` of pair `breach` stay with Alice."""
    env = RegisterEnvironment(Transcript(recording))
    for i, k in enumerate(picks):
        env.create_pair(i, POOL[k], ALICE)
        for subsystem in ("alpha", "photon"):
            if not (i == breach and subsystem in subsystems):
                env.send(i, subsystem, ALICE, BOB)
    return env


def _rng(seed, spare):
    rng = np.random.default_rng(seed)
    if spare:  # one bit drawn: PCG64 keeps the other half of its word
        rng.integers(0, 2)
    return rng


def _per_index(env, kind, indices, keys, rng, expect):
    outcomes, bases = [], []
    for j, i in enumerate(indices):
        if kind == "photon":
            outcome = env.measure_photon(i, BOB, keys[j], rng)
        elif kind == "random-bases":
            bases.append(int(rng.integers(0, 2)))
            outcome = env.measure_photon(i, BOB, bases[-1], rng)
        elif kind == "alpha":
            outcome = env.measure_alpha(i, BOB, rng)
        elif kind == "alpha-in":
            outcome = env.measure_alpha_in(i, BOB, keys[j], rng)
        else:
            outcome = env.measure_joint(i, BOB, keys[j], rng)
        outcomes.append(outcome)
        if expect is not None and outcome != expect[j]:
            break
    return (bases, outcomes) if kind == "random-bases" else outcomes


def _batch(env, kind, indices, keys, rng, expect):
    if kind == "photon":
        return env.measure_photons(indices, BOB, keys, rng, expect=expect)
    if kind == "random-bases":
        return env.measure_photons_in_random_bases(indices, BOB, rng)
    if kind == "alpha":
        return env.measure_alphas(indices, BOB, rng, expect=expect)
    if kind == "alpha-in":
        return env.measure_alphas(indices, BOB, rng, bases0=keys, expect=expect)
    return env.measure_joints(indices, BOB, keys, rng, expect=expect)


def _snapshot(env, n, rng):
    return (
        [env.state(i) for i in range(n)],
        [env.photon_measured(i) for i in range(n)],
        [env.alpha_measured(i) for i in range(n)],
        [dict(e) for e in env.transcript.events],
        rng.bit_generator.state,
    )


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=120, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), spare=st.booleans(),
       recording=st.booleans())
def test_batch_sweep_matches_per_index_loop(kind, data, seed, spare, recording):
    picks, indices, keys, expect = data.draw(sweeps(kind))
    loop_env, batch_env = _env(picks, recording), _env(picks, recording)
    loop_rng, batch_rng = _rng(seed, spare), _rng(seed, spare)
    expected = _per_index(loop_env, kind, indices, keys, loop_rng, expect)
    assert _batch(batch_env, kind, indices, keys, batch_rng, expect) == expected
    # states, flags, events and the generator, which later draws continue from
    assert _snapshot(batch_env, len(picks), batch_rng) == \
        _snapshot(loop_env, len(picks), loop_rng)


def test_early_stop_leaves_the_generator_where_the_loop_stops():
    # |x>|0deg> tested against |y>: the first measurement fails for certain
    picks = [6, 0, 0, 0]
    env = _env(picks, False)
    rng = np.random.default_rng(5)
    reference = np.random.default_rng(5)
    outcomes = env.measure_alphas([0, 1, 2, 3], BOB, rng, bases0=[KET_Y] * 4, expect=[0] * 4)
    assert outcomes == [1]
    reference.random()
    assert rng.bit_generator.state == reference.bit_generator.state
    assert [env.alpha_measured(i) for i in range(4)] == [True, False, False, False]
    assert env.state(1) is POOL[0]


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), spare=st.booleans())
def test_batch_breach_raises_before_any_draw_or_change(kind, data, seed, spare):
    picks, indices, keys, expect = data.draw(sweeps(kind, min_indices=1))
    breach = data.draw(st.sampled_from(indices))
    env = _env(picks, True, breach=breach, subsystems=(data.draw(st.sampled_from(NEEDS[kind])),))
    rng = _rng(seed, spare)
    before = _snapshot(env, len(picks), rng)
    with pytest.raises(EnvironmentBreach):
        _batch(env, kind, indices, keys, rng, expect)
    assert _snapshot(env, len(picks), rng) == before
    with pytest.raises(ProtocolError):
        _batch(env, kind, [len(picks)], keys[:1], rng, None)
    assert _snapshot(env, len(picks), rng) == before


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), data=st.data(), recording=st.booleans())
def test_send_many_matches_per_index_sends(n, data, recording):
    indices = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    loop_env, batch_env = RegisterEnvironment(Transcript(recording)), \
        RegisterEnvironment(Transcript(recording))
    for i in range(n):
        loop_env.create_pair(i, POOL[0], ALICE)
        loop_env.send(i, "photon", ALICE, BOB)
        batch_env.create_pair(i, POOL[0], ALICE, photon_to=BOB)
    assert batch_env.transcript.events == loop_env.transcript.events
    for i in indices:
        loop_env.send(i, "alpha", ALICE, BOB)
    batch_env.send_many(indices, "alpha", ALICE, BOB)
    assert batch_env._owner == loop_env._owner
    assert batch_env.transcript.events == loop_env.transcript.events
    if indices:  # a second hand-over is a breach and changes nothing
        with pytest.raises(EnvironmentBreach):
            batch_env.send_many(list(range(n)), "alpha", ALICE, BOB)
        assert batch_env._owner == loop_env._owner
        assert batch_env.transcript.events == loop_env.transcript.events


def test_pairs_are_created_in_index_order():
    env = RegisterEnvironment()
    env.create_pair(0, POOL[0], ALICE)
    with pytest.raises(ProtocolError):
        env.create_pair(2, POOL[0], ALICE)
    with pytest.raises(ProtocolError):
        env.create_pair(0, POOL[0], ALICE)
    with pytest.raises(ProtocolError):
        env.send(-1, "photon", ALICE, BOB)
    with pytest.raises(ProtocolError):
        env.send_many([0], "spin", ALICE, BOB)


# ---------------------------------------------------------------------------
# the numpy facts behind the batches: a block of n draws is n single draws.
# PCG64 serves a 32-bit draw from half of a 64-bit word and keeps the other
# half for the next one; both cases of that spare half are covered.


@pytest.mark.parametrize("spare", [False, True])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 64, 2001])
def test_block_of_bits_equals_single_bits(n, spare):
    for seed in range(5):
        block, single = _rng(seed, spare), _rng(seed, spare)
        assert block.bit_generator.state["has_uint32"] == int(spare)
        assert block.integers(0, 2, size=n).tolist() == \
            [int(single.integers(0, 2)) for _ in range(n)]
        assert block.bit_generator.state == single.bit_generator.state


@pytest.mark.parametrize("spare", [False, True])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 64, 2001])
def test_block_of_doubles_equals_single_doubles(n, spare):
    for seed in range(5):
        block, single = _rng(seed, spare), _rng(seed, spare)
        assert block.bit_generator.state["has_uint32"] == int(spare)
        assert block.random(n).tolist() == [single.random() for _ in range(n)]
        assert block.bit_generator.state == single.bit_generator.state
