"""Contract between the package and the benchmark's outside-in tracer.

`bench/tracer.py` swaps public entry points of the package for wrappers while
a traced batch runs.  This test builds its patch list, which fails if any
name it wraps is gone, and checks that leaving `installed()` puts every
original back.  The counts the benchmark checks (one `create_pair` per pair,
one `replace_alpha` per fabricated register) must hold on a traced run.
"""

import pathlib
import sys

import numpy as np
import pytest

from qbcsim.adversary import make_alice_strategy
from qbcsim.lincode import block_repetition_provider
from qbcsim.protocol import ProtocolParams, execute_run

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracer_module():
    sys.path.insert(0, str(BENCH))
    try:
        import tracer
        yield tracer
    finally:
        sys.path.remove(str(BENCH))
        sys.modules.pop("tracer", None)


def test_tracer_patches_exist_and_are_restored(tracer_module):
    tracer = tracer_module.Tracer()
    patches = tracer._patches()
    targets = {(owner, attr) for owner, attr, _ in patches}
    # every strategy hook the tracer looks for is still defined somewhere
    hooked = {attr for _, attr, _ in patches}
    assert {hook for hook, _ in tracer_module._HOOKS} <= hooked
    originals = {(owner, attr): owner.__dict__[attr] for owner, attr in targets}
    with tracer.installed():
        for owner, attr in targets:
            assert owner.__dict__[attr] is not originals[(owner, attr)]
    for owner, attr in targets:
        assert owner.__dict__[attr] is originals[(owner, attr)]


@pytest.mark.parametrize("alice", ["honest", "fake-unmeasured:2"])
def test_tracer_counts_pairs_hooks_and_fabrications(tracer_module, alice):
    """The tracer's own checks hold on the batched steps: one create_pair per
    pair, one prepare call per run, one replace_alpha per fabricated register."""
    s = 60
    tracer = tracer_module.Tracer()
    with tracer.installed():
        result = execute_run(
            ProtocolParams(s=s, s_prime=12, f_a=0.10, f_b=0.15, f_c=0.05),
            np.random.default_rng(61),
            alice=make_alice_strategy(alice),
            code_provider=block_repetition_provider(8, ratio_d=0.1),
        )
    tracer.fold()
    assert result.commit_accepted
    assert tracer.calls["qstate.create_pair"] == s
    assert tracer.calls["qstate.prepare"] == 1
    fabricated = tracer.counts()["adversary.fabricated_registers"]
    assert fabricated == tracer.calls["qstate.replace_alpha"] == (2 if alice != "honest" else 0)
