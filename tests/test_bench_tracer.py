"""Contract between the package and the benchmark's outside-in tracer.

`bench/tracer.py` swaps public entry points of the package for wrappers while
a traced batch runs.  This test builds its patch list, which fails if any
name it wraps is gone, and checks that leaving `installed()` puts every
original back.
"""

import pathlib
import sys

import pytest

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
