"""Outside-in tracing of qbcsim: spans and counts at each module's boundary.

Nothing in the package is edited.  `Tracer.installed()` swaps the public
entry points of each layer for wrappers for the length of a `with` block and
puts the originals back when it ends, so untraced and traced batches can
alternate in one process.

A span is a list [name, start, end, parent span, child seconds], kept in
memory until `fold()` turns the finished spans into per-name totals.  Each
thread keeps its own stack of open spans, so spans from `run_batch`'s worker
threads nest correctly; their parent is None, not the batch span, because
the batch runs on another thread.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import Counter

from qbcsim import adversary, harness, lincode, protocol, qstate

# Spans are named after the wrapped callable, "<layer>.<function>"; run.py
# sums them into the per-layer metrics.
_PROTOCOL = (
    "execute_run", "alice_commit_prepare", "bob_partition_measure", "bob_announce",
    "alice_detect", "bob_check_commit", "alice_encode_commit", "alice_unveil",
    "bob_verify_unveil",
)
_ENV = (
    "create_pair", "send", "measure_photon", "measure_alpha", "measure_alpha_in",
    "measure_joint", "replace_alpha",
)
_LINCODE = (
    "generate_code", "codewords", "sample_nondegenerate_mask",
    "sample_codeword_with_parity", "is_codeword",
)
_HOOKS = (("prepare", "qstate"), ("pre_encode", "adversary"), ("fake_alpha", "adversary"))


def _strategy_classes():
    todo, seen = [protocol.AliceStrategy], []
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return seen


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.seconds: Counter = Counter()   # span name -> total seconds
        self.self_seconds: Counter = Counter()
        self.calls: Counter = Counter()     # span name -> finished spans
        self.results: list = []             # every RunResult of traced trials
        self.codes: list = []               # (rows, stated distance) per code built
        self._local = threading.local()
        self._counters: list = []
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], Counter())
            with self._lock:
                self._counters.append(state[1])
        return state

    def count(self, name: str, n: int = 1) -> None:
        self._state()[1][name] += n

    def counts(self) -> Counter:
        total: Counter = Counter()
        with self._lock:
            for c in self._counters:
                total.update(c)
        return total

    def wrap(self, name: str, fn, on_result=None):
        spans = self.spans

        def traced(*args, **kwargs):
            stack = self._state()[0]
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, 0.0]
            stack.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                if rec[3] is not None:
                    rec[3][4] += rec[2] - rec[1]
                spans.append(rec)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def busy(self, name: str, fn):
        """Also count the CPU seconds of the calling thread under `name`.

        A span's duration minus this is the time the thread waited: for the
        interpreter lock in a thread pool, or for native worker threads.
        """

        def timed(*args, **kwargs):
            start = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                self.count(name, time.thread_time() - start)

        return timed

    def fold(self) -> None:
        """Move finished spans into the per-name totals; call between batches."""
        spans = list(self.spans)
        self.spans.clear()
        for name, start, end, _parent, child in spans:
            self.seconds[name] += end - start
            self.self_seconds[name] += end - start - child
            self.calls[name] += 1

    # -- installation ------------------------------------------------------

    def _patches(self):
        """(owner, attribute, replacement) for every traced entry point."""
        out = [
            (harness, "run_batch", self.wrap("harness.run_batch", harness.run_batch)),
            (harness, "write_report", self.wrap("harness.write_report", harness.write_report)),
            (adversary, "extract_commit_bit",
             self.wrap("adversary.extract_commit_bit", adversary.extract_commit_bit)),
        ]
        for attr in _PROTOCOL:
            fn = getattr(protocol, attr)
            if attr == "execute_run":
                fn = self.wrap("protocol.execute_run", self.busy("protocol.execute_run", fn),
                               self.results.append)
            else:
                fn = self.wrap(f"protocol.{attr}", fn)
            out.append((protocol, attr, fn))
        env = protocol.RegisterEnvironment
        for attr in _ENV:
            out.append((env, attr, self.wrap(f"qstate.{attr}", env.__dict__[attr])))
        for attr in _LINCODE:
            keep = self._code if attr == "generate_code" else None
            out.append((lincode, attr, self.wrap(f"lincode.{attr}", getattr(lincode, attr), keep)))
        from_rows = lincode.GeneratorMatrix.__dict__["from_rows"].__func__
        out.append((lincode.GeneratorMatrix, "from_rows",
                    classmethod(self.wrap("lincode.from_rows", from_rows, self._code))))
        for cls in _strategy_classes():
            for attr, layer in _HOOKS:
                if attr in cls.__dict__:
                    keep = self._fabricated if attr == "fake_alpha" else None
                    out.append((cls, attr, self.wrap(f"{layer}.{attr}", cls.__dict__[attr], keep)))
        for cls in (qstate.QubitState, qstate.PairState):
            out.append((cls, "__post_init__",
                        self._counting(f"qstate.{cls.__name__}", cls.__dict__["__post_init__"])))
        return out

    def _code(self, code) -> None:
        self.codes.append((code.rows, code.verified_min_distance))

    def _fabricated(self, register) -> None:
        if register is not None:
            self.count("adversary.fabricated_registers")

    def _counting(self, name: str, fn):
        def counted(obj):
            self.count(name)
            fn(obj)

        return counted

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, replacement in self._patches():
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
