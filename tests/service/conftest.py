"""Shared helpers of the serving-layer tests."""

import threading

import pytest

from repro.core.engine import TagMatch


class GatedEngine:
    """Wraps an engine's ``match_stream``: records each run's size, holds
    the first run until :meth:`open`, and can fail chosen runs."""

    def __init__(self, engine: TagMatch, fail_runs: tuple[int, ...] = ()) -> None:
        self.sizes: list[int] = []
        self._gate = threading.Event()
        self._fail_runs = fail_runs
        self._inner = engine.match_stream
        engine.match_stream = self._match_stream

    def _match_stream(self, blocks, **kwargs):
        run_no = len(self.sizes)
        self.sizes.append(len(blocks))
        if run_no == 0:
            self._gate.wait(timeout=10)
        if run_no in self._fail_runs:
            raise RuntimeError("injected kernel fault")
        return self._inner(blocks, **kwargs)

    def open(self) -> None:
        self._gate.set()


@pytest.fixture
def gated():
    """Factory fixture: ``gated(engine, fail_runs=())`` returns a
    :class:`GatedEngine` around ``engine``, so a test can hold a run open
    and queue publishes behind it deterministically."""
    return GatedEngine
