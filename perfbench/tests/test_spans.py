"""Span recording: self time, failure counts, restoring wrapped names and
skipping names that no longer exist.

Run with ``python3 -m pytest perfbench/tests``.
"""

import os
import sys
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import spans  # noqa: E402


class FakeClock:
    """A ``perf_counter`` that moves only when a fake layer says it worked."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    # installed before any wrapper is built, since a wrapper keeps the
    # perf_counter it was built with
    fake = FakeClock()
    monkeypatch.setattr(spans.time, "perf_counter", fake)
    return fake


@pytest.fixture
def fake_module(monkeypatch, clock):
    mod = types.ModuleType("fake_layers")

    class Boom(Exception):
        pass

    class Thing:
        def method(self):
            return "m"

    def leaf(seconds):
        clock.advance(seconds)
        return seconds

    def fails():
        raise Boom()

    def outer():
        clock.advance(0.25)
        mod.leaf(0.5)
        mod.leaf(0.125)
        return Thing().method()

    mod.Boom, mod.Thing, mod.leaf, mod.fails, mod.outer = Boom, Thing, leaf, fails, outer
    monkeypatch.setitem(sys.modules, "fake_layers", mod)
    return mod


def test_self_time_excludes_children(fake_module):
    tracer = spans.Tracer()
    targets = [
        spans.Target("outer", "fake_layers", "outer", replication=True),
        spans.Target("leaf", "fake_layers", "leaf"),
        spans.Target("method", "fake_layers", "Thing.method"),
    ]
    with spans.installed(tracer, targets):
        assert fake_module.outer() == "m"
    own = tracer.self_times()
    assert own["leaf"][0] == 2 and own["outer"][0] == 1 and own["method"][0] == 1
    # the durations are sums of powers of two, so the self times are exact
    assert own["leaf"][1] == 0.625
    assert own["outer"][1] == 0.25
    assert own["method"][1] == 0.0
    assert list(own["leaf"][2]) == [0.5, 0.125]
    assert tracer.end[0] - tracer.start[0] == 0.875
    assert list(tracer.rep) == [0, 0, 0, 0]


def test_names_are_restored_and_failures_counted(fake_module):
    originals = (fake_module.leaf, fake_module.fails, fake_module.Thing.method)
    tracer = spans.Tracer()
    targets = [
        spans.Target("fails", "fake_layers", "fails", failure="fake_layers:Boom"),
        spans.Target("leaf", "fake_layers", "leaf"),
        spans.Target("method", "fake_layers", "Thing.method"),
    ]
    with spans.installed(tracer, targets):
        assert fake_module.leaf is not originals[0]
        with pytest.raises(fake_module.Boom):
            fake_module.fails()
    assert (fake_module.leaf, fake_module.fails, fake_module.Thing.method) == originals
    assert tracer.failures["fails"] == 1
    assert tracer.self_times()["fails"][0] == 1


def test_missing_targets_are_skipped_and_listed(fake_module):
    targets = [
        spans.Target("gone", "fake_layers", "_private_that_was_removed"),
        spans.Target("gone_class", "fake_layers", "Missing.method"),
        spans.Target("gone_module", "fake_layers_removed", "leaf"),
        spans.Target("leaf", "fake_layers", "leaf"),
    ]
    assert spans.find_missing(targets) == [
        "fake_layers._private_that_was_removed",
        "fake_layers.Missing.method",
        "fake_layers_removed.leaf",
    ]
    tracer = spans.Tracer()
    with spans.installed(tracer, targets):
        fake_module.leaf(0.0)
    assert tracer.self_times()["leaf"][0] == 1
    assert "gone" not in tracer.layers
