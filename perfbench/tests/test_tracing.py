import types

import pytest

from tracing import Span, Tracer, self_times, totals


def test_self_time_subtracts_nested_children():
    spans = [
        Span("job", 0.0, 10.0),
        Span("run", 1.0, 9.0, parent=0),
        Span("mv", 2.0, 4.0, parent=1),
        Span("mv", 5.0, 6.0, parent=1),
        Span("count", 5.5, 5.75, parent=3),
    ]
    assert self_times(spans) == pytest.approx([2.0, 5.0, 2.0, 0.75, 0.25])
    rows = totals(spans)
    assert rows["mv"]["calls"] == 2
    assert rows["mv"]["s"] == pytest.approx(3.0)
    assert rows["mv"]["self_s"] == pytest.approx(2.75)


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("parent", 0.0, 4.0),
        Span("a", 1.0, 3.0, parent=0),
        Span("b", 2.0, 5.0, parent=0),  # overlaps a and outlives parent
    ]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_wrappers_nest_and_uninstall():
    module = types.SimpleNamespace()
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    tracer = Tracer()
    tracer.wrap(module, "inner", "inner")
    tracer.wrap(module, "outer", "outer", value=lambda result, x: result)
    assert module.outer(3) == 8
    outer, inner = tracer.spans
    assert (outer.name, inner.name) == ("outer", "inner")
    assert inner.parent == 0 and inner.trace == outer.trace == 0
    assert outer.value == 8
    assert outer.start <= inner.start <= inner.end <= outer.end
    tracer.uninstall()
    assert module.outer(3) == 8
    assert len(tracer.spans) == 2


def test_span_records_end_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    traced = tracer.traced("boom", boom)
    with pytest.raises(KeyError):
        traced()
    assert tracer.spans[0].end >= tracer.spans[0].start > 0.0
