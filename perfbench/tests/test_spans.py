import pytest

import spans
from spans import Span, Tracer


def _tree():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping) and [8, 9];
    # the first child has a grandchild [2, 3].
    return [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.x", 2.0, 3.0, parent=1),
        Span("b", 3.0, 6.0, parent=0),
        Span("c", 8.0, 9.0, parent=0),
    ]


def test_self_time_subtracts_union_of_children():
    selfs = spans.self_times(_tree())
    assert selfs == pytest.approx([10.0 - 6.0, 3.0 - 1.0, 1.0, 3.0, 1.0])


def test_self_times_partition_the_root():
    tree = _tree()
    tree[3] = Span("b", 4.0, 6.0, parent=0)  # children no longer overlap
    assert sum(spans.self_times(tree)) == pytest.approx(tree[0].duration)


def test_child_outside_parent_is_clipped():
    tree = [Span("p", 0.0, 2.0), Span("q", 1.5, 5.0, parent=0)]
    assert spans.self_times(tree)[0] == pytest.approx(1.5)


def test_tracer_nests_spans_and_shares_trace_id():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1, counter=lambda a, r: {"n": a["x"]})
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    tid = tracer.new_trace()
    assert outer(3) == 8
    names = [(s.name, s.parent, s.trace_id) for s in tracer.spans]
    assert names == [("outer", None, tid), ("inner", 0, tid)]
    assert tracer.spans[1].counts == {"n": 3}
    assert list(spans.ancestors(tracer.spans, 1)) == [0]


def test_counter_error_is_recorded_not_raised():
    tracer = Tracer()
    traced = tracer.wrap("f", lambda x: x, counter=lambda a, r: {"n": a["missing"]})
    assert traced(1) == 1
    assert tracer.counter_errors == 1 and tracer.spans[0].counts == {}


def test_span_ends_when_call_raises():
    tracer = Tracer()
    traced = tracer.wrap("f", lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        traced()
    assert tracer.spans[0].end >= tracer.spans[0].start
    assert tracer._open == []
