"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import numpy as np
import pytest

from harness import poisson_schedule, self_time, tail_percentile, union_length
from tracer import SpanSet, Tracer, flat_spans


class TestTailPercentile:
    def test_p99_when_ten_samples_lie_beyond_it(self):
        samples = list(range(1, 1001))          # 1000 samples: p99 leaves 10 above
        pct, value = tail_percentile(samples)
        assert pct == 99.0
        assert value == 990
        assert sum(1 for s in samples if s > value) == 10

    def test_falls_back_to_highest_percentile_with_ten_beyond(self):
        samples = list(range(1, 101))           # p99 would leave only 1 above
        pct, value = tail_percentile(samples)
        assert pct == 90.0
        assert value == 90
        assert sum(1 for s in samples if s > value) == 10

    def test_never_reports_a_tail_below_the_median(self):
        samples = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert tail_percentile(samples) == (50.0, 3.0)

    def test_rejects_no_samples(self):
        with pytest.raises(ValueError):
            tail_percentile([])


class TestSpanArithmetic:
    def test_union_merges_overlaps_and_skips_empty(self):
        assert union_length([(0, 10), (5, 15), (20, 25), (30, 30)]) == 20

    def test_self_time_subtracts_union_of_clipped_children(self):
        # parent 0..100; children overlap each other and one sticks out.
        assert self_time(0, 100, [(10, 30), (20, 40), (90, 120)]) == 100 - 30 - 10

    def test_self_time_without_children_is_duration(self):
        assert self_time(5, 17, []) == 12

    def test_spanset_self_share_and_residual(self):
        spans = [
            {"name": "root", "start": 0, "end": 100, "parent": None, "rid": 1,
             "tid": 1, "extra": None},
            {"name": "child", "start": 10, "end": 70, "parent": 0, "rid": 1,
             "tid": 1, "extra": None},
        ]
        window = SpanSet(spans, 0, 200)
        assert window.self_share({"root"}) == pytest.approx(40 / 100)
        assert window.residual_share() == pytest.approx(0.5)
        assert window.busy_ns("child") == 60

    def test_outermost_category_is_counted_once(self):
        spans = [
            {"name": "device.weighted_tag_sum", "start": 0, "end": 50, "parent": None,
             "rid": 1, "tid": 1, "extra": None},
            {"name": "limb_field.field_dot", "start": 10, "end": 40, "parent": 0,
             "rid": 1, "tid": 1, "extra": None},
            {"name": "limb_field.field_dot", "start": 60, "end": 70, "parent": None,
             "rid": 2, "tid": 1, "extra": None},
        ]
        cats = SpanSet(spans, 0, 100).category_ns()
        assert cats == {"device": 50, "verify": 10}


class TestTracer:
    def test_wrapper_records_parent_links_and_restores(self):
        class Thing:
            def outer(self):
                return self.inner() + 1

            def inner(self):
                return 41

        thing = Thing()
        tracer = Tracer()
        tracer.wrap(thing, "outer", "outer")
        tracer.wrap(thing, "inner", "inner")
        assert thing.outer() == 42
        spans = flat_spans(tracer.spans)
        assert [s["name"] for s in spans] == ["outer", "inner"]
        assert spans[1]["parent"] == 0
        assert spans[0]["rid"] == spans[1]["rid"]
        tracer.uninstall()
        assert "outer" not in vars(thing) and "inner" not in vars(thing)


class TestSchedule:
    def test_same_seed_same_schedule(self):
        a = poisson_schedule(7, 120.0, 1.5, 16.5)
        b = poisson_schedule(7, 120.0, 1.5, 16.5)
        assert np.array_equal(a, b)

    def test_other_seed_other_schedule_same_count(self):
        a = poisson_schedule(7, 120.0, 1.5, 16.5)
        b = poisson_schedule(8, 120.0, 1.5, 16.5)
        assert len(a) == len(b) == 1800
        assert not np.array_equal(a, b)

    def test_arrivals_sorted_inside_the_interval(self):
        a = poisson_schedule(3, 50.0, 2.0, 4.0)
        assert np.all(np.diff(a) >= 0)
        assert a[0] >= 2.0 and a[-1] < 4.0
