"""Tests for time-window policy and expiry queue."""

import pytest

from repro.graph.window import ExpiryQueue, TimeWindow


class TestTimeWindow:
    def test_unbounded_window_admits_everything(self):
        window = TimeWindow(None)
        assert not window.bounded
        assert window.admits_span(1e12)
        assert not window.is_expired(0.0, 1e12)
        assert window.expiry_threshold(100.0) == float("-inf")

    def test_window_excludes_exact_duration(self):
        window = TimeWindow(10.0)
        assert window.admits_span(9.999)
        assert not window.admits_span(10.0)
        assert not window.admits_span(10.1)

    def test_admits_interval(self):
        window = TimeWindow(5.0)
        assert window.admits_interval(0.0, 4.0)
        assert not window.admits_interval(0.0, 5.0)

    def test_is_expired_at_the_threshold(self):
        window = TimeWindow(10.0)
        assert not window.is_expired(5.0, 14.0)
        assert window.is_expired(5.0, 15.0)
        assert window.is_expired(5.0, 16.0)

    def test_expiry_threshold(self):
        assert TimeWindow(10.0).expiry_threshold(25.0) == pytest.approx(15.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            TimeWindow(-1.0)

    def test_zero_duration_admits_nothing_but_instants(self):
        window = TimeWindow(0.0)
        assert not window.admits_span(0.0)

    def test_equality_and_hash(self):
        assert TimeWindow(5.0) == TimeWindow(5.0)
        assert TimeWindow(5.0) != TimeWindow(6.0)
        assert hash(TimeWindow(5.0)) == hash(TimeWindow(5.0))
        assert TimeWindow(None) == TimeWindow(None)


class TestExpiryQueue:
    def test_pop_expired_at_returns_items_at_or_below_the_threshold(self):
        queue = ExpiryQueue()
        queue.push(1.0, "a")
        queue.push(3.0, "b")
        queue.push(5.0, "c")
        # at clock 5 a 2-unit window expires everything stamped 3 or earlier
        assert queue.pop_expired_at(TimeWindow(2.0), 5.0) == ["a", "b"]
        assert len(queue) == 1

    def test_pop_expired_at_keeps_everything_under_an_unbounded_window(self):
        queue = ExpiryQueue()
        queue.push(1.0, "a")
        assert queue.pop_expired_at(TimeWindow(None), 1e12) == []
        assert len(queue) == 1

    def test_pop_expired_at_empty_below_threshold(self):
        queue = ExpiryQueue()
        queue.push(10.0, "x")
        assert queue.pop_expired_at(TimeWindow(5.0), 10.0) == []
        assert len(queue) == 1

    def test_order_is_timestamp_then_insertion(self):
        queue = ExpiryQueue()
        queue.push(2.0, "second")
        queue.push(1.0, "first")
        queue.push(2.0, "third")
        assert queue.pop_expired_at(TimeWindow(1.0), 11.0) == ["first", "second", "third"]

    def test_push_all_and_peek(self):
        queue = ExpiryQueue()
        queue.push_all([(4.0, "x"), (2.0, "y")])
        assert queue.peek_oldest() == (2.0, "y")
        assert len(queue) == 2

    def test_peek_empty(self):
        assert ExpiryQueue().peek_oldest() is None

    def test_bool(self):
        queue = ExpiryQueue()
        assert not queue
        queue.push(1.0, "a")
        assert queue
