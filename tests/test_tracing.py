"""Tests for the protocol tracing subsystem."""

import pytest

from repro.tracing import Tracer

from tests.helpers import inject, make_cluster


class TestTracerUnit:
    def test_record_and_query(self):
        tracer = Tracer()
        tracer.record(1.0, 0, "propose", view=1)
        tracer.record(2.0, 1, "vote", view=1)
        tracer.record(3.0, 0, "commit", height=1)
        assert len(list(tracer.query())) == 3
        proposes = list(tracer.query(kind="propose"))
        assert len(proposes) == 1
        assert proposes[0].details["view"] == 1

    def test_query_filters(self):
        tracer = Tracer()
        for t in range(10):
            tracer.record(float(t), t % 2, "tick")
        assert len(list(tracer.query(node=0))) == 5
        assert len(list(tracer.query(start=5.0))) == 5
        assert len(list(tracer.query(start=2.0, end=4.0))) == 2

    def test_ring_buffer_bounds(self):
        tracer = Tracer(capacity=5)
        for t in range(8):
            tracer.record(float(t), 0, "tick")
        times = [event.time for event in tracer.query()]
        assert times == [3.0, 4.0, 5.0, 6.0, 7.0]

    def test_counts(self):
        tracer = Tracer()
        tracer.record(0.0, 0, "a")
        tracer.record(0.0, 0, "a")
        tracer.record(0.0, 0, "b")
        assert tracer.counts() == {"a": 2, "b": 1}

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestTracerIntegration:
    def test_protocol_events_recorded(self):
        exp = make_cluster(n=4, mempool="stratus")
        tracer = Tracer()
        for replica in exp.replicas:
            replica.tracer = tracer
        inject(exp, 0, count=4)
        exp.sim.run_until(2.0)
        counts = tracer.counts()
        assert counts.get("mb_new", 0) >= 1
        assert counts.get("mb_stable", 0) >= 1
        assert counts.get("propose", 0) >= 1
        assert counts.get("commit", 0) >= 4  # one per replica per block

    def test_tracing_disabled_by_default(self):
        exp = make_cluster(n=4, mempool="stratus")
        inject(exp, 0, count=4)
        exp.sim.run_until(1.0)  # must simply not crash
        assert exp.replicas[0].tracer is None
