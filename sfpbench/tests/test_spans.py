"""The self-time arithmetic and the span wrappers."""

import threading
import time

import pytest

from sfpbench.spans import Span, Tracer, covered_length, install, self_times


def span(name, start, end, parent=None):
    s = Span(name, start, parent)
    s.end = end
    return s


def test_covered_length_merges_overlaps_once():
    assert covered_length([]) == 0.0
    assert covered_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert covered_length([(0.0, 2.0), (1.0, 3.0)]) == 3.0
    assert covered_length([(0.0, 4.0), (1.0, 2.0)]) == 4.0
    assert covered_length([(2.0, 1.0)]) == 0.0


def test_nested_children_leave_each_level_its_own_time():
    root = span("a", 0.0, 10.0)
    child = span("b", 2.0, 5.0, root)
    grandchild = span("c", 3.0, 4.0, child)
    assert self_times([root, child, grandchild]) == {"a": 7.0, "b": 2.0, "c": 1.0}


def test_overlapping_children_are_subtracted_once():
    root = span("a", 0.0, 10.0)
    kids = [span("b", 1.0, 5.0, root), span("b", 3.0, 7.0, root)]
    times = self_times([root, *kids])
    assert times["a"] == pytest.approx(4.0)
    assert times["b"] == pytest.approx(8.0)


def test_child_outside_its_parent_is_clipped():
    root = span("a", 0.0, 4.0)
    late = span("b", 3.0, 6.0, root)
    assert self_times([root, late])["a"] == pytest.approx(3.0)


def test_child_on_another_thread_counts_against_its_parent():
    tracer = Tracer()
    with tracer.span("request") as root:
        def work():
            with tracer.span("worker", parent=root):
                with tracer.span("inner"):
                    time.sleep(0.02)
                time.sleep(0.01)

        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        time.sleep(0.01)
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["worker"].parent is root
    assert by_name["inner"].parent is by_name["worker"]
    times = self_times(tracer.spans)
    assert times["request"] == pytest.approx(
        root.duration - by_name["worker"].duration
    )
    assert times["inner"] >= 0.02
    assert sum(times.values()) == pytest.approx(root.duration)


def test_wrappers_link_the_frontend_handoff_and_come_off_again():
    from repro.core.spec import SFC
    from repro.fabric import FabricOrchestrator, FabricTopology
    from repro.frontend import FrontendClient, ShardWorkerPool
    from repro.frontend.workers import ShardWorker

    fabric = FabricOrchestrator(
        FabricTopology.full_mesh(2), num_types=3, with_dataplane=True
    )
    pool = ShardWorkerPool(fabric).start()
    original = ShardWorker.execute
    tracer = Tracer()
    install(tracer, frontend=True)
    try:
        client = FrontendClient(pool)
        chain = SFC(name="t", nf_types=(1, 2), rules=(2, 2),
                    bandwidth_gbps=1.0, tenant_id=7)
        assert client.admit(chain).ok
        assert client.evict(7).ok
    finally:
        tracer.uninstall()
        pool.stop(timeout=10)
    assert ShardWorker.execute is original
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["frontend.server"] * 2
    names = {s.name for s in tracer.spans}
    assert {"frontend.queue_wait", "frontend.execute", "fabric.admit_local",
            "controller.op", "dataplane.runtime_write"} <= names
    for s in tracer.spans:
        if s.name == "frontend.execute":
            assert s.parent in roots
    times = self_times(tracer.spans)
    assert all(t >= 0 for t in times.values())
    assert sum(times.values()) == pytest.approx(sum(r.duration for r in roots))
