"""Tests for the resident query service (catalog, plan cache, scheduler,
streaming) — the acceptance criteria of the service subsystem:

* the service returns byte-identical match sets to one-shot
  :func:`~repro.engine.benu.run_benu` for every bundled pattern;
* a plan-cache hit skips plan search (asserted via telemetry counters);
* deadline-expired and cancelled queries release their scheduler slot
  and report a typed status;
* admission control rejects beyond-budget submissions without affecting
  in-flight queries.
"""

import json
import sys
import time

import pytest

from repro.engine.benu import count_subgraphs, run_benu
from repro.engine.config import BenuConfig
from repro.engine.control import (
    DeadlineExpired,
    ExecutionControl,
    QueryCancelled,
)
from repro.graph.datasets import load_dataset
from repro.graph.generators import chung_lu, erdos_renyi
from repro.graph.graph import Graph, complete_graph
from repro.graph.order import relabel_by_degree_order
from repro.graph.patterns import PATTERNS, get_pattern
from repro.service import (
    AdmissionError,
    BenuService,
    GraphCatalog,
    InvalidQueryError,
    QueryStatus,
    ServiceClosedError,
    UnknownGraphError,
    UnknownQueryError,
)
from repro.telemetry.events import EV_PLAN_RESOLVED, EV_SLOW_QUERY
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.snapshot import (
    M_CATALOG_EVICTIONS,
    M_PLAN_CACHE_HITS,
    M_PLAN_CACHE_MISSES,
    M_SERVICE_REJECTED,
)


@pytest.fixture(scope="module")
def workload():
    """A scaled-down Table-I-style workload (same Chung-Lu family as the
    bundled stand-ins, small enough for a full pattern sweep)."""
    g, _ = relabel_by_degree_order(chung_lu(250, 5.0, exponent=2.4, seed=23))
    return g


def _match_bytes(matches):
    """Render a match set to bytes, order-independently."""
    return b"\n".join(repr(m).encode("ascii") for m in sorted(matches))


def _blocked_query(service, pattern="triangle", graph="g", **kwargs):
    """Submit a streaming query and wait until its producer is blocked on
    a full buffer — it then occupies its scheduler slot until drained,
    cancelled or expired."""
    handle = service.submit(pattern, graph, **kwargs)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if handle.buffer._queue.full():
            return handle
        if handle.done:
            raise AssertionError(
                f"query finished before blocking (status {handle.status})"
            )
        time.sleep(0.002)
    raise AssertionError("producer never blocked")


def _wait_idle(service, timeout=10.0):
    """Wait for every scheduler slot to be released (the handle finishes
    a moment before the worker thread returns its slot)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if service.scheduler.running == 0 and service.scheduler.queued == 0:
            return
        time.sleep(0.002)
    raise AssertionError("scheduler never went idle")


class TestEquivalence:
    """Service results are byte-identical to one-shot run_benu."""

    @pytest.fixture(scope="class")
    def service(self, workload):
        with BenuService(config=BenuConfig(num_workers=2)) as service:
            service.register_graph("g", workload, relabel=False)
            yield service

    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_every_bundled_pattern(self, name, service, workload):
        reference = run_benu(
            get_pattern(name),
            workload,
            BenuConfig(num_workers=2, collect=True, relabel=False),
        )
        handle = service.submit(name, "g")
        streamed = list(handle.matches())
        assert handle.status is QueryStatus.SUCCEEDED
        assert len(streamed) == reference.count
        assert _match_bytes(streamed) == _match_bytes(reference.matches)

    def test_count_query_matches_reference(self, service, workload):
        reference = run_benu(
            get_pattern("q4"), workload, BenuConfig(relabel=False)
        )
        handle = service.submit("q4", "g", stream=False)
        assert handle.result(timeout=60).count == reference.count

    def test_compressed_count_query(self, service, workload):
        config = BenuConfig(num_workers=2, compressed=True)
        handle = service.submit("q1", "g", config=config, stream=False)
        reference = run_benu(
            get_pattern("q1"),
            workload,
            BenuConfig(num_workers=2, compressed=True, relabel=False),
        )
        # Compressed runs count VCBC codes, not expanded embeddings.
        assert handle.result(timeout=60).count == reference.count

    def test_as_sim_table1_spot_check(self):
        """The actual Table-I stand-in dataset, with a fast pattern."""
        data = load_dataset("as_sim")
        with BenuService(config=BenuConfig(num_workers=2)) as service:
            service.register_graph("as", data, relabel=False)
            handle = service.submit("triangle", "as")
            streamed = list(handle.matches())
        reference = run_benu(
            get_pattern("triangle"),
            data,
            BenuConfig(num_workers=2, collect=True, relabel=False),
        )
        assert _match_bytes(streamed) == _match_bytes(reference.matches)

    def test_relabeled_registration_translates_ids(self, workload):
        """Graphs registered with relabel=True stream original ids."""
        scrambled = Graph(
            (u * 13 + 5, v * 13 + 5) for u, v in workload.edges()
        )
        with BenuService() as service:
            service.register_graph("s", scrambled, relabel=True)
            handle = service.submit("triangle", "s")
            streamed = list(handle.matches())
        reference = run_benu(
            get_pattern("triangle"),
            scrambled,
            BenuConfig(collect=True, relabel=True),
        )
        assert _match_bytes(streamed) == _match_bytes(reference.matches)


class TestPlanCache:
    def test_exact_hit_skips_search(self, workload):
        with BenuService() as service:
            service.register_graph("g", workload, relabel=False)
            first = list(service.submit("q4", "g").matches())
            second = list(service.submit("q4", "g").matches())
            registry = service.registry
            assert registry.counter_total(M_PLAN_CACHE_MISSES) == 1
            assert registry.get(M_PLAN_CACHE_HITS).value(kind="exact") == 1
            assert _match_bytes(first) == _match_bytes(second)

    def test_isomorphic_hit_same_match_set(self, workload):
        """A relabeled twin pattern skips Algorithm 3 yet produces the
        byte-identical match set a full search would have (the match set
        is fixed by the pattern's symmetry-breaking conditions, which do
        not depend on the matching order)."""
        square = Graph([(1, 2), (2, 3), (3, 4), (4, 1)])
        twin = Graph([(9, 5), (5, 8), (8, 7), (7, 9)])
        with BenuService() as service:
            service.register_graph("g", workload, relabel=False)
            first = list(service.submit(square, "g").matches())
            second = list(service.submit(twin, "g").matches())
            registry = service.registry
            assert registry.counter_total(M_PLAN_CACHE_MISSES) == 1
            assert (
                registry.get(M_PLAN_CACHE_HITS).value(kind="isomorphic")
                == 1
            )
        assert len(first) > 0
        # The cache-hit run is byte-identical to a from-scratch run of
        # the twin labeling (which would have paid the full plan search).
        reference = run_benu(
            twin, workload, BenuConfig(collect=True, relabel=False)
        )
        assert _match_bytes(second) == _match_bytes(reference.matches)
        # And both labelings enumerate the same subgraphs exactly once.
        assert {frozenset(m) for m in first} == {frozenset(m) for m in second}
        assert len(first) == len(second)

    def test_plan_relevant_config_fields_key_the_cache(self, workload):
        with BenuService() as service:
            service.register_graph("g", workload, relabel=False)
            service.submit("triangle", "g").wait(30)
            level0 = BenuConfig(optimization_level=0)
            service.submit("triangle", "g", config=level0).wait(30)
            assert service.plan_cache.misses == 2
            # Fields that do not shape the plan (e.g. workers) hit.
            more_workers = BenuConfig(num_workers=2)
            service.submit("triangle", "g", config=more_workers).wait(30)
            assert service.plan_cache.misses == 2
            assert service.plan_cache.hits == 1

    def test_distinct_patterns_do_not_collide(self, workload):
        with BenuService() as service:
            service.register_graph("g", workload, relabel=False)
            tri = list(service.submit("triangle", "g").matches())
            sq = list(service.submit("square", "g").matches())
            assert service.plan_cache.misses == 2
            assert service.plan_cache.hits == 0
            assert {len(m) for m in tri} == {3}
            assert {len(m) for m in sq} == {4}


def _star_plus_edge():
    """A 6-vertex star on 0..5 with its leaves 1 and 2 joined: one triangle."""
    return Graph([(0, v) for v in range(1, 6)] + [(1, 2)])


def _plan_order(service, handle):
    (resolved,) = service.events.events(
        type=EV_PLAN_RESOLVED, query_id=handle.query_id
    )
    return resolved.fields["order"]


class TestReplacedGraph:
    """A graph replaced under its name runs on its own pools and order."""

    @pytest.mark.parametrize("relabel", [False, True])
    def test_degree_filter_runs_on_the_replacing_graph(self, relabel):
        config = BenuConfig(degree_filter=True)
        with BenuService() as service:
            for graph in (_star_plus_edge(), complete_graph(6)):
                service.register_graph(
                    "g", graph, relabel=relabel, replace=True
                )
                handle = service.submit(
                    "triangle", "g", config=config, stream=False
                )
                assert handle.result(timeout=60).count == count_subgraphs(
                    get_pattern("triangle"), graph
                )

    @pytest.mark.parametrize("relabel", [False, True])
    def test_degree_filter_over_the_wire(self, relabel):
        from repro.service import ServiceProtocol

        with BenuService() as service:
            protocol = ServiceProtocol(service)

            def ask(payload):
                reply = json.loads(protocol.handle_line_json(json.dumps(payload)))
                assert reply["ok"], reply
                return reply

            for graph in (_star_plus_edge(), complete_graph(6)):
                ask({
                    "op": "register", "name": "g", "replace": True,
                    "relabel": relabel,
                    "edges": [list(e) for e in graph.edges()],
                })
                query = ask({
                    "op": "submit", "pattern": "triangle", "graph": "g",
                    "stream": False, "config": {"degree_filter": True},
                })["query"]
                poll = ask({"op": "poll", "query": query, "wait": 60})
                assert poll["done"]
                assert poll["count"] == count_subgraphs(
                    get_pattern("triangle"), graph
                )

    def test_the_plan_cache_keys_on_the_registration(self):
        """A replaced graph misses, and gets the order a fresh service
        picks from its own statistics."""
        sparse = erdos_renyi(60, 0.05, seed=1)
        dense = complete_graph(8)
        with BenuService() as service:
            service.register_graph("g", sparse, relabel=False)
            first = service.submit("square", "g", stream=False)
            first.wait(30)
            service.register_graph("g", dense, relabel=False, replace=True)
            replaced = service.submit("square", "g", stream=False)
            replaced.wait(30)
            assert (service.plan_cache.misses, service.plan_cache.hits) == (2, 0)
            orders = [_plan_order(service, h) for h in (first, replaced)]
        with BenuService() as fresh:
            fresh.register_graph("g", dense, relabel=False)
            handle = fresh.submit("square", "g", stream=False)
            handle.wait(30)
            assert orders[1] == _plan_order(fresh, handle) != orders[0]

    def test_replaced_registrations_leave_the_plan_cache(self):
        with BenuService() as service:
            for i in range(5):
                service.register_graph(
                    "g", complete_graph(6 + i), replace=True
                )
                service.submit("triangle", "g", stream=False).wait(30)
            assert (len(service.plan_cache), len(service.catalog)) == (1, 1)

    def test_a_registration_replaced_mid_query_leaves_the_plan_cache(self):
        with BenuService() as service:
            service.register_graph("g", complete_graph(6))
            build = service.plan_cache.get_or_build

            def replace_then_build(*args, **kwargs):
                # The query has pinned the old entry; replace it before
                # the query caches a plan for it.
                service.plan_cache.get_or_build = build
                service.register_graph("g", complete_graph(7), replace=True)
                return build(*args, **kwargs)

            service.plan_cache.get_or_build = replace_then_build
            handle = service.submit("triangle", "g", stream=False)
            assert handle.result(timeout=30).count == 20  # ran on K6
            assert len(service.plan_cache) == 0

    def test_evicted_registrations_leave_the_plan_cache(self):
        g1, g2 = complete_graph(30), erdos_renyi(30, 0.5, seed=2)
        with BenuService() as probe:
            probe.register_graph("g1", g1, relabel=False)
            probe.submit("triangle", "g1", stream=False).wait(30)
            queried = probe.catalog.memory_bytes()
        with BenuService(catalog_capacity_bytes=queried + 1) as service:
            service.register_graph("g1", g1, relabel=False)
            service.submit("triangle", "g1", stream=False).wait(30)
            assert len(service.plan_cache) == 1
            service.register_graph("g2", g2, relabel=False)
            assert service.catalog.names() == ["g2"]  # g1 was evicted
            assert len(service.plan_cache) == 0
            service.submit("triangle", "g2", stream=False).wait(30)
            assert len(service.plan_cache) == 1


class TestSlowQueryLog:
    def test_a_slow_query_is_logged_with_its_counts(self, workload):
        with BenuService(slow_query_seconds=0.0) as service:
            service.register_graph("g", workload, relabel=False)
            handle = service.submit("triangle", "g", stream=False)
            handle.wait(30)
            (entry,) = service.stats()["slow_queries"]
            (event,) = service.events.events(type=EV_SLOW_QUERY)
        assert set(entry) == {
            "query_id", "pattern", "graph", "status", "wall_seconds",
            "threshold_seconds", "instruction_counts", "q_errors",
        }
        assert entry["query_id"] == handle.query_id
        assert entry["status"] == "succeeded"
        assert entry["instruction_counts"]["RES"] > 0
        assert event.fields["wall_seconds"] == entry["wall_seconds"]

    def test_the_entry_is_in_place_when_wait_returns(self):
        """The log is written before the handle is marked finished."""
        data = complete_graph(6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # let the waiter run the moment it wakes
        try:
            with BenuService(slow_query_seconds=0.0) as service:
                service.register_graph("g", data, relabel=False)
                for _ in range(50):
                    handle = service.submit("triangle", "g", stream=False)
                    assert handle.wait(30)
                    logged = service.stats()["slow_queries"]
                    assert handle.query_id in {e["query_id"] for e in logged}
        finally:
            sys.setswitchinterval(interval)


class TestAdmissionControl:
    def test_concurrency_fast_reject_spares_in_flight(self):
        data = complete_graph(16)  # 560 triangles: plenty to stream
        with BenuService(
            config=BenuConfig(num_workers=1, relabel=False),
            max_concurrent=2,
            max_queued=1,
            batch_size=1,
            max_buffered_batches=1,
        ) as service:
            service.register_graph("g", data, relabel=False)
            q1 = _blocked_query(service)
            q2 = _blocked_query(service)
            q3 = service.submit("triangle", "g")  # parks in the queue
            with pytest.raises(AdmissionError) as excinfo:
                service.submit("triangle", "g")
            assert excinfo.value.running + excinfo.value.queued == 3
            assert (
                service.registry.get(M_SERVICE_REJECTED).value(
                    kind="concurrency"
                )
                == 1
            )
            # In-flight queries are unaffected: all three complete with
            # the full, correct match set once drained.
            expected = run_benu(
                get_pattern("triangle"),
                data,
                BenuConfig(collect=True, relabel=False),
            )
            for q in (q1, q2, q3):
                matches = list(q.matches())
                assert q.status is QueryStatus.SUCCEEDED
                assert _match_bytes(matches) == _match_bytes(expected.matches)
            # Slots released: a new query is admitted and runs.
            _wait_idle(service)
            assert list(service.submit("triangle", "g").matches())

    def test_memory_budget_reject(self):
        data = complete_graph(16)
        with BenuService(
            config=BenuConfig(num_workers=1, relabel=False),
            max_concurrent=2,
            max_queued=2,
            memory_budget_bytes=1,
            batch_size=1,
            max_buffered_batches=1,
        ) as service:
            service.register_graph("g", data, relabel=False)
            # The first query always fits (a lone over-budget query may run).
            q1 = _blocked_query(service)
            with pytest.raises(AdmissionError):
                service.submit("triangle", "g")
            assert (
                service.registry.get(M_SERVICE_REJECTED).value(
                    kind="memory"
                )
                == 1
            )
            # Count-only queries reserve no buffer and are still admitted.
            q2 = service.submit("triangle", "g", stream=False)
            assert q2.result(timeout=30).count == 560
            assert list(q1.matches())
            # Budget released after completion: streaming admits again.
            _wait_idle(service)
            assert list(service.submit("triangle", "g").matches())

    def test_unknown_graph_rejected_before_taking_a_slot(self, workload):
        with BenuService() as service:
            service.register_graph("g", workload, relabel=False)
            with pytest.raises(UnknownGraphError):
                service.submit("triangle", "nope")
            assert service.scheduler.running == 0
            assert service.scheduler.queued == 0

    def test_submit_after_close_raises(self, workload):
        service = BenuService()
        service.register_graph("g", workload, relabel=False)
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit("triangle", "g")


class TestDeadlinesAndCancellation:
    def test_cancel_releases_slot_with_typed_status(self):
        data = complete_graph(16)
        with BenuService(
            config=BenuConfig(num_workers=1, relabel=False),
            max_concurrent=1,
            max_queued=0,
            batch_size=1,
            max_buffered_batches=1,
        ) as service:
            service.register_graph("g", data, relabel=False)
            q1 = _blocked_query(service)
            q1.cancel("test says stop")
            assert q1.wait(timeout=10)
            assert q1.status is QueryStatus.CANCELLED
            with pytest.raises(QueryCancelled, match="test says stop"):
                q1.result()
            # Draining the dead stream terminates and re-raises, never hangs.
            with pytest.raises(QueryCancelled):
                list(q1.matches())
            # The slot is free again.
            _wait_idle(service)
            q2 = service.submit("triangle", "g")
            assert list(q2.matches())
            assert q2.status is QueryStatus.SUCCEEDED

    def test_deadline_expires_blocked_query(self):
        data = complete_graph(16)
        with BenuService(
            config=BenuConfig(num_workers=1, relabel=False),
            max_concurrent=1,
            max_queued=0,
            batch_size=1,
            max_buffered_batches=1,
        ) as service:
            service.register_graph("g", data, relabel=False)
            q1 = _blocked_query(service, deadline_seconds=0.3)
            # Never drained: the deadline must unstick the producer.
            assert q1.wait(timeout=10)
            assert q1.status is QueryStatus.DEADLINE_EXPIRED
            with pytest.raises(DeadlineExpired):
                q1.result()
            _wait_idle(service)
            q2 = service.submit("triangle", "g")
            assert list(q2.matches())

    def test_deadline_expired_while_queued_never_runs(self):
        data = complete_graph(16)
        with BenuService(
            config=BenuConfig(num_workers=1, relabel=False),
            max_concurrent=1,
            max_queued=1,
            batch_size=1,
            max_buffered_batches=1,
        ) as service:
            service.register_graph("g", data, relabel=False)
            blocker = _blocked_query(service)
            queued = service.submit(
                "triangle", "g", stream=False, deadline_seconds=0.05
            )
            time.sleep(0.2)  # let the queued query's deadline lapse
            list(blocker.matches())  # free the slot
            assert queued.wait(timeout=10)
            assert queued.status is QueryStatus.DEADLINE_EXPIRED
            assert queued.delivered == 0 if queued.streaming else True
            with pytest.raises(DeadlineExpired):
                queued.result()

    def test_service_close_cancels_running(self):
        data = complete_graph(16)
        service = BenuService(
            config=BenuConfig(num_workers=1, relabel=False),
            batch_size=1,
            max_buffered_batches=1,
        )
        service.register_graph("g", data, relabel=False)
        q = _blocked_query(service)
        service.close()
        assert q.done
        assert q.status is QueryStatus.CANCELLED


class TestStreamingAndPagination:
    @pytest.fixture()
    def service(self, workload):
        with BenuService(config=BenuConfig(num_workers=2)) as service:
            service.register_graph("g", workload, relabel=False)
            yield service

    def test_limit_truncates_cleanly(self, service, workload):
        total = run_benu(
            get_pattern("triangle"), workload, BenuConfig(relabel=False)
        ).count
        assert total > 7
        handle = service.submit("triangle", "g", limit=7)
        matches = list(handle.matches())
        assert len(matches) == 7
        assert handle.status is QueryStatus.SUCCEEDED
        assert handle.truncated
        # The matches travelled via the stream; the result carries the
        # counters of every task through the chunk that filled the limit.
        result = handle.result()
        assert result is not None and result.counters.results >= 7
        assert result.telemetry.instruction_counts["RES"] == result.count

    def test_limit_zero(self, service):
        handle = service.submit("triangle", "g", limit=0)
        assert list(handle.matches()) == []
        assert handle.status is QueryStatus.SUCCEEDED

    def test_fetch_pagination_covers_stream(self, service, workload):
        expected = run_benu(
            get_pattern("triangle"),
            workload,
            BenuConfig(collect=True, relabel=False),
        )
        handle = service.submit("triangle", "g")
        assert handle.wait(timeout=30)
        pages = []
        cursor = 0
        while True:
            page = handle.fetch(limit=37, cursor=cursor)
            pages.extend(page.matches)
            assert page.cursor == cursor + len(page.matches)
            cursor = page.cursor
            if page.done:
                break
        assert handle.delivered == len(pages)
        assert _match_bytes(pages) == _match_bytes(expected.matches)

    def test_fetch_rejects_rewound_cursor(self, service):
        handle = service.submit("triangle", "g")
        assert handle.wait(timeout=30)
        first = handle.fetch(limit=5)
        assert first.cursor == 5
        # Exactly one page of rewind is allowed: retrying the previous
        # poll re-serves the same page (lost-response recovery) without
        # advancing the stream.
        replay = handle.fetch(limit=5, cursor=0)
        assert replay.matches == first.matches
        assert replay.cursor == 5
        second = handle.fetch(limit=5, cursor=5)
        assert second.cursor == 10
        # Anything older than the replay window still rejects.
        with pytest.raises(InvalidQueryError, match="rewind"):
            handle.fetch(limit=5, cursor=0)

    def test_streaming_compressed_rejected(self, service):
        with pytest.raises(InvalidQueryError, match="compressed"):
            service.submit(
                "q1", "g", config=BenuConfig(compressed=True), stream=True
            )

    def test_unknown_query_id(self, service):
        with pytest.raises(UnknownQueryError):
            service.query("q-999")


class TestCatalog:
    def test_duplicate_rejected_unless_replace(self, workload):
        catalog = GraphCatalog()
        catalog.register("g", workload, relabel=False)
        with pytest.raises(InvalidQueryError, match="already registered"):
            catalog.register("g", workload, relabel=False)
        catalog.register("g", workload, relabel=False, replace=True)
        assert catalog.names() == ["g"]

    def test_lru_eviction_and_counter(self):
        g1 = complete_graph(30)
        g2 = complete_graph(30)
        registry = MetricsRegistry()
        probe = GraphCatalog()
        bytes_each = probe.register("probe", g1, relabel=False).memory_bytes()
        catalog = GraphCatalog(
            capacity_bytes=int(bytes_each * 1.5), registry=registry
        )
        catalog.register("g1", g1, relabel=False)
        catalog.register("g2", g2, relabel=False)
        assert catalog.names() == ["g2"]  # g1 was LRU-evicted
        assert registry.counter_total(M_CATALOG_EVICTIONS) == 1

    def test_pinned_entries_survive_eviction(self):
        g1 = complete_graph(30)
        g2 = complete_graph(30)
        probe = GraphCatalog()
        bytes_each = probe.register("probe", g1, relabel=False).memory_bytes()
        catalog = GraphCatalog(capacity_bytes=int(bytes_each * 1.5))
        catalog.register("g1", g1, relabel=False)
        entry = catalog.pin("g1")
        catalog.register("g2", g2, relabel=False)
        assert catalog.names() == ["g1", "g2"]  # over budget, but pinned
        catalog.unpin(entry)  # now evictable → back under budget
        assert catalog.names() == ["g2"]

    def test_unpin_releases_the_entry_it_pinned(self):
        """A name replaced between pin and unpin keeps the new entry's pin."""
        catalog = GraphCatalog()
        catalog.register("g", complete_graph(4))
        old = catalog.pin("g")
        catalog.register("g", complete_graph(5), replace=True)
        new = catalog.pin("g")
        catalog.unpin(old)
        assert (old.pins, new.pins) == (0, 1)
        catalog.unpin(new)
        assert new.pins == 0

    def test_a_replaced_graph_keeps_its_running_query_pinned(self):
        """The query on the new entry holds its pin while the query that
        pinned the old entry finishes, so the new entry cannot be evicted
        under it."""
        g = complete_graph(30)
        probe = GraphCatalog()
        bytes_each = probe.register("probe", g, relabel=False).memory_bytes()
        catalog = GraphCatalog(capacity_bytes=int(bytes_each * 1.5))
        catalog.register("g", g, relabel=False)
        old = catalog.pin("g")
        catalog.register("g", complete_graph(30), relabel=False, replace=True)
        new = catalog.pin("g")
        catalog.unpin(old)
        catalog.register("h", complete_graph(30), relabel=False)
        assert "g" in catalog.names() and new.pins == 1

    def test_catalog_memory_accounting_grows_with_stores(self, workload):
        with BenuService() as service:
            service.register_graph("g", workload, relabel=False)
            before = service.catalog.memory_bytes()
            assert before > 0
            list(service.submit("triangle", "g").matches())
            # The store and a warm cache pool are now resident.
            assert service.catalog.memory_bytes() > before

    def test_catalog_memory_counts_the_vertex_pools(self):
        # The label index and the memoised degree pools stay resident
        # beside the graph, so the entry's bytes include them.
        graph = chung_lu(300, 5.0, exponent=2.5, seed=2019)
        catalog = GraphCatalog()
        plain = catalog.register("plain", graph).memory_bytes()
        entry = catalog.register(
            "labeled", graph, labels={v: v % 3 for v in graph.vertices}
        )
        index = entry.prepared.label_index.values()
        assert entry.memory_bytes() - plain >= sum(map(sys.getsizeof, index)) > 0
        before = entry.memory_bytes()
        _, pools = entry.prepared.degree_pools(get_pattern("clique4"))
        grown = sum(map(sys.getsizeof, pools.values()))
        assert entry.memory_bytes() - before >= grown > 0

    def test_catalog_memory_counts_the_id_translation(self):
        # A relabeled entry keeps ``mapping`` and ``inverse`` resident
        # beside its graph; the same graph registered as-is keeps neither.
        graph = chung_lu(300, 5.0, exponent=2.5, seed=2019)
        catalog = GraphCatalog()
        as_is = catalog.register("as_is", graph, relabel=False)
        relabeled = catalog.register("relabeled", graph)
        prepared = relabeled.prepared
        assert as_is.prepared.mapping is None and prepared.relabeled
        translation = sum(
            map(sys.getsizeof, (prepared.mapping, prepared.inverse))
        )
        assert translation > 0
        assert relabeled.memory_bytes() - as_is.memory_bytes() == translation

    def test_warm_pools_are_reused(self, workload):
        with BenuService() as service:
            service.register_graph("g", workload, relabel=False)
            list(service.submit("triangle", "g").matches())
            entry = service.catalog.get("g")
            idle = sum(len(p) for p in entry._idle_pools.values())
            assert idle == 1
            list(service.submit("square", "g").matches())
            idle_after = sum(len(p) for p in entry._idle_pools.values())
            assert idle_after == 1  # same pool checked out and returned


class TestExecutionControl:
    def test_cancel_reason_propagates(self):
        control = ExecutionControl()
        control.check()
        control.cancel("enough")
        with pytest.raises(QueryCancelled, match="enough"):
            control.check()

    def test_deadline(self):
        control = ExecutionControl(deadline_seconds=0.02)
        control.check()
        time.sleep(0.03)
        assert control.expired
        with pytest.raises(DeadlineExpired):
            control.check()

    def test_invalid_deadline(self):
        with pytest.raises(ValueError):
            ExecutionControl(deadline_seconds=0)


class TestServiceStats:
    def test_stats_shape(self, workload):
        with BenuService() as service:
            service.register_graph("g", workload, relabel=False)
            list(service.submit("triangle", "g").matches())
            _wait_idle(service)
            stats = service.stats()
        assert stats["graphs"] == ["g"]
        assert stats["plan_cache"]["misses"] == 1
        assert stats["queries"] == {"succeeded": 1}
        assert stats["scheduler"]["running"] == 0
        assert stats["catalog_bytes"] > 0
        assert M_PLAN_CACHE_MISSES in stats["metrics"]
