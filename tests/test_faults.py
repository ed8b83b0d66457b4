"""The fault-tolerance layer — acceptance criteria:

* a seeded :class:`~repro.faults.FaultConfig` schedule reproduces the
  identical fault sequence and the identical final result across runs
  (determinism is asserted, not hoped for);
* killing a process-pool worker mid-query completes with byte-identical
  match sets and exactly-summing counters, with ``worker_crashed`` /
  ``task_retried`` events; exhausting the retry budget raises the typed
  :class:`~repro.engine.backends.process.WorkerCrashed`;
* a shard connection dropped (or slowed) by schedule completes through
  the router's deterministic backoff retry with results identical to the
  fault-free run, over the same shard-count matrix the serving-tier
  tests pin;
* the circuit breaker marks replicas dead/alive through the cheap
  ``health`` probe, with ``replica_marked_dead`` events;
* fault injection off is free: the shared NULL_INJECTOR, no events, no
  extra IPC bytes (asserted in ``benchmarks/bench_smoke.py``).
"""

import pickle
import socket

import pytest

from repro.engine.backends.process import WorkerCrashed
from repro.engine.benu import run_benu
from repro.engine.config import BenuConfig
from repro.engine.control import DeadlineExpired
from repro.faults import (
    FAULTS_ENV,
    NULL_INJECTOR,
    FaultConfig,
    FaultInjector,
    FaultRule,
    InjectedFault,
    SITE_CATALOG_EVICT,
    SITE_SCHEDULER_ADMIT,
    SITE_SHARD_READ,
    SITE_WORKER_TASK,
    get_injector,
    resolve_faults,
)
from repro.graph.generators import chung_lu, erdos_renyi
from repro.graph.graph import Graph
from repro.graph.order import relabel_by_degree_order
from repro.graph.patterns import get_pattern
from repro.service import BenuService
from repro.service.catalog import GraphCatalog
from repro.service.scheduler import QueryScheduler
from repro.shard import (
    LocalShardClient,
    RetryPolicy,
    ShardNode,
    ShardRouter,
    ShardUnavailable,
    TCPShardClient,
)
from repro.shard.client import DEFAULT_CONNECT_TIMEOUT, DEFAULT_READ_TIMEOUT
from repro.telemetry.events import (
    EV_FAULT_INJECTED,
    EV_REPLICA_MARKED_ALIVE,
    EV_REPLICA_MARKED_DEAD,
    EV_TASK_RETRIED,
    EV_WORKER_CRASHED,
)


# ------------------------------------------------------------ the grammar
def test_parse_round_trips_every_suffix():
    spec = (
        "seed=7,worker.task:crash@3,shard.read:error@5/2x3,"
        "shard.connect:delay@2~0.5,worker.ipc_send:error@1#*"
    )
    cfg = FaultConfig.parse(spec)
    assert cfg.seed == 7
    assert cfg.rules[0] == FaultRule("worker.task", "crash", at=3)
    assert cfg.rules[1] == FaultRule(
        "shard.read", "error", at=5, every=2, times=3
    )
    assert cfg.rules[2] == FaultRule(
        "shard.connect", "delay", at=2, delay_seconds=0.5
    )
    assert cfg.rules[3].attempt is None  # '#*' = every attempt
    # Round trip: parse(to_spec) is the identity.
    assert FaultConfig.parse(cfg.to_spec()) == cfg


@pytest.mark.parametrize(
    "bad",
    ["worker.task", "worker.task:explode@1", "shard.read:error@0",
     "shard.read:error@2x0"],
)
def test_bad_specs_raise(bad):
    with pytest.raises(ValueError):
        FaultConfig.parse(bad)


def test_resolve_faults_precedence():
    explicit = FaultConfig.parse("worker.task:error@1")
    env = {FAULTS_ENV: "shard.read:error@2"}
    assert resolve_faults(explicit, environ=env) is explicit
    assert resolve_faults(None, environ=env).rules[0].site == "shard.read"
    assert resolve_faults(None, environ={}) is None
    # String specs coerce everywhere (CLI flags, BenuConfig, clients).
    assert resolve_faults("worker.task:error@1", environ={}) == explicit


def test_config_is_picklable_and_string_coerced():
    cfg = FaultConfig.parse("seed=3,worker.task:crash@2x2")
    assert pickle.loads(pickle.dumps(cfg)) == cfg
    benu = BenuConfig(faults="seed=3,worker.task:crash@2x2")
    assert benu.faults == cfg
    # The seeded RNG is stable across processes (string seeding).
    a = cfg.rng("retry:x").random()
    assert cfg.rng("retry:x").random() == a
    assert cfg.rng("retry:y").random() != a


# ------------------------------------------------------------ the injector
def test_rules_fire_on_exact_hits():
    inj = FaultInjector(FaultConfig.parse("shard.read:error@3x2"))
    inj.hit(SITE_SHARD_READ)
    inj.hit(SITE_SHARD_READ)
    with pytest.raises(InjectedFault) as info:
        inj.hit(SITE_SHARD_READ)
    assert info.value.hit == 3 and info.value.site == SITE_SHARD_READ
    with pytest.raises(InjectedFault):
        inj.hit(SITE_SHARD_READ)  # x2: consecutive hit fires too
    inj.hit(SITE_SHARD_READ)  # 5th is clean
    assert inj.fired_log == [
        (SITE_SHARD_READ, "error", 3),
        (SITE_SHARD_READ, "error", 4),
    ]


def test_periodic_rule_refires_every_p_hits():
    inj = FaultInjector(FaultConfig.parse("shard.read:error@2/3x2"))
    fired = []
    for n in range(1, 9):
        try:
            inj.hit(SITE_SHARD_READ)
        except InjectedFault:
            fired.append(n)
    assert fired == [2, 5]  # @2, then every 3rd, capped at 2 fires


def test_attempt_scoping_keeps_retries_clean():
    cfg = FaultConfig.parse("worker.task:error@1")
    with pytest.raises(InjectedFault):
        FaultInjector(cfg, attempt=0).hit(SITE_WORKER_TASK)
    # The same rule is silent on attempt 1 — retried work runs clean.
    FaultInjector(cfg, attempt=1).hit(SITE_WORKER_TASK)
    # '#*' fires on every attempt.
    cfg_all = FaultConfig.parse("worker.task:error@1#*")
    with pytest.raises(InjectedFault):
        FaultInjector(cfg_all, attempt=3).hit(SITE_WORKER_TASK)


def test_delay_action_sleeps_deterministically():
    slept = []
    inj = FaultInjector(
        FaultConfig.parse("shard.read:delay@1~0.25x2"), sleep=slept.append
    )
    inj.hit(SITE_SHARD_READ)
    inj.hit(SITE_SHARD_READ)
    inj.hit(SITE_SHARD_READ)
    assert slept == [0.25, 0.25]


def test_fired_log_is_identical_across_runs():
    """Same schedule + same hit sequence → the same fault sequence."""
    def drive():
        inj = FaultInjector(
            FaultConfig.parse("a:error@2,b:delay@1~0x3,a:error@4"),
            sleep=lambda s: None,
        )
        for site in ["a", "b", "a", "b", "a", "a", "b", "b"]:
            try:
                inj.hit(site)
            except InjectedFault:
                pass
        return list(inj.fired_log)

    assert drive() == drive()


def test_disabled_injector_is_the_shared_singleton():
    assert get_injector(None, environ={}) is NULL_INJECTOR
    assert get_injector(FaultConfig(), environ={}) is NULL_INJECTOR
    assert not NULL_INJECTOR.enabled
    NULL_INJECTOR.hit(SITE_WORKER_TASK)  # a no-op, never raises
    assert NULL_INJECTOR.hits(SITE_WORKER_TASK) == 0


# ------------------------------------------- process-backend crash recovery
@pytest.fixture(scope="module")
def crash_workload():
    g, _ = relabel_by_degree_order(chung_lu(300, 5.0, seed=11))
    return Graph(g.edges())


@pytest.fixture(scope="module")
def crash_reference(crash_workload):
    result = run_benu(
        get_pattern("triangle"),
        crash_workload,
        BenuConfig(
            num_workers=2, execution_backend="process", collect=True,
            relabel=False,
        ),
    )
    return {
        "count": result.count,
        "matches": sorted(result.matches),
        "instructions": dict(result.telemetry.instruction_counts),
    }


#: Every recovery case runs on a pool of one and a pool of two: one
#: worker forks like any other, so it recovers the same way.
POOL_SIZES = (1, 2)


def _crash_config(schedule, workers, retries=2):
    return BenuConfig(
        num_workers=workers,
        execution_backend="process",
        collect=True,
        relabel=False,
        task_retries=retries,
        faults=schedule,
    )


def test_worker_crash_recovers_with_identical_results(
    crash_workload, crash_reference
):
    """kill -9 (os._exit) of a pool worker mid-query: the chunk it held
    re-executes on a replacement worker and the final match set and
    counters are byte-identical to the fault-free run."""
    for workers in POOL_SIZES:
        result = run_benu(
            get_pattern("triangle"),
            crash_workload,
            _crash_config("worker.task:crash@3", workers),
        )
        assert result.count == crash_reference["count"]
        assert sorted(result.matches) == crash_reference["matches"]
        assert (
            dict(result.telemetry.instruction_counts)
            == crash_reference["instructions"]
        )
        assert result.worker_crashes >= 1
        assert result.tasks_retried >= 1


def test_ipc_send_fault_retries_only_lost_slices(
    crash_workload, crash_reference
):
    for workers in POOL_SIZES:
        result = run_benu(
            get_pattern("triangle"),
            crash_workload,
            _crash_config("worker.ipc_send:error@2", workers),
        )
        assert result.count == crash_reference["count"]
        assert sorted(result.matches) == crash_reference["matches"]
        assert result.tasks_retried >= 1
        assert result.worker_crashes == 0  # the worker lived; the send died


def test_retry_exhaustion_raises_typed_worker_crashed(crash_workload):
    """A worker that crashes on *every* attempt ('#*') exhausts the
    bounded retry budget and surfaces as the typed WorkerCrashed."""
    for workers in POOL_SIZES:
        with pytest.raises(WorkerCrashed) as info:
            run_benu(
                get_pattern("triangle"),
                crash_workload,
                _crash_config("worker.task:crash@1#*", workers, retries=1),
            )
        exc = info.value
        assert exc.code == "worker_crashed"
        assert exc.dead  # pid -> exit code of every crashed worker
        assert exc.lost_tasks  # the unacknowledged task ids
        assert exc.attempts == 2  # initial + 1 retry


def test_crash_recovery_is_deterministic_across_runs(crash_workload):
    """Same seed + schedule → byte-identical final results, run to run
    (the replayability acceptance criterion).  The *crash count* is not
    pinned: a replacement worker starts with fresh attempt-0 hit
    counters, so how many processes die depends on which chunks each
    one drew — the results never are."""
    def once(workers):
        result = run_benu(
            get_pattern("triangle"),
            crash_workload,
            _crash_config("seed=7,worker.task:crash@3", workers),
        )
        assert result.worker_crashes >= 1
        return (
            result.count,
            sorted(result.matches),
            dict(result.telemetry.instruction_counts),
        )

    for workers in POOL_SIZES:
        assert once(workers) == once(workers)


def test_service_emits_crash_and_retry_events(crash_workload):
    """Through the service, a crashed worker shows up in the event log:
    fault_injected at admission sites, worker_crashed + task_retried
    from the recovery loop, and the stats() fault summary."""
    for workers in POOL_SIZES:
        service = BenuService(
            config=BenuConfig(
                num_workers=workers,
                execution_backend="process",
                relabel=False,
                task_retries=2,
                faults="worker.task:crash@3,scheduler.admit:delay@1~0",
            )
        )
        try:
            service.register_graph("g", crash_workload, relabel=False)
            handle = service.submit("triangle", "g", stream=False)
            handle.wait()
            result = handle.result()
            assert result.worker_crashes >= 1
            types = {e["type"] for e in service.events.as_dicts()}
            assert EV_WORKER_CRASHED in types
            assert EV_TASK_RETRIED in types
            assert EV_FAULT_INJECTED in types  # the admission delay rule
            stats = service.stats()
            assert stats["faults"]["enabled"]
            assert stats["faults"]["injected"] >= 1
        finally:
            service.close()


# ------------------------------------------------- scheduler/catalog sites
def test_scheduler_admission_site():
    scheduler = QueryScheduler(
        injector=FaultInjector(FaultConfig.parse("scheduler.admit:error@2"))
    )
    try:
        scheduler.submit(lambda: None).result()
        with pytest.raises(InjectedFault):
            scheduler.submit(lambda: None)
    finally:
        scheduler.shutdown()


def test_catalog_eviction_site():
    inj = FaultInjector(
        FaultConfig.parse("catalog.evict:delay@1~0x8"), sleep=lambda s: None
    )
    catalog = GraphCatalog(capacity_bytes=1, injector=inj)
    catalog.register("a", erdos_renyi(20, 0.2, seed=1))
    catalog.register("b", erdos_renyi(20, 0.2, seed=2))  # evicts "a"
    assert inj.hits(SITE_CATALOG_EVICT) >= 1
    assert ("catalog.evict", "delay", 1) in inj.fired_log


# --------------------------------------------------- shard RPC chaos matrix
@pytest.fixture(scope="module")
def shard_workload():
    g, _ = relabel_by_degree_order(chung_lu(160, 4.5, exponent=2.4, seed=23))
    return Graph(g.edges())


@pytest.fixture(scope="module")
def shard_reference(shard_workload):
    service = BenuService()
    try:
        service.register_graph("g", shard_workload, relabel=False)
        handle = service.submit("triangle", "g", stream=True)
        matches = sorted(tuple(m) for m in handle.matches())
        handle = service.submit("triangle", "g", stream=False)
        handle.wait()
        result = handle.result()
        return {
            "matches": matches,
            "count": result.count,
            "instructions": dict(result.telemetry.instruction_counts),
        }
    finally:
        service.close()


def _build_cluster(shard_workload, shard_count, faults=None, retry=None):
    nodes = [ShardNode(i, shard_count) for i in range(shard_count)]
    clients = []
    for i, node in enumerate(nodes):
        node.register_graph("g", shard_workload, relabel=False)
        clients.append(LocalShardClient(node, faults=faults))
    router = ShardRouter(
        clients,
        retry=retry or RetryPolicy(base_delay=0.001, max_delay=0.01),
    )
    return nodes, router


@pytest.mark.parametrize("shard_count", [1, 2, 4])
@pytest.mark.parametrize(
    "schedule",
    [
        "seed=5,shard.read:error@4",        # connection drop mid-stream
        "seed=5,shard.read:delay@2~0.02x3",  # slow replica
        "seed=5,shard.write:error@6",        # request write drop
    ],
)
def test_router_chaos_matrix_pins_exact_results(
    shard_workload, shard_reference, shard_count, schedule
):
    """Deterministic drops and slowdowns on the shard transport: the
    router's budgeted backoff retries in place and the merged stream
    stays byte-identical with exactly-summing counters."""
    nodes, router = _build_cluster(
        shard_workload, shard_count, faults=schedule
    )
    try:
        query = router.submit("triangle", "g", stream=True)
        matches = sorted(tuple(m) for m in query.matches())
        assert matches == shard_reference["matches"]
        result = router.submit("triangle", "g", stream=False).result()
        assert result["count"] == shard_reference["count"]
        assert result["instruction_counts"] == shard_reference["instructions"]
    finally:
        for node in nodes:
            node.close()


def test_shard_fault_sequence_reproduces_across_runs(shard_workload):
    """Same seeded schedule → the same fault sequence (site, action,
    hit) and the same final count, across two full router runs."""
    def once():
        nodes, router = _build_cluster(
            shard_workload, 2, faults="seed=9,shard.read:error@3x2"
        )
        try:
            count = router.submit("triangle", "g", stream=False).result()[
                "count"
            ]
            fired = [
                list(c._injector.fired_log) for c in router.clients
            ]
            return count, fired
        finally:
            for node in nodes:
                node.close()

    first, second = once(), once()
    assert first == second
    assert any(first[1])  # the schedule actually fired somewhere


# ----------------------------------------------------- circuit breaker
def test_circuit_breaker_marks_dead_and_probes_back(shard_workload):
    nodes, router = _build_cluster(shard_workload, 1)
    try:
        client = router.clients[0]
        assert router.is_alive(client)
        client.kill()
        assert not router.probe(client)
        assert not router.is_alive(client)
        types = [e["type"] for e in router.events_local()]
        assert EV_REPLICA_MARKED_DEAD in types
        # Half-open: a successful health probe heals the replica.
        client.revive()
        assert router.probe(client)
        assert router.is_alive(client)
        assert EV_REPLICA_MARKED_ALIVE in [
            e["type"] for e in router.events_local()
        ]
        # Health transitions ride the stitched cluster timeline too.
        stitched = router.events()
        assert any(
            e["shard"] == "router" and e["type"] == EV_REPLICA_MARKED_DEAD
            for e in stitched
        )
        # And replica state is visible in stats.
        assert router.stats()["replicas"][client.endpoint] == "alive"
    finally:
        for node in nodes:
            node.close()


def test_dead_replica_exhausts_retries_then_fails_typed(shard_workload):
    nodes, router = _build_cluster(
        shard_workload, 1, retry=RetryPolicy(max_attempts=2, base_delay=0.001)
    )
    try:
        client = router.clients[0]
        client.kill()
        with pytest.raises(ShardUnavailable):
            router.request_with_retry(client, {"op": "stats"})
        assert not router.is_alive(client)
    finally:
        for node in nodes:
            node.close()


def test_retry_policy_delays_are_deterministic():
    policy = RetryPolicy(max_attempts=4, base_delay=0.02, seed=3)
    a = list(policy.delays("node-1"))
    assert a == list(policy.delays("node-1"))
    assert a != list(policy.delays("node-2"))
    assert len(a) == 3
    assert all(0 < d <= 1.0 for d in a)
    # Exponential shape survives the jitter (factor in [0.5, 1.0)).
    assert a[1] > a[0] * 0.9


def test_backoff_budget_never_outlives_the_deadline():
    import time as _time

    with pytest.raises(DeadlineExpired):
        ShardRouter._sleep_with_budget(0.5, _time.time() - 1.0)
    # A live budget caps the sleep to what remains.
    t0 = _time.time()
    with pytest.raises(DeadlineExpired):
        ShardRouter._sleep_with_budget(10.0, _time.time() + 0.02)
    assert _time.time() - t0 < 1.0


# ----------------------------------------------------- TCP hop timeouts
def test_tcp_client_timeout_knobs():
    """The two hop timeouts, by what they do: a shard that accepts but
    never answers fails the request after ``read_timeout`` — typed, and
    long before the (much longer) connect timeout or the defaults."""
    import time as _time

    silent = socket.socket()
    silent.bind(("127.0.0.1", 0))
    silent.listen(4)
    host, port = silent.getsockname()
    try:
        client = TCPShardClient(
            host, port, connect_timeout=20.0, read_timeout=0.2
        )
        assert client.connect_timeout == 20.0
        assert client.read_timeout == 0.2
        t0 = _time.monotonic()
        with pytest.raises(ShardUnavailable):
            client.health()
        assert 0.15 <= _time.monotonic() - t0 < 5.0
        # The timed-out connection is gone; the pool holds no stale one.
        assert not client.connected
        client.close()
        defaults = TCPShardClient(host, port)
        assert defaults.connect_timeout == DEFAULT_CONNECT_TIMEOUT
        assert defaults.read_timeout == DEFAULT_READ_TIMEOUT
        defaults.close()
    finally:
        silent.close()


def test_tcp_connect_failure_is_typed_and_fast():
    # A port nothing listens on: grab one, close it, dial it.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    with pytest.raises(ShardUnavailable):
        TCPShardClient("127.0.0.1", port, connect_timeout=0.5)


def test_tcp_client_reconnects_lazily_after_drop(shard_workload):
    node = ShardNode(0, 1)
    node.register_graph("g", shard_workload, relabel=False)
    server = node.serve_socket(port=0)
    import threading

    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        client = TCPShardClient(
            host, port, faults="seed=1,shard.write:error@2"
        )
        assert client.hello()["ok"]
        # The injected drop tears the socket down...
        with pytest.raises(ShardUnavailable):
            client.request({"op": "stats"})
        assert not client.connected
        # ...and the next request dials fresh and succeeds.
        assert client.request({"op": "stats"})["ok"]
        assert client.connected
        client.close()
    finally:
        server.shutdown()
        server.server_close()
        node.close()
