"""Serving layer: cache, metrics, scheduler, index lifecycle, HTTP."""

from __future__ import annotations

import json
import re
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.batch import BatchSourceSolver, BatchTargetSolver
from repro.core.config import PPRConfig
from repro.exceptions import ConfigError
from repro.graph.generators import erdos_renyi
from repro.montecarlo.forest_index import ForestIndex
from repro.service import (
    IndexManager,
    MicroBatchScheduler,
    PPRService,
    QueryRequest,
    ResultCache,
    SchedulerFull,
    ServiceConfig,
    ServiceMetrics,
    cache_key,
)
from repro.service.http import make_server, serve_forever
from repro.service.metrics import BatchSizeHistogram, LatencyRing

SEED = 2022
ALPHA = 0.2
EPSILON = 0.5


def assert_prometheus_exposition(text: str) -> None:
    """Strict Prometheus text-format (v0.0.4) structural checks.

    Every sample must be preceded by its family's ``# HELP`` and
    ``# TYPE`` lines and must parse against the exposition grammar;
    histogram bucket series must be cumulative (non-decreasing in
    emission order), terminate with ``le="+Inf"``, and the ``+Inf``
    bucket must equal the family's ``_count`` for the same label set.
    """
    sample_re = re.compile(
        r'^([a-zA-Z_:][a-zA-Z0-9_:]*)'
        r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
        r'(?:,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
        r" (\S+)$")
    le_re = re.compile(r'(?:\{|,)le="([^"]+)"')
    helped: set[str] = set()
    types: dict[str, str] = {}
    buckets: dict[tuple[str, str], list[tuple[str, float]]] = {}
    counts: dict[tuple[str, str], float] = {}

    def family(name: str) -> str:
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[:-len(suffix)] in types:
                return name[:-len(suffix)]
        return name

    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            helped.add(line.split()[2])
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            assert parts[3] in ("counter", "gauge", "histogram"), line
            types[parts[2]] = parts[3]
            continue
        match = sample_re.match(line)
        assert match, f"unparseable sample line: {line!r}"
        name, labels, value_text = match.groups()
        value = float(value_text)  # grammar: value must parse
        base = family(name)
        assert base in types, f"sample before its TYPE line: {line!r}"
        assert base in helped, f"sample before its HELP line: {line!r}"
        if types[base] == "histogram" and name.endswith("_bucket"):
            le = le_re.search(labels or "")
            assert le, f"histogram bucket without le label: {line!r}"
            rest = re.sub(r'(\{|,)le="[^"]*",?', r"\1", labels)
            rest = rest.replace("{,", "{").replace(",}", "}")
            buckets.setdefault((base, rest), []).append(
                (le.group(1), value))
        elif types[base] == "histogram" and name.endswith("_count"):
            counts[(base, labels or "{}")] = value
    assert buckets, "no histogram series in exposition"
    for (base, labels), series in buckets.items():
        values = [value for _, value in series]
        assert values == sorted(values), (
            f"non-cumulative buckets for {base}{labels}: {series}")
        assert series[-1][0] == "+Inf", (
            f"{base}{labels} bucket series does not end with +Inf")
        assert (base, labels) in counts, (
            f"histogram {base}{labels} has no _count sample")
        assert series[-1][1] == counts[(base, labels)], (
            f"{base}{labels}: +Inf bucket {series[-1][1]} != "
            f"_count {counts[(base, labels)]}")


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(300, 0.02, rng=SEED)


@pytest.fixture(scope="module")
def service_config():
    return ServiceConfig(graph="test", alpha=ALPHA, epsilon=EPSILON,
                         budget_scale=0.05, seed=SEED, max_batch=8,
                         max_wait_ms=5.0, queue_capacity=64,
                         cache_entries=16, port=0)


@pytest.fixture(scope="module")
def service(graph, service_config):
    with PPRService(service_config, graph=graph) as svc:
        yield svc


@pytest.fixture(scope="module")
def base_url(service):
    server = make_server(service, port=0)
    serve_forever(server, in_thread=True)
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


class TestResultCache:
    def test_epsilon_dominance(self):
        cache = ResultCache(capacity=4)
        key = cache_key("g", "batch", "source", 1, 0.1)
        cache.put(key, epsilon=0.25, value="tight")
        assert cache.get(key, epsilon=0.25) == "tight"
        assert cache.get(key, epsilon=0.5) == "tight"   # looser query OK
        assert cache.get(key, epsilon=0.1) is None      # tighter: miss

    def test_put_never_loosens(self):
        cache = ResultCache(capacity=4)
        key = cache_key("g", "batch", "source", 1, 0.1)
        cache.put(key, epsilon=0.2, value="tight")
        cache.put(key, epsilon=0.9, value="loose")
        assert cache.get(key, epsilon=0.2) == "tight"
        cache.put(key, epsilon=0.05, value="tighter")
        assert cache.get(key, epsilon=0.1) == "tighter"

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        keys = [cache_key("g", "batch", "source", n, 0.1) for n in range(3)]
        cache.put(keys[0], 0.5, "a")
        cache.put(keys[1], 0.5, "b")
        assert cache.get(keys[0], 0.5) == "a"   # refresh key 0
        cache.put(keys[2], 0.5, "c")            # evicts key 1, not key 0
        assert cache.get(keys[0], 0.5) == "a"
        assert cache.get(keys[1], 0.5) is None
        assert cache.stats()["evictions"] == 1

    def test_capacity_zero_disables(self):
        cache = ResultCache(capacity=0)
        key = cache_key("g", "batch", "source", 1, 0.1)
        cache.put(key, 0.5, "value")
        assert cache.get(key, 0.5) is None
        assert len(cache) == 0

    def test_stats_counters(self):
        cache = ResultCache(capacity=4)
        key = cache_key("g", "batch", "source", 1, 0.1)
        assert cache.get(key, 0.5) is None
        cache.put(key, 0.5, "v")
        assert cache.get(key, 0.5) == "v"
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["size"] == 1
        assert stats["hit_rate"] == 0.5

    def test_epsilon_excluded_from_key(self):
        tight = cache_key("g", "batch", "source", 1, 0.1)
        assert tight == cache_key("g", "batch", "source", 1, 0.1)
        assert tight != cache_key("g", "batch", "target", 1, 0.1)
        assert tight != cache_key("g", "batch", "source", 1, 0.2)


class TestMetrics:
    def test_latency_ring_quantiles(self):
        ring = LatencyRing(window=8)
        assert ring.quantile(0.99) == 0.0
        for value in (1.0, 2.0, 3.0, 4.0):
            ring.record(value)
        assert ring.count == 4
        assert ring.quantile(0.5) == pytest.approx(2.5)
        # the ring keeps only the most recent window
        for value in (10.0,) * 8:
            ring.record(value)
        assert ring.quantile(0.5) == 10.0

    def test_batch_histogram_buckets(self):
        hist = BatchSizeHistogram()
        for size in (1, 3, 8, 200):
            hist.record(size)
        snap = hist.snapshot()
        buckets = dict(snap["buckets"])
        assert buckets["1"] == 1
        assert buckets["4"] == 2
        assert buckets["8"] == 3
        assert buckets["+Inf"] == 4
        assert snap["sum"] == 212
        assert snap["count"] == 4

    def test_render_exposes_required_series(self):
        metrics = ServiceMetrics()
        metrics.record_request("query", 0.012)
        metrics.record_batch(4, {"walk_steps": 10, "pushes": 3})
        metrics.record_rejection()
        metrics.register_gauge("repro_service_queue_depth", lambda: 2.0)
        metrics.register_gauge(
            "repro_service_cache",
            lambda: {'{stat="hit_rate"}': 0.25, '{stat="size"}': 3.0})
        text = metrics.render()
        assert 'repro_service_requests_total{endpoint="query"} 1' in text
        assert "repro_service_rejected_total 1" in text
        assert "repro_service_batches_total 1" in text
        assert 'repro_service_batch_size_bucket{le="4"} 1' in text
        assert "repro_service_batch_size_count 1" in text
        assert 'repro_service_latency_seconds_bucket{le="0.025"} 1' in text
        assert "repro_service_latency_seconds_count 1" in text
        assert ('repro_service_stage_seconds_bucket{stage="fold",'
                in text)
        assert "repro_service_work_walk_steps_total 10" in text
        assert "repro_service_work_pushes_total 3" in text
        assert "repro_service_queue_depth 2.0" in text
        assert 'repro_service_cache{stat="hit_rate"} 0.25' in text

    def test_snapshot_work_is_detached(self):
        metrics = ServiceMetrics()
        metrics.record_batch(1, {"walk_steps": 5})
        snap = metrics.snapshot()
        metrics.record_batch(1, {"walk_steps": 5})
        assert snap["work"]["walk_steps"] == 5
        assert metrics.snapshot()["work"]["walk_steps"] == 10

    def test_stage_histograms_feed_snapshot_quantiles(self):
        metrics = ServiceMetrics()
        for seconds in (0.001, 0.002, 0.2):
            metrics.record_fold(seconds)
        metrics.record_stage("serialize", 0.0001)
        snap = metrics.snapshot()
        assert snap["fold_p50"] > 0
        assert snap["fold_p99"] >= snap["fold_p50"]

    def test_exposition_is_strictly_well_formed(self):
        metrics = ServiceMetrics()
        metrics.record_request("query", 0.012)
        metrics.record_request("pair", 3.5)
        metrics.record_stage("admission", 1e-6)
        metrics.record_fold(0.02)
        metrics.record_batch(3, {"pushes": 1})
        metrics.register_gauge("repro_service_queue_depth", lambda: 0.0)
        assert_prometheus_exposition(metrics.render())

    def test_tenant_sanitization(self):
        from repro.service.metrics import DEFAULT_TENANT, clean_tenant
        assert clean_tenant("acme-prod_1.eu:a") == "acme-prod_1.eu:a"
        assert clean_tenant(None) == DEFAULT_TENANT
        assert clean_tenant("") == DEFAULT_TENANT
        assert clean_tenant('evil"} 1\n') == DEFAULT_TENANT
        assert clean_tenant("x" * 65) == DEFAULT_TENANT
        assert clean_tenant("  spaced  ") == "spaced"

    def test_tenant_attribution_table_and_render(self):
        metrics = ServiceMetrics()
        metrics.record_request("query", 0.010, tenant="acme",
                               work={"pushes": 5})
        metrics.record_request("query", 0.020, tenant="acme",
                               work={"pushes": 7})
        metrics.record_request("query", 0.030)  # default tenant
        metrics.record_rejection(tenant="acme")
        metrics.record_failure(tenant="beta")
        rows = {row["tenant"]: row for row in metrics.tenant_table()}
        assert rows["acme"]["requests"] == 2
        assert rows["acme"]["rejected"] == 1
        assert rows["acme"]["work"] == 12
        assert rows["acme"]["p99_seconds"] > 0
        assert rows["beta"]["errors"] == 1
        assert rows["default"]["requests"] == 1
        text = metrics.render()
        assert ('repro_service_tenant_requests_total{tenant="acme"} 2'
                in text)
        assert ('repro_service_tenant_rejected_total{tenant="acme"} 1'
                in text)
        assert ('repro_service_tenant_errors_total{tenant="beta"} 1'
                in text)
        assert ('repro_service_tenant_work_total{tenant="acme"} 12'
                in text)
        assert ('repro_service_tenant_latency_seconds_count'
                '{tenant="acme"} 2') in text
        assert_prometheus_exposition(text)

    def test_straggler_and_shard_tables(self):
        metrics = ServiceMetrics()
        metrics.record_shard_fold(0, 0.001)
        metrics.record_shard_fold(1, 0.5)
        metrics.record_straggler(1)
        rows = {row["shard"]: row for row in metrics.shard_table()}
        assert rows[0]["straggler_folds"] == 0
        assert rows[1]["straggler_folds"] == 1
        assert rows[1]["fold_p99_seconds"] >= rows[0]["fold_p50_seconds"]
        assert metrics.snapshot()["straggler_folds"] == {1: 1}
        text = metrics.render()
        assert ('repro_service_straggler_folds_total{shard="1"} 1'
                in text)

    def test_window_snapshot_and_slo_report_require_wiring(self):
        from repro.obs.slo import SLOEngine, default_specs
        from repro.obs.timeseries import TimeSeriesStore
        bare = ServiceMetrics()
        assert bare.window_snapshot(60.0) is None
        assert bare.slo_report() == []
        wired = ServiceMetrics(timeseries=TimeSeriesStore(),
                               slo=SLOEngine(default_specs()))
        wired.record_request("query", 0.012, tenant="acme")
        wired.record_rejection()
        snapshot = wired.window_snapshot(60.0)
        assert snapshot["counters"]["requests"]["total"] == 1.0
        assert snapshot["counters"]["rejected"]["total"] == 1.0
        assert snapshot["histograms"]["latency"]["count"] == 1
        names = {report["name"] for report in wired.slo_report()}
        assert names == {"availability", "latency"}


class TestIndexManager:
    def _manager(self, graph, **overrides):
        config = PPRConfig(alpha=ALPHA, epsilon=EPSILON, seed=SEED,
                           budget_scale=0.05, **overrides)
        manager = IndexManager(config, num_forests=6)
        manager.register_graph("test", graph)
        return manager

    def test_build_once_per_graph_alpha(self, graph):
        manager = self._manager(graph)
        first = manager.get_index("test")
        assert manager.get_index("test") is first
        assert manager.stats()["builds"] == 1
        other_alpha = manager.get_index("test", alpha=0.5)
        assert other_alpha is not first
        assert manager.stats()["builds"] == 2

    def test_unknown_graph_raises(self, graph):
        manager = self._manager(graph)
        with pytest.raises(ConfigError, match="unknown graph"):
            manager.get_index("nope")

    def test_solvers_share_one_bank_across_epsilon(self, graph):
        manager = self._manager(graph)
        tight = manager.get_solver("test", "source", epsilon=0.25)
        loose = manager.get_solver("test", "source", epsilon=0.5)
        assert tight is not loose
        assert tight.index is loose.index          # shared bank
        assert manager.stats()["builds"] == 1      # epsilon never rebuilds
        assert not tight._owns_index
        assert manager.get_solver("test", "source", epsilon=0.25) is tight

    def test_refresh_swaps_generation_and_drops_solvers(self, graph):
        manager = self._manager(graph)
        before = manager.get_index("test")
        solver = manager.get_solver("test", "source")
        assert manager.generation("test") == 0
        manager.refresh("test", block=True)
        after = manager.get_index("test")
        assert manager.generation("test") == 1
        assert after is not before
        # old bank object is untouched for in-flight holders
        assert before.num_forests == after.num_forests
        assert manager.get_solver("test", "source") is not solver
        # refreshed bank is deterministically different (new seed)
        assert not all(
            np.array_equal(a.roots, b.roots)
            for a, b in zip(before.forests, after.forests))

    def test_drop_and_memory_accounting(self, graph):
        manager = self._manager(graph)
        manager.warm("test")
        assert manager.memory_bytes() > 0
        stats = manager.stats()
        assert stats["memory_bytes"] == manager.memory_bytes()
        (bank_stats,) = stats["banks"].values()
        assert bank_stats["num_forests"] == 6
        manager.drop("test")
        assert manager.memory_bytes() == 0
        assert manager.stats()["banks"] == {}


class TestIndexManagerBankDir:
    """Generation-0 preload from a saved bank directory."""

    def _saved_bank(self, graph, tmp_path, **save_kwargs):
        index = ForestIndex.build(graph, ALPHA, 6, rng=SEED)
        index.save_bank(tmp_path / "bank", **save_kwargs)
        return index, str(tmp_path / "bank")

    def _manager(self, graph, bank_dir=None, **config_overrides):
        config = PPRConfig(alpha=ALPHA, epsilon=EPSILON, seed=SEED,
                           budget_scale=0.05, **config_overrides)
        manager = IndexManager(config, num_forests=6, bank_dir=bank_dir)
        manager.register_graph("test", graph)
        return manager

    def test_preload_skips_sampling_and_matches_the_saved_bank(
            self, graph, tmp_path):
        saved, bank_dir = self._saved_bank(graph, tmp_path)
        manager = self._manager(graph, bank_dir=bank_dir)
        index = manager.get_index("test")
        assert manager.stats()["builds"] == 1
        residuals = np.random.default_rng(1).random((2, graph.num_nodes))
        assert np.array_equal(saved.estimate_source_many(residuals),
                              index.estimate_source_many(residuals))

    def test_relabeled_bank_serves_identical_answers(self, graph,
                                                     tmp_path):
        saved, bank_dir = self._saved_bank(graph, tmp_path,
                                           node_order="degree")
        manager = self._manager(graph, bank_dir=bank_dir)
        index = manager.get_index("test")
        assert index.bank_node_order == "degree"
        residuals = np.random.default_rng(1).random((2, graph.num_nodes))
        assert np.array_equal(saved.estimate_source_many(residuals),
                              index.estimate_source_many(residuals))

    def test_refresh_resamples_instead_of_reloading(self, graph,
                                                    tmp_path):
        _, bank_dir = self._saved_bank(graph, tmp_path)
        manager = self._manager(graph, bank_dir=bank_dir)
        before = manager.get_index("test")
        manager.refresh("test", block=True)
        after = manager.get_index("test")
        assert after is not before
        assert after.forests  # sampled, not attached

    def test_alpha_mismatch_refused(self, graph, tmp_path):
        _, bank_dir = self._saved_bank(graph, tmp_path)
        manager = self._manager(graph, bank_dir=bank_dir)
        with pytest.raises(ConfigError, match="alpha"):
            manager.get_index("test", alpha=0.5)

    def test_bank_dir_rejects_dynamic(self, graph, tmp_path):
        _, bank_dir = self._saved_bank(graph, tmp_path)
        with pytest.raises(ConfigError, match="dynamic"):
            IndexManager(PPRConfig(alpha=ALPHA, seed=SEED),
                         dynamic=True, bank_dir=bank_dir)
        with pytest.raises(ConfigError, match="dynamic"):
            ServiceConfig(bank_dir=bank_dir, dynamic=True)


class TestBatchSolverLifecycle:
    def test_context_manager_and_close_idempotent(self, graph):
        with BatchSourceSolver(graph, alpha=ALPHA, epsilon=EPSILON,
                               seed=SEED, budget_scale=0.05,
                               num_forests=4) as solver:
            solver.query(0)
            assert not solver.closed
        assert solver.closed
        solver.close()  # idempotent
        with pytest.raises(ConfigError, match="closed"):
            solver.query(0)

    def test_injected_index_not_rebuilt_and_kept_open(self, graph):
        index = ForestIndex.build(graph, ALPHA, 4, rng=SEED)
        forests_before = list(index.forests)
        solver = BatchSourceSolver(graph, alpha=ALPHA, epsilon=EPSILON,
                                   seed=SEED, budget_scale=0.05,
                                   index=index)
        assert solver.index is index
        assert solver.stats()["owns_index"] is False
        solver.close()
        # borrowed bank survives the borrower
        assert index.forests == forests_before

    def test_injected_index_validation(self, graph):
        index = ForestIndex.build(graph, ALPHA, 2, rng=SEED)
        with pytest.raises(ConfigError, match="alpha"):
            BatchSourceSolver(graph, alpha=0.5, index=index)
        small = erdos_renyi(10, 0.3, rng=1)
        with pytest.raises(ConfigError, match="nodes"):
            BatchSourceSolver(small, alpha=ALPHA, index=index)

    def test_stats_track_queries(self, graph):
        with BatchTargetSolver(graph, alpha=ALPHA, epsilon=EPSILON,
                               seed=SEED, budget_scale=0.05,
                               num_forests=4) as solver:
            solver.query_many([0, 1, 2])
            stats = solver.stats()
            assert stats["queries_served"] == 3
            assert stats["push_work"] > 0
            assert stats["push_work_per_query"] == stats["push_work"] / 3
            assert stats["index_size_bytes"] > 0

    def test_query_is_query_many_of_one(self, graph):
        with BatchSourceSolver(graph, alpha=ALPHA, epsilon=EPSILON,
                               seed=SEED, budget_scale=0.05,
                               num_forests=4) as solver:
            alone = solver.query(3)
            batched = solver.query_many([3, 7, 11])[0]
            assert np.array_equal(alone.estimates, batched.estimates)


class TestScheduler:
    def _scheduler(self, graph, **overrides):
        manager = IndexManager(
            PPRConfig(alpha=ALPHA, epsilon=EPSILON, seed=SEED,
                      budget_scale=0.05), num_forests=4)
        manager.register_graph("test", graph)
        defaults = dict(max_batch=8, max_wait_ms=5.0, queue_capacity=8)
        defaults.update(overrides)
        return MicroBatchScheduler(manager, **defaults)

    def test_empty_deadline_flush_is_noop(self, graph):
        scheduler = self._scheduler(graph, max_wait_ms=1.0)
        scheduler.start()
        try:
            time.sleep(0.05)  # several empty deadline windows pass
            assert scheduler.batches_executed == 0
            assert scheduler.queue_depth == 0
            result = scheduler.submit(QueryRequest(
                graph="test", kind="source", node=0,
                alpha=ALPHA, epsilon=EPSILON))
            assert result.query_node == 0
        finally:
            scheduler.stop()

    def test_full_queue_rejects_with_retry_after(self, graph):
        scheduler = self._scheduler(graph, queue_capacity=2)
        # not started: admissions accumulate
        for node in (0, 1):
            scheduler.submit_nowait(QueryRequest(
                graph="test", kind="source", node=node,
                alpha=ALPHA, epsilon=EPSILON))
        with pytest.raises(SchedulerFull) as excinfo:
            scheduler.submit_nowait(QueryRequest(
                graph="test", kind="source", node=2,
                alpha=ALPHA, epsilon=EPSILON))
        assert excinfo.value.depth == 2
        assert excinfo.value.retry_after > 0
        assert scheduler.queue_depth == 2

    def test_mixed_epsilon_never_shares_a_batch(self, graph):
        scheduler = self._scheduler(graph, max_batch=16, max_wait_ms=20.0)
        pendings = []
        for node in range(4):
            pendings.append(scheduler.submit_nowait(QueryRequest(
                graph="test", kind="source", node=node,
                alpha=ALPHA, epsilon=0.5)))
        for node in range(3):
            pendings.append(scheduler.submit_nowait(QueryRequest(
                graph="test", kind="source", node=node,
                alpha=ALPHA, epsilon=0.25)))
        assert len({p.request.group_key for p in pendings}) == 2
        scheduler.start()
        try:
            results = [p.resolve(timeout=30.0) for p in pendings]
        finally:
            scheduler.stop()
        # each answer was solved at its own epsilon, in exactly 2 batches
        assert [r.epsilon for r in results] == [0.5] * 4 + [0.25] * 3
        assert scheduler.batches_executed == 2

    def test_each_kind_batches_separately(self):
        """Top-k and pairwise queries have their own batching rules:
        every kind groups only with itself (same graph/α/ε)."""
        requests = {
            "source": QueryRequest(graph="g", kind="source", node=5,
                                   alpha=0.1, epsilon=0.5),
            "target": QueryRequest(graph="g", kind="target", node=5,
                                   alpha=0.1, epsilon=0.5),
            "pair": QueryRequest(graph="g", kind="pair", node=5,
                                 alpha=0.1, epsilon=0.5, source=2),
            "topk": QueryRequest(graph="g", kind="topk", node=5,
                                 alpha=0.1, epsilon=0.5, k=3),
            "multiseed": QueryRequest(graph="g", kind="multiseed",
                                      node=5, alpha=0.1, epsilon=0.5,
                                      seeds=[5, 7], weights=[0.5, 0.5]),
        }
        for kind, request in requests.items():
            assert request.solver_kind == kind
        keys = {request.group_key for request in requests.values()}
        assert len(keys) == len(requests)
        with pytest.raises(ConfigError, match="source="):
            QueryRequest(graph="g", kind="pair", node=5, alpha=0.1,
                         epsilon=0.5)
        with pytest.raises(ConfigError, match="k"):
            QueryRequest(graph="g", kind="topk", node=5, alpha=0.1,
                         epsilon=0.5)
        with pytest.raises(ConfigError, match="seeds"):
            QueryRequest(graph="g", kind="multiseed", node=5, alpha=0.1,
                         epsilon=0.5)

    def test_payload_items_per_kind(self):
        pair = QueryRequest(graph="g", kind="pair", node=5, alpha=0.1,
                            epsilon=0.5, source=2)
        topk = QueryRequest(graph="g", kind="topk", node=5, alpha=0.1,
                            epsilon=0.5, k=3)
        multi = QueryRequest(graph="g", kind="multiseed", node=5,
                             alpha=0.1, epsilon=0.5, seeds=[5, 7],
                             weights=[0.25, 0.75])
        plain = QueryRequest(graph="g", kind="source", node=5,
                             alpha=0.1, epsilon=0.5)
        assert pair.payload_item == (2, 5)
        assert topk.payload_item == (5, 3)
        assert multi.payload_item == ((5, 7), (0.25, 0.75))
        assert plain.payload_item == 5

    def test_batched_results_match_direct_solver(self, graph):
        scheduler = self._scheduler(graph, max_batch=4, max_wait_ms=2.0)
        scheduler.start()
        try:
            results = [scheduler.submit(QueryRequest(
                graph="test", kind="source", node=node,
                alpha=ALPHA, epsilon=EPSILON)) for node in range(5)]
        finally:
            scheduler.stop()
        direct = scheduler.index_manager.get_solver(
            "test", "source", alpha=ALPHA, epsilon=EPSILON)
        for node, result in enumerate(results):
            assert np.array_equal(result.estimates,
                                  direct.query(node).estimates)


class TestPPRService:
    def test_query_caches_and_is_deterministic(self, service):
        first, hit_first = service.query_result("source", 5)
        again, hit_again = service.query_result("source", 5)
        assert not hit_first and hit_again
        assert np.array_equal(first.estimates, again.estimates)

    def test_node_validation_before_admission(self, service):
        with pytest.raises(ConfigError, match="out of range"):
            service.query_result("source", 10_000)
        with pytest.raises(ConfigError, match="kind"):
            service.query_result("walks", 0)

    def test_query_payload_shape(self, service):
        payload = service.query("source", 3, top=5)
        assert payload["kind"] == "source"
        assert payload["alpha"] == ALPHA
        assert len(payload["top"]) == 5
        assert payload["top"] == sorted(payload["top"], key=lambda kv: -kv[1])
        assert payload["work"]["pushes"] >= 0

    def test_pair_matches_target_column(self, service):
        payload = service.pair(2, 9)
        target_result, _ = service.query_result("target", 9)
        assert payload["value"] == target_result[2]
        with pytest.raises(ConfigError, match="source"):
            service.pair(10_000, 9)

    def test_healthz_and_metrics_populated(self, service):
        service.query("source", 1)
        health = service.healthz()
        assert health["status"] == "ok"
        assert health["graph"] == "test"
        assert health["num_nodes"] == 300
        assert health["requests"] >= 1
        assert health["batches"] >= 1
        assert health["index"]["builds"] >= 1
        text = service.metrics_text()
        assert "repro_service_queue_depth 0.0" in text
        assert 'repro_service_cache{stat="hits"}' in text
        assert 'repro_service_index_bytes{bank="test@0.2"}' in text
        assert health["observability"]["tracing"]["sample_rate"] == 0.0
        assert health["observability"]["slowlog"]["written"] >= 0

    def test_results_match_standalone_manager(self, graph, service,
                                              service_config):
        """Service answers == direct solver calls from a fresh manager."""
        fresh = PPRService(service_config, graph=graph).index_manager
        direct = fresh.get_solver("test", "source", alpha=ALPHA,
                                  epsilon=EPSILON)
        for node in (0, 5, 17):
            served, _ = service.query_result("source", node,
                                             use_cache=False)
            assert np.array_equal(served.estimates,
                                  direct.query(node).estimates)


class TestQuerySurface:
    """The three first-class query kinds, end to end through the
    service facade: scheduler batching, cache policy, and the
    estimator identities each kind is built on."""

    def test_multiseed_is_weighted_sum_bit_identical(self, service):
        seeds, weights = [0, 5, 17], [0.2, 0.3, 0.5]
        combined, _ = service.multiseed_result(seeds, weights,
                                               use_cache=False)
        manual = np.zeros(300)
        for seed, weight in zip(seeds, weights):
            row, _ = service.query_result("source", seed, use_cache=False)
            manual += weight * row.estimates
        assert np.array_equal(combined.estimates, manual)

    def test_topk_is_prefix_of_full_vector_ranking(self, service):
        """At a fixed seed the early-terminating answer agrees with
        the full-budget ranking over the same forest stream, and the
        full-budget rankings are exact prefixes of each other."""
        from repro.core.topk import BatchTopKSolver
        served, _ = service.topk_result(3, 5, use_cache=False)
        solver = service.index_manager.get_solver(
            "test", "topk", alpha=ALPHA, epsilon=EPSILON)
        full = BatchTopKSolver(service.index_manager.graph("test"),
                               config=solver.config, early_stop=False,
                               max_forests=solver.max_forests)
        try:
            full10 = full.query_topk(3, 10)
            full5 = full.query_topk(3, 5)
        finally:
            full.close()
        # deeper full-budget rankings extend shallower ones exactly
        assert full5.nodes.tolist() == full10.nodes.tolist()[:5]
        # the early-stopped set matches the full-budget set at k
        overlap = len(set(served.nodes.tolist())
                      & set(full5.nodes.tolist()))
        assert overlap >= 4
        if not served.converged:
            assert served.nodes.tolist() == full5.nodes.tolist()

    def test_pair_agrees_with_full_vector_entry(self, service):
        result, _ = service.pair_result(2, 9, use_cache=False)
        column, _ = service.query_result("target", 9, use_cache=False)
        assert float(result) == column[2]
        assert result.method == "batch-pair"

    def test_topk_cache_prefix_dominance(self, service):
        node = 11
        deep, hit_deep = service.topk_result(node, 8)
        shallow, hit_shallow = service.topk_result(node, 5)
        assert not hit_deep and hit_shallow
        # the shallow hit is served as an exact prefix of the deep entry
        assert shallow.nodes.tolist() == deep.nodes.tolist()[:5]
        assert np.array_equal(shallow.estimates, deep.estimates[:5])
        # a deeper request than any cached entry must miss
        deeper, hit_deeper = service.topk_result(node, 10)
        assert not hit_deeper
        assert deeper.k == 10

    def test_topk_and_multiseed_payload_shapes(self, service):
        topk = service.query_topk(4, 3)
        assert topk["kind"] == "topk"
        assert topk["k"] == 3
        assert len(topk["top"]) == 3
        assert isinstance(topk["converged"], bool)
        assert topk["num_forests"] >= 1
        assert topk["work"]["forests_sampled"] >= 1
        multi = service.query_multiseed([4, 9], top=5)
        assert multi["kind"] == "multiseed"
        assert multi["seeds"] == [4, 9]
        assert multi["weights"] == [0.5, 0.5]
        assert len(multi["top"]) == 5
        assert multi["total_mass"] == pytest.approx(1.0, abs=1e-9)

    def test_admission_guards(self, service):
        with pytest.raises(ConfigError, match="topk_max_k"):
            service.query_topk(0, service.config.topk_max_k + 1)
        with pytest.raises(ConfigError, match="multiseed_max_seeds"):
            service.query_multiseed(
                list(range(service.config.multiseed_max_seeds + 1)))
        with pytest.raises(ConfigError):
            service.query_topk(10_000, 3)
        with pytest.raises(ConfigError):
            service.query_multiseed([0, 10_000])

    def test_per_kind_request_counters(self, service):
        service.query_topk(6, 3)
        service.query_multiseed([6, 8])
        service.pair(6, 8)
        text = service.metrics_text()
        for kind in ("topk", "multiseed", "pair"):
            assert (f'repro_service_requests_total{{endpoint="{kind}"}}'
                    in text)
        assert_prometheus_exposition(text)


class TestHTTP:
    def _get(self, url):
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.read()

    def _post(self, url, payload):
        body = json.dumps(payload).encode()
        request = urllib.request.Request(
            url, data=body, headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())

    def test_healthz(self, base_url):
        status, body = self._get(f"{base_url}/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

    def test_query_roundtrip(self, base_url):
        status, payload = self._post(f"{base_url}/query",
                                     {"kind": "source", "node": 4, "top": 3})
        assert status == 200
        assert payload["node"] == 4
        assert len(payload["top"]) == 3

    def test_pair_roundtrip(self, base_url):
        status, payload = self._post(f"{base_url}/pair",
                                     {"source": 1, "target": 6})
        assert status == 200
        assert isinstance(payload["value"], float)

    def test_topk_roundtrip(self, base_url):
        status, payload = self._post(f"{base_url}/topk",
                                     {"node": 4, "k": 3})
        assert status == 200
        assert payload["kind"] == "topk"
        assert len(payload["top"]) == 3
        assert isinstance(payload["converged"], bool)

    def test_multiseed_roundtrip(self, base_url):
        status, payload = self._post(
            f"{base_url}/multiseed",
            {"seeds": [1, 6], "weights": [0.25, 0.75], "top": 4})
        assert status == 200
        assert payload["kind"] == "multiseed"
        assert payload["seeds"] == [1, 6]
        assert payload["weights"] == [0.25, 0.75]
        assert len(payload["top"]) == 4

    def test_bad_requests(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(f"{base_url}/query", {"kind": "source"})  # no node
        assert excinfo.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(f"{base_url}/query",
                       {"kind": "source", "node": 10_000})
        assert excinfo.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(f"{base_url}/topk", {"node": 4})  # no k
        assert excinfo.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(f"{base_url}/multiseed", {"seeds": []})
        assert excinfo.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(f"{base_url}/nope")
        assert excinfo.value.code == 404

    @staticmethod
    def _steady(path, body):
        """``body`` minus the fields that move between two GETs."""
        if path == "/metrics":
            return body
        payload = json.loads(body)
        payload.pop("uptime_seconds")
        payload.pop("windows", None)  # rolling rates over wall time
        payload.pop("slo", None)
        return payload

    @pytest.mark.parametrize("path", ["/healthz", "/metrics", "/statusz"])
    def test_get_ignores_query_arguments(self, base_url, path):
        plain = self._get(f"{base_url}{path}")
        status, body = self._get(f"{base_url}{path}?verbose=1&x=")
        assert (status, self._steady(path, body)) == (
            plain[0], self._steady(path, plain[1]))
        assert status == 200

    def test_get_unknown_path_is_404_with_request_id(self, base_url):
        request = urllib.request.Request(
            f"{base_url}/healthzz?verbose=1",
            headers={"X-Request-Id": "rid-get-404"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 404
        assert excinfo.value.headers["X-Request-Id"] == "rid-get-404"

    def test_metrics_endpoint(self, base_url):
        self._post(f"{base_url}/query", {"kind": "source", "node": 2})
        status, body = self._get(f"{base_url}/metrics")
        assert status == 200
        text = body.decode()
        assert "repro_service_batches_total" in text
        assert "repro_service_latency_seconds_bucket" in text
        assert 'repro_service_stage_seconds_bucket{stage="batch_wait"' \
            in text
        assert_prometheus_exposition(text)

    def test_tenant_attribution_over_http(self, base_url):
        body = json.dumps({"kind": "source", "node": 9}).encode()
        request = urllib.request.Request(
            f"{base_url}/query", data=body,
            headers={"Content-Type": "application/json",
                     "X-Tenant": "acme"})
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.status == 200
        # a tenant query argument works too (header wins when both)
        self._post(f"{base_url}/query?tenant=beta",
                   {"kind": "source", "node": 10})
        _, metrics_body = self._get(f"{base_url}/metrics")
        text = metrics_body.decode()
        for tenant in ("acme", "beta"):
            assert (f'repro_service_tenant_requests_total'
                    f'{{tenant="{tenant}"}}') in text
            assert (f'repro_service_tenant_latency_seconds_count'
                    f'{{tenant="{tenant}"}}') in text
        assert_prometheus_exposition(text)

    def test_statusz_endpoint(self, base_url):
        self._post(f"{base_url}/query?tenant=acme",
                   {"kind": "source", "node": 11})
        status, body = self._get(f"{base_url}/statusz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["graph"] == "test"
        assert payload["totals"]["requests"] >= 1
        assert set(payload["windows"]) == {"60s", "300s"}
        assert payload["windows"]["60s"]["counters"]["requests"][
            "total"] >= 1
        slo_states = {report["name"]: report["state"]
                      for report in payload["slo"]}
        assert set(slo_states) == {"availability", "latency"}
        tenants = {row["tenant"] for row in payload["tenants"]}
        assert "acme" in tenants

    def test_request_id_echoed_on_get_and_errors(self, base_url):
        with urllib.request.urlopen(f"{base_url}/healthz",
                                    timeout=10) as response:
            assert response.headers["X-Request-Id"]  # minted
        for url, data in ((f"{base_url}/nope", None),
                          (f"{base_url}/nope", b"{}"),
                          (f"{base_url}/query", b'{"kind": "source"}')):
            request = urllib.request.Request(
                url, data=data,
                headers={"Content-Type": "application/json",
                         "X-Request-Id": "rid-err-1"})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code in (400, 404)
            assert excinfo.value.headers["X-Request-Id"] == "rid-err-1"

    def test_request_id_echoed_and_propagated(self, base_url):
        body = json.dumps({"kind": "source", "node": 7}).encode()
        request = urllib.request.Request(
            f"{base_url}/query?debug=1", data=body,
            headers={"Content-Type": "application/json",
                     "X-Request-Id": "trace-me-42"})
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.headers["X-Request-Id"] == "trace-me-42"
            payload = json.loads(response.read())
        debug = payload["debug"]
        assert debug["request_id"] == "trace-me-42"
        assert debug["trace"]["name"] == "query"
        assert debug["trace"]["attrs"]["request_id"] == "trace-me-42"
        # a minted id comes back when the client sends none
        request = urllib.request.Request(
            f"{base_url}/query", data=body,
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.headers["X-Request-Id"]
            payload = json.loads(response.read())
        assert "debug" not in payload


class TestAdmissionHardening:
    """Inputs that used to slip past admission: non-finite ε and α, a
    non-positive ``top``, and loosely typed JSON fields.  Each now
    fails with a 400 before the scheduler (or any solver) sees it."""

    def _post(self, url, body, headers=None):
        data = body.encode() if isinstance(body, str) \
            else json.dumps(body).encode()
        request = urllib.request.Request(
            url, data=data, headers={"Content-Type": "application/json",
                                     **(headers or {})})
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_epsilon_and_alpha_rejected(self, base_url,
                                                   service, value):
        solvers = len(service.index_manager._solvers)
        misses = service.cache.stats()["misses"]
        for path, body in (
                ("/query", '{"kind": "source", "node": 3, '
                           f'"epsilon": {value}}}'),
                ("/topk", f'{{"node": 3, "k": 3, "epsilon": {value}}}'),
                ("/pair", f'{{"source": 1, "target": 6, "alpha": {value}}}'),
                ("/multiseed", f'{{"seeds": [1, 6], "alpha": {value}}}')):
            for _ in range(3):
                status, payload = self._post(base_url + path, body)
                assert status == 400, (path, payload)
                assert "must" in payload["error"]
        # no solver keyed on a non-finite value, no cache probe
        assert len(service.index_manager._solvers) == solvers
        assert service.cache.stats()["misses"] == misses

    def test_non_positive_top_is_an_admission_error(self, base_url,
                                                    service):
        before = dict(service.metrics.snapshot()["requests"])
        for number, (path, body) in enumerate((
                ("/query", {"kind": "source", "node": 3, "top": -1}),
                ("/multiseed", {"seeds": [1, 6], "top": 0}))):
            status, payload = self._post(
                base_url + path, body,
                {"X-Tenant": "top-check", "X-Request-Id": f"top-{number}"})
            assert status == 400
            assert "top must be >= 1" in payload["error"]
            [entry] = [entry for entry in service.slowlog.recent()
                       if entry["request_id"] == f"top-{number}"]
            assert entry["status"] == "error"
            assert "top must be >= 1" in entry["error"]
        # counted as failures, never as served requests
        assert service.metrics.snapshot()["requests"] == before
        [row] = [row for row in service.metrics.tenant_table()
                 if row["tenant"] == "top-check"]
        assert (row["requests"], row["errors"]) == (0, 2)

    @pytest.mark.parametrize("path,body,message", [
        ("/multiseed", {"seeds": "123"}, "seeds must be a JSON array"),
        ("/multiseed", {"seeds": [1, 6], "weights": "12"},
         "weights must be a JSON array"),
        ("/multiseed", {"seeds": [1, True]}, "seeds must be an integer"),
        ("/query", {"kind": "source", "node": True},
         "node must be an integer"),
        ("/query", {"kind": "source", "node": 3, "top": 2.5},
         "top must be an integer"),
        ("/topk", {"node": 4, "k": "3"}, "k must be an integer"),
        ("/pair", {"source": 1.9, "target": 6},
         "source must be an integer"),
        ("/pair", {"source": 1, "target": False},
         "target must be an integer"),
    ])
    def test_loosely_typed_fields_rejected(self, base_url, path, body,
                                           message):
        status, payload = self._post(base_url + path, body)
        assert status == 400
        assert message in payload["error"]

    def test_integral_floats_still_accepted(self, base_url):
        status, exact = self._post(f"{base_url}/pair",
                                   {"source": 1, "target": 6})
        assert status == 200
        status, integral = self._post(f"{base_url}/pair",
                                      {"source": 1.0, "target": 6.0})
        assert status == 200
        assert integral["source"] == 1
        assert integral["value"] == exact["value"]


class TestSLOIntegration:
    """A burn-rate alert fires under injected latency pressure and
    clears once the fast window recovers."""

    def test_latency_alert_fires_and_clears(self, graph):
        config = ServiceConfig(
            graph="test", alpha=ALPHA, epsilon=EPSILON,
            budget_scale=0.05, seed=SEED, max_batch=8,
            max_wait_ms=2.0, cache_entries=0, port=0,
            # hair-trigger latency SLO: every request breaches
            slo_latency_ms=0.001, slo_fast_window_s=1.0,
            slo_slow_window_s=5.0, slo_burn_threshold=1.0)
        with PPRService(config, graph=graph) as service:
            for node in range(10):
                service.query("source", node, top=3, tenant="acme")
            fired = {report["name"]: report
                     for report in service.statusz()["slo"]}
            assert fired["latency"]["state"] == "firing"
            assert fired["latency"]["fast_burn"] >= 1.0
            # no errors: availability stays healthy throughout
            assert fired["availability"]["state"] == "ok"
            # evaluate past the windows: the bad events age out and
            # the state machine transitions back to ok
            later = time.monotonic() + 30.0
            cleared = {report["name"]: report
                       for report in service.statusz(now=later)["slo"]}
            assert cleared["latency"]["state"] == "ok"
            transitions = [entry["state"] for entry
                           in cleared["latency"]["transitions"]]
            assert transitions[-2:] == ["firing", "ok"]
