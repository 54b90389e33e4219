"""The PPR query service facade: one request pipeline for every kind.

:class:`PPRService` is the embeddable composition of the four serving
components — :class:`~repro.service.index_manager.IndexManager`,
:class:`~repro.service.scheduler.MicroBatchScheduler`,
:class:`~repro.service.cache.ResultCache`,
:class:`~repro.service.metrics.ServiceMetrics` — behind the query
endpoints :meth:`query`, :meth:`query_topk`, :meth:`query_multiseed`,
:meth:`pair`, the graph-mutation verb :meth:`mutate` and :meth:`healthz`
(plus :meth:`metrics_text` for Prometheus scrapes).  Every query kind
runs the same stages — admission, cache, scheduler, serialize, slow
log — and supplies only its admission check, cache policy and rendered
body.  :mod:`repro.service.http` routes JSON to exactly these methods;
benchmarks and tests drive the facade in-process.

Every answer is bit-identical to a direct batch-solver call (e.g.
:class:`~repro.core.batch.BatchSourceSolver`) against the same bank —
batching and caching change latency and throughput, never the
estimates.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from functools import partial
from typing import Any, NamedTuple

from repro.core.batch import normalize_seed_set
from repro.core.result import PPRResult
from repro.exceptions import ConfigError
from repro.graph.csr import Graph
from repro.graph.datasets import load_dataset
from repro.graph.delta import GraphDelta
from repro.obs.slo import SLOEngine, default_specs
from repro.obs.slowlog import SlowLog
from repro.obs.timeseries import TimeSeriesStore
from repro.obs.tracing import NULL_SPAN, Tracer, new_request_id
from repro.service.cache import ResultCache, cache_key
from repro.service.config import ServiceConfig
from repro.service.index_manager import IndexManager
from repro.service.metrics import ServiceMetrics
from repro.service.scheduler import (
    MicroBatchScheduler,
    QueryRequest,
    SchedulerFull,
)

__all__ = ["PPRService"]


class _Admitted(NamedTuple):
    """What a kind's admission check hands the request pipeline."""

    fields: dict                    # kind-specific QueryRequest fields
    item: object                    # the cache-key item
    render: Callable[[Any], dict]   # result → fields ahead of ``cached``
    head: dict | None = None        # fields ahead of ``alpha``, or fields
    prefix_cache: bool = False      # top-k prefix dominance, else ε
    echo_work: bool = True          # append the ``work`` counters


def _node_in_range(label: str, node: int, num_nodes: int) -> int:
    node = int(node)
    if not 0 <= node < num_nodes:
        raise ConfigError(f"{label} {node} out of range [0, {num_nodes})")
    return node


def _vector_body(result, top: int) -> dict:
    return {"method": result.method, "total_mass": result.total_mass,
            "top": [[node, score] for node, score in result.top_k(top)]}


def _topk_body(result) -> dict:
    return {"converged": bool(result.converged),
            "num_forests": int(result.num_forests),
            "top": [[node, score] for node, score in result.as_pairs()]}


def _pair_body(result) -> dict:
    return {"value": float(result), "method": result.method}


class PPRService:
    """Long-lived serving layer over one (or more) registered graphs.

    Examples
    --------
    >>> from repro.graph.generators import erdos_renyi
    >>> from repro.service import PPRService, ServiceConfig
    >>> config = ServiceConfig(graph="demo", alpha=0.2, seed=7,
    ...                        max_wait_ms=1.0, budget_scale=0.05)
    >>> with PPRService(config, graph=erdos_renyi(40, 0.2, rng=7)) as svc:
    ...     payload = svc.query("source", 0, top=3)
    >>> payload["kind"], len(payload["top"])
    ('source', 3)
    """

    def __init__(self, config: ServiceConfig | None = None, *,
                 graph: Graph | None = None):
        self.config = config or ServiceConfig()
        if graph is None:
            graph = load_dataset(self.config.graph, scale=self.config.scale)
        self.tracer = Tracer(self.config.trace_sample_rate,
                             capacity=self.config.trace_buffer,
                             seed=self.config.seed)
        self.slowlog = SlowLog(
            self.config.slowlog_path,
            threshold_ms=self.config.slowlog_threshold_ms,
            max_bytes=self.config.slowlog_max_bytes)
        # continuous telemetry: rolling windows sized to cover the
        # longest SLO window plus the 300 s /statusz view, and the two
        # built-in burn-rate SLOs (availability + latency threshold)
        self.timeseries = TimeSeriesStore(
            interval=1.0,
            capacity=int(max(300.0, self.config.slo_slow_window_s)) + 60)
        self.slo = SLOEngine(default_specs(
            availability_objective=self.config.slo_availability_objective,
            latency_objective=self.config.slo_latency_objective,
            latency_threshold_ms=self.config.slo_latency_ms,
            fast_window_s=self.config.slo_fast_window_s,
            slow_window_s=self.config.slo_slow_window_s,
            burn_threshold=self.config.slo_burn_threshold))
        self.index_manager = IndexManager(
            self.config.ppr_config(), tracer=self.tracer,
            dynamic=self.config.dynamic, shards=self.config.shards,
            shard_strategy=self.config.shard_strategy,
            bank_dir=self.config.bank_dir)
        self.index_manager.register_graph(self.config.graph, graph)
        self.cache = ResultCache(self.config.cache_entries)
        self.metrics = ServiceMetrics(timeseries=self.timeseries,
                                      slo=self.slo)
        self.executor = None
        if self.config.shards > 1:
            from repro.shard.router import ShardRouter

            self.executor = ShardRouter(
                self.index_manager,
                workers_per_shard=self.config.workers,
                metrics=self.metrics)
        elif self.config.executor == "process":
            from repro.service.executor import ProcessExecutor

            self.executor = ProcessExecutor(
                self.index_manager, workers=self.config.workers)
        self.scheduler = MicroBatchScheduler(
            self.index_manager,
            max_batch=self.config.max_batch,
            max_wait_ms=self.config.max_wait_ms,
            queue_capacity=self.config.queue_capacity,
            metrics=self.metrics,
            # one flush thread per worker so the pool actually fills
            executors=(self.executor.num_workers
                       if self.executor is not None else 1),
            executor=self.executor)
        self.metrics.register_gauge(
            "repro_service_queue_depth",
            lambda: float(self.scheduler.queue_depth))
        if self.executor is not None:
            self.metrics.register_gauge(
                "repro_service_executor_queue_depth",
                lambda: float(self.executor.in_flight))
            self.metrics.register_gauge(
                "repro_service_executor_utilization",
                lambda: {f'{{worker="{worker}"}}': value
                         for worker, value
                         in enumerate(self.executor.utilization())})
            self.metrics.register_gauge(
                "repro_service_executor_tasks",
                lambda: {f'{{worker="{worker}"}}': float(value)
                         for worker, value in enumerate(
                             self.executor.stats()["tasks_done"])})
        self.metrics.register_gauge(
            "repro_service_cache",
            lambda: {f'{{stat="{key}"}}': float(value)
                     for key, value in self.cache.stats().items()})
        self.metrics.register_gauge(
            "repro_service_index_bytes",
            lambda: {f'{{bank="{bank}"}}': float(entry["size_bytes"])
                     for bank, entry
                     in self.index_manager.stats()["banks"].items()}
            or {"": 0.0})
        self._started_at = time.time()
        self._running = False

    # -- lifecycle -----------------------------------------------------
    def start(self, warm: bool = True) -> "PPRService":
        """Warm the default bank and start the scheduler; idempotent.

        In process-executor mode the worker pool forks here — before
        the scheduler threads start — and each worker warm-attaches
        the shared bank so the first real batch pays no attach cost.
        """
        if warm:
            self.index_manager.warm(self.config.graph, self.config.alpha)
        if self.executor is not None:
            self.executor.start()
            if warm:
                self.executor.warm(self.config.graph, self.config.alpha)
        self.scheduler.start()
        self._running = True
        return self

    def stop(self) -> None:
        """Drain the scheduler, stop the pool, unlink shared segments."""
        if self._running:
            self.scheduler.stop(drain=True)
            self._running = False
        if self.executor is not None:
            self.executor.shutdown()
        self.index_manager.close_shared()
        self.slowlog.close()

    def __enter__(self) -> "PPRService":
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False

    # -- the request pipeline ------------------------------------------
    def _serve(self, check, alpha: float | None, epsilon: float | None,
               use_cache: bool, span=NULL_SPAN, tenant: str | None = None):
        """Admission → cache → scheduler, the same for every query kind.

        ``check(num_nodes=n)`` is the kind's admission check; it runs
        before queueing, so a bad request never fails a micro-batch.
        Returns ``(result, was_cache_hit, admitted, meta)``; ``meta``
        says how the request was served, for the slow log.
        """
        started = time.perf_counter()
        with span.child("admission"):
            alpha = self.config.alpha if alpha is None else float(alpha)
            epsilon = self.config.epsilon if epsilon is None else float(epsilon)
            defaults = self.index_manager.config
            if (alpha, epsilon) != (defaults.alpha, defaults.epsilon):
                # the PPRConfig checks, before a bad value can key a
                # solver (NaN never equals itself) or fail a batch
                defaults.with_overrides(alpha=alpha, epsilon=epsilon)
            admitted = check(num_nodes=self.index_manager.graph(
                self.config.graph).num_nodes)
            request = QueryRequest(graph=self.config.graph, alpha=alpha,
                                   epsilon=epsilon, tenant=tenant,
                                   **admitted.fields)
            key = cache_key(self.config.graph, "batch", request.kind,
                            admitted.item, alpha)
        self.metrics.record_stage("admission",
                                  time.perf_counter() - started)
        hit = None
        if use_cache:
            lookup_started = time.perf_counter()
            with span.child("cache_lookup"):
                hit = (self.cache.get_topk(key, epsilon, request.k)
                       if admitted.prefix_cache
                       else self.cache.get(key, epsilon))
            self.metrics.record_stage(
                "cache_lookup", time.perf_counter() - lookup_started)
        meta: dict = {"batch_size": None, "disposition": "cache"}
        if hit is not None:
            span.annotate(cached=True)
            result = hit
        else:
            try:
                pending = self.scheduler.submit_nowait(request, span)
                result = pending.resolve(30.0)
            except SchedulerFull:
                self.metrics.record_rejection(tenant=tenant)
                raise
            if use_cache and admitted.prefix_cache:
                self.cache.put_topk(key, epsilon, result.k, result)
            elif use_cache:
                self.cache.put(key, epsilon, result)
            meta = {"batch_size": pending.batch_size,
                    "disposition": pending.disposition}
        self.metrics.record_request(
            request.kind, time.perf_counter() - started, tenant=tenant,
            work=None if hit is not None else result.work.as_dict())
        return result, hit is not None, admitted, meta

    def _respond(self, endpoint: str, check, annotations: dict,
                 alpha: float | None, epsilon: float | None,
                 use_cache: bool, request_id: str | None,
                 tenant: str | None, debug: bool) -> dict:
        """The envelope of every JSON query endpoint: root span →
        :meth:`_serve` → serialize → :meth:`_finish`.

        ``annotations`` label the root span before admission runs; a
        failed request is slow-logged under their ``kind`` (default:
        the endpoint) and ``node`` (a pair's ``target``, else -1).
        """
        request_id = request_id or new_request_id()
        span = self.tracer.trace(endpoint, request_id, force=debug)
        span.annotate(endpoint=endpoint, **annotations)
        if tenant:
            span.annotate(tenant=tenant)
        started = time.perf_counter()
        try:
            result, hit, admitted, meta = self._serve(
                check, alpha, epsilon, use_cache, span, tenant)
        except BaseException as error:
            self._finish(
                span, request_id, started, error=error, tenant=tenant,
                endpoint=endpoint, kind=annotations.get("kind", endpoint),
                node=annotations.get("node", annotations.get("target", -1)),
                alpha=self.config.alpha if alpha is None else float(alpha),
                epsilon=(self.config.epsilon if epsilon is None
                         else float(epsilon)))
            raise
        work = result.work.as_dict()
        with span.child("serialize"):
            serialize_started = time.perf_counter()
            payload = {**(admitted.head or admitted.fields),
                       "alpha": result.alpha, "epsilon": result.epsilon,
                       **admitted.render(result), "cached": hit}
            if admitted.echo_work:
                payload["work"] = work
            self.metrics.record_stage(
                "serialize", time.perf_counter() - serialize_started)
        return self._finish(
            span, request_id, started, payload, meta, debug,
            endpoint=endpoint, kind=admitted.fields["kind"],
            node=admitted.fields["node"], alpha=result.alpha,
            epsilon=result.epsilon, cached=hit, work=work)

    def _finish(self, span, request_id: str, started: float,
                payload: dict | None = None, meta: dict | None = None,
                debug: bool = False, *, error: BaseException | None = None,
                tenant: str | None = None, **record) -> dict | None:
        """Close a request: finish its trace, slow-log it with ``meta``
        (how it was served) and ``record``, and add the ``debug`` block
        when asked.  A failure (``error``) always reaches the slow log
        and, unless it was a rejection, the availability SLO."""
        text = None
        if error is not None:
            text = f"{type(error).__name__}: {error}"
            if not isinstance(error, SchedulerFull):
                # rejections were already counted (once) on the submit
                # path; everything else is an availability-SLO failure
                self.metrics.record_failure(tenant=tenant)
            span.finish(error=text)
        tree = self.tracer.finish(span)
        meta = meta or {}
        self.slowlog.record(request_id=request_id,
                            seconds=time.perf_counter() - started,
                            error=text, trace=tree, **meta, **record)
        if debug and payload is not None:
            payload["debug"] = {"request_id": request_id, "trace": tree,
                                **meta,
                                "counters": self.metrics.snapshot()["work"]}
        return payload

    # -- admission checks, one per query kind --------------------------
    def _admit_vector(self, kind: str, node: int, top: int = 1, *,
                      num_nodes: int) -> _Admitted:
        """``/query``: one source or target node, the full vector."""
        if kind not in ("source", "target"):
            raise ConfigError(f"kind must be 'source' or 'target', "
                              f"got {kind!r}")
        node = _node_in_range(f"{kind} node", node, num_nodes)
        if top < 1:
            raise ConfigError(f"top must be >= 1, got {top}")
        return _Admitted({"kind": kind, "node": node}, node,
                         partial(_vector_body, top=top))

    def _admit_topk(self, node: int, k: int, *,
                    num_nodes: int) -> _Admitted:
        """``/topk``: a source node and a ranking depth within limits."""
        node, k = _node_in_range("source node", node, num_nodes), int(k)
        if not 1 <= k < num_nodes:
            raise ConfigError(f"k must lie in [1, {num_nodes})")
        if k > self.config.topk_max_k:
            raise ConfigError(
                f"k={k} exceeds the admission limit "
                f"topk_max_k={self.config.topk_max_k}")
        # prefix dominance: a deeper cached ranking of the node serves
        # any shallower k, so the key leaves k out
        return _Admitted({"kind": "topk", "node": node, "k": k}, node,
                         _topk_body, prefix_cache=True)

    def _admit_multiseed(self, seeds, weights, top: int = 1, *,
                         num_nodes: int) -> _Admitted:
        """``/multiseed``: the canonical seed set, within limits."""
        seeds, weights = normalize_seed_set(seeds, weights, num_nodes)
        if len(seeds) > self.config.multiseed_max_seeds:
            raise ConfigError(
                f"{len(seeds)} seeds exceed the admission limit "
                f"multiseed_max_seeds={self.config.multiseed_max_seeds}")
        if top < 1:
            raise ConfigError(f"top must be >= 1, got {top}")
        return _Admitted(
            {"kind": "multiseed", "node": seeds[0], "seeds": seeds,
             "weights": weights},
            (seeds, weights), partial(_vector_body, top=top),
            {"kind": "multiseed", "seeds": list(seeds),
             "weights": list(weights)})

    def _admit_pair(self, source: int, target: int, *,
                    num_nodes: int) -> _Admitted:
        """``/pair``: its own batch group, keyed on ``(source, target)``;
        ``node`` is the target, the backward-push anchor."""
        source = _node_in_range("source", source, num_nodes)
        target = _node_in_range("target", target, num_nodes)
        return _Admitted(
            {"kind": "pair", "node": target, "source": source},
            (source, target), _pair_body,
            {"source": source, "target": target}, echo_work=False)

    # -- raw query paths (benchmarks / tests) --------------------------
    def query_result(self, kind: str, node: int, *,
                     alpha: float | None = None,
                     epsilon: float | None = None,
                     use_cache: bool = True) -> tuple[PPRResult, bool]:
        """Answer one query; returns ``(result, was_cache_hit)``.

        ``kind`` is ``"source"`` or ``"target"``; the richer kinds
        have their own raw accessors (:meth:`topk_result`,
        :meth:`multiseed_result`, :meth:`pair_result`).  The result is
        bit-identical to ``solver.query(node)`` on the corresponding
        batch solver.
        """
        return self._serve(partial(self._admit_vector, kind, node),
                           alpha, epsilon, use_cache)[:2]

    def topk_result(self, node: int, k: int, *,
                    alpha: float | None = None,
                    epsilon: float | None = None,
                    use_cache: bool = True):
        """One top-k query; returns ``(TopKQueryResult, was_cache_hit)``."""
        return self._serve(partial(self._admit_topk, node, k),
                           alpha, epsilon, use_cache)[:2]

    def multiseed_result(self, seeds, weights=None, *,
                         alpha: float | None = None,
                         epsilon: float | None = None,
                         use_cache: bool = True):
        """One seed-set query; returns ``(PPRResult, was_cache_hit)``."""
        return self._serve(partial(self._admit_multiseed, seeds, weights),
                           alpha, epsilon, use_cache)[:2]

    def pair_result(self, source: int, target: int, *,
                    alpha: float | None = None,
                    epsilon: float | None = None,
                    use_cache: bool = True):
        """One pair query; returns ``(PairResult, was_cache_hit)``."""
        return self._serve(partial(self._admit_pair, source, target),
                           alpha, epsilon, use_cache)[:2]

    # -- JSON-shaped endpoints -----------------------------------------
    def query(self, kind: str, node: int, *, alpha: float | None = None,
              epsilon: float | None = None, top: int = 10,
              use_cache: bool = True, request_id: str | None = None,
              tenant: str | None = None, debug: bool = False) -> dict:
        """``/query`` semantics: top-k answer plus provenance.

        ``request_id`` propagates the client's ``X-Request-Id`` (one
        is generated otherwise); ``tenant`` attributes the request in
        the per-tenant metrics tables without affecting the answer;
        ``debug=True`` forces a trace and adds a ``debug`` block (span
        tree + work counters) to the response.  Without ``debug``, the
        payload is byte-identical whether or not the request was
        sampled.
        """
        return self._respond(
            "query", partial(self._admit_vector, kind, node, top),
            {"kind": kind, "node": int(node)}, alpha, epsilon, use_cache,
            request_id, tenant, debug)

    def query_topk(self, node: int, k: int, *,
                   alpha: float | None = None,
                   epsilon: float | None = None,
                   use_cache: bool = True, request_id: str | None = None,
                   tenant: str | None = None,
                   debug: bool = False) -> dict:
        """``/topk`` semantics: early-terminated ranked prefix.

        The answer set comes from the adaptive solver
        (:class:`~repro.core.topk.BatchTopKSolver`) — ``converged``
        and ``num_forests`` report how early the sequential stopping
        rule froze the ranking.  Cache hits follow prefix-dominance: a
        stored deeper ranking serves any shallower ``k``.
        """
        return self._respond(
            "topk", partial(self._admit_topk, node, k),
            {"node": int(node), "k": int(k)}, alpha, epsilon, use_cache,
            request_id, tenant, debug)

    def query_multiseed(self, seeds, weights=None, *,
                        alpha: float | None = None,
                        epsilon: float | None = None, top: int = 10,
                        use_cache: bool = True,
                        request_id: str | None = None,
                        tenant: str | None = None,
                        debug: bool = False) -> dict:
        """``/multiseed`` semantics: weighted seed-set personalization.

        ``weights`` default to uniform and are normalised to sum to 1;
        the response echoes the canonical seed set.  The estimate is
        bit-identical to the weighted sum of the single-seed rows (see
        :class:`~repro.core.batch.BatchMultiSeedSolver`).
        """
        seeds = tuple(seeds)
        return self._respond(
            "multiseed", partial(self._admit_multiseed, seeds, weights, top),
            {"seeds": len(seeds)}, alpha, epsilon, use_cache, request_id,
            tenant, debug)

    def pair(self, source: int, target: int, *,
             alpha: float | None = None, epsilon: float | None = None,
             use_cache: bool = True, request_id: str | None = None,
             tenant: str | None = None, debug: bool = False) -> dict:
        """``/pair`` semantics: one π(source, target) value.

        Served by the dedicated pair solver
        (:class:`~repro.core.batch.BatchPairSolver`): a backward push
        from the target plus a forest fold that gathers only the
        source entry — bit-identical to reading entry ``s`` of the
        full ``π(·, t)`` column at roughly half the fold cost.  Pairs
        batch with other pairs and cache under their own
        ``(source, target)`` key.
        """
        return self._respond(
            "pair", partial(self._admit_pair, source, target),
            {"source": int(source), "target": int(target)}, alpha,
            epsilon, use_cache, request_id, tenant, debug)

    # -- graph mutation ------------------------------------------------
    def mutate(self, ops, *, request_id: str | None = None,
               debug: bool = False) -> dict:
        """``/mutate`` semantics: stream edge updates into the served
        graph.

        ``ops`` is a list of edge-operation dicts (see
        :meth:`~repro.graph.delta.GraphDelta.from_dicts`) or an
        already-built :class:`~repro.graph.delta.GraphDelta`.  The
        delta is applied through
        :meth:`~repro.service.index_manager.IndexManager.mutate`:
        dynamic banks repair their forests incrementally, static banks
        rebuild, and either way the new generation swaps in atomically
        while in-flight queries finish on the old one.

        The result cache is cleared afterwards — unlike ``refresh``
        (which resamples the *same* graph, so cached answers stay
        valid), a mutation changes the graph itself and every cached
        estimate describes the old one.

        Mutations are rare, structural events, so they always record a
        full trace regardless of the sampling rate.
        """
        request_id = request_id or new_request_id()
        span = self.tracer.trace("mutate", request_id, force=True)
        started = time.perf_counter()
        try:
            delta = (ops if isinstance(ops, GraphDelta)
                     else GraphDelta.from_dicts(ops))
            span.annotate(endpoint="mutate", ops=len(delta))
            summary = self.index_manager.mutate(self.config.graph, delta)
            with span.child("cache_clear"):
                self.cache.clear()
        except BaseException as error:
            self._finish(span, request_id, started, error=error,
                         endpoint="mutate", kind="mutate", node=-1,
                         alpha=self.config.alpha,
                         epsilon=self.config.epsilon)
            raise
        self.metrics.record_mutation(summary["work"])
        return self._finish(
            span, request_id, started,
            {**summary, "request_id": request_id}, None, debug,
            endpoint="mutate", kind="mutate", node=-1,
            alpha=self.config.alpha, epsilon=self.config.epsilon,
            work=summary["work"])

    # -- observability -------------------------------------------------
    def healthz(self) -> dict:
        """Liveness + readiness summary for ``/healthz``."""
        snap = self.metrics.snapshot()
        graph = self.index_manager.graph(self.config.graph)
        shard_map = self.index_manager.shard_map(self.config.graph)
        degrees = graph.out_degrees
        return {
            "status": "ok" if self._running else "stopped",
            "uptime_seconds": time.time() - self._started_at,
            "graph": self.config.graph,
            "num_nodes": graph.num_nodes,
            "alpha": self.config.alpha,
            "queue_depth": self.scheduler.queue_depth,
            "batches": snap["batches"],
            "requests": sum(snap["requests"].values()),
            "index": self.index_manager.stats(),
            "executor": (self.executor.stats()
                         if self.executor is not None
                         else {"mode": "thread", "workers": 0}),
            "shards": {
                "count": shard_map.num_shards,
                "strategy": shard_map.strategy,
                "per_shard": [
                    {"shard": shard,
                     "nodes": int(shard_map.shard_sizes[shard]),
                     "edges": int(degrees[
                         shard_map.local_nodes(shard)].sum())}
                    for shard in range(shard_map.num_shards)],
            },
            "observability": {
                "tracing": self.tracer.stats(),
                "slowlog": self.slowlog.stats(),
            },
        }

    def statusz(self, now: float | None = None) -> dict:
        """Operational dashboard snapshot for ``/statusz``.

        Everything ``repro top`` renders comes from this one JSON
        document: the 60 s / 300 s rolling windows out of the
        time-series store, the burn-rate state of both built-in SLOs,
        and the per-tenant / per-shard attribution tables (the shard
        table includes the straggler detector's view when the service
        scatter-gathers across shards).
        """
        now = time.monotonic() if now is None else float(now)
        snap = self.metrics.snapshot()
        payload = {
            "status": "ok" if self._running else "stopped",
            "uptime_seconds": time.time() - self._started_at,
            "graph": self.config.graph,
            "queue_depth": self.scheduler.queue_depth,
            "totals": {
                "requests": sum(snap["requests"].values()),
                "rejected": snap["rejected"],
                "errors": snap["errors"],
                "batches": snap["batches"],
                "straggler_folds": sum(
                    snap.get("straggler_folds", {}).values()),
            },
            "windows": {
                "60s": self.metrics.window_snapshot(60.0, now=now),
                "300s": self.metrics.window_snapshot(300.0, now=now),
            },
            "slo": self.metrics.slo_report(now=now),
            "tenants": self.metrics.tenant_table(),
            "shards": self.metrics.shard_table(),
        }
        if self.executor is not None \
                and hasattr(self.executor, "straggler_stats"):
            payload["stragglers"] = self.executor.straggler_stats()
        return payload

    def metrics_text(self) -> str:
        """Prometheus exposition for ``/metrics``."""
        return self.metrics.render()
