"""The traced run: per-layer metrics and the layer ladder.

The server runs inside this process (``make_server`` plus
``serve_forever(in_thread=True)``) so the benchmark can wrap the entry
points of each layer with in-memory spans — name, start, end, parent
span and request id.  The wrappers live here, not in the program; they
are installed for the traced phase and removed afterwards.  End-to-end
numbers never come from this run: the client shares the server's
interpreter lock.
"""

from __future__ import annotations

import itertools
import os
import statistics
import subprocess
import sys
import threading
import time
from multiprocessing import resource_tracker

import repro.core.batch as batch
import repro.core.topk as topk
import repro.montecarlo.dynamic_index as dynamic_index
from check import Reference, byte_check, print_result, service_config
from load import (ClosedLoop, Connection, load_limit, port_listening,
                  shm_segments)
from plan import percentile, point_lone_plan, self_times, topk_plan
from repro.graph.datasets import clear_dataset_cache, load_dataset
from repro.graph.delta import GraphDelta
from repro.montecarlo.forest_index import ForestIndex
from repro.service import PPRService, http, scheduler
from repro.service.cache import ResultCache
from repro.service.index_manager import IndexManager

#: Repetitions per ladder rung (the median is reported).
LADDER_REPS = 5
LADDER_REPS_TOPK = 3
LADDER_KINDS = ("source", "target", "multiseed", "topk", "pair")
#: Fresh-process and fresh-object repetitions for the set-up timings.
SETUP_REPS = 3


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request_id",
                 "attrs")


class SpanLog:
    """In-memory spans recorded by wrappers around layer entry points.

    A span's parent is the innermost open span on the same thread; its
    request id is the ``request_id`` keyword of the call, the
    ``X-Request-Id`` header of an HTTP handler, or its parent's.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []
        #: seconds from submit to fold start, one per scheduled request
        self.batch_waits: list[float] = []

    def wrap(self, owner, attr: str, name: str, *, attrs=None,
             request_id=None, on_start=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``attrs(args, kwargs, result)`` returns extra fields for the
        span; ``request_id(args, kwargs)`` extracts the request id;
        ``on_start(args, kwargs)`` runs as the span opens.
        """
        original = getattr(owner, attr)
        own = attr in vars(owner)
        log = self

        def wrapper(*args, **kwargs):
            stack = log._stack()
            span = Span()
            span.id = next(log._ids)
            span.name = name
            span.parent, parent_rid = stack[-1] if stack else (None, None)
            span.request_id = ((request_id(args, kwargs) if request_id
                                else None) or parent_rid)
            span.attrs = {}
            stack.append((span.id, span.request_id))
            span.start = time.perf_counter()
            if on_start is not None:
                on_start(args, kwargs)
            result = error = None
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if error is not None:
                    span.attrs["error"] = type(error).__name__
                elif attrs is not None:
                    span.attrs.update(attrs(args, kwargs, result))
                with log._lock:
                    log.spans.append(span)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, own))

    def _stack(self) -> list[tuple]:
        """This thread's open spans as ``(span id, request id)``."""
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def named(self, prefix: str) -> list[Span]:
        return [s for s in self.spans if s.name.startswith(prefix)]

    def self_ms(self) -> dict[int, float]:
        """Self time of every span, in milliseconds."""
        table = {s.id: (s.start, s.end, s.parent) for s in self.spans}
        return {k: v * 1e3 for k, v in self_times(table).items()}

    def clear(self) -> None:
        with self._lock:
            self.spans.clear()


def install(log: SpanLog) -> None:
    """Wrap the entry points of each layer of the program."""
    log.wrap(http._Handler, "do_POST", "http",
             request_id=lambda a, k: a[0].headers.get("X-Request-Id"))
    for endpoint in ("query", "query_topk", "query_multiseed", "pair",
                     "mutate"):
        log.wrap(PPRService, endpoint, f"service.{endpoint}",
                 request_id=lambda a, k: k.get("request_id"))
    for method in ("get", "get_topk"):
        log.wrap(ResultCache, method, "cache.lookup",
                 attrs=lambda a, k, r: {"hit": r is not None})
    for method in ("put", "put_topk"):
        log.wrap(ResultCache, method, "cache.put")

    waits: dict[int, float] = {}

    def submitted(args, kwargs, pending):
        waits[id(pending)] = time.perf_counter()
        return {}

    log.wrap(scheduler.MicroBatchScheduler, "submit_nowait",
             "scheduler.submit", attrs=submitted)
    log.wrap(scheduler._Pending, "resolve", "scheduler.resolve")

    def batch_started(args, kwargs):
        # wait = fold start − submit, per request of the batch
        now = time.perf_counter()
        for pending in args[1]:
            submitted_at = waits.pop(id(pending), None)
            if submitted_at is not None:
                log.batch_waits.append(now - submitted_at)

    log.wrap(scheduler.MicroBatchScheduler, "_execute", "scheduler.batch",
             on_start=batch_started,
             attrs=lambda a, k, r: {"size": len(a[1])})

    solvers = {"source": batch.BatchSourceSolver,
               "target": batch.BatchTargetSolver,
               "multiseed": batch.BatchMultiSeedSolver,
               "pair": batch.BatchPairSolver,
               "topk": topk.BatchTopKSolver}
    for kind, cls in solvers.items():
        extract = None
        if kind == "topk":
            def extract(a, k, results):
                return {"forests": [r.num_forests for r in results],
                        "converged": [bool(r.converged) for r in results]}
        log.wrap(cls, "run_items", f"core.{kind}", attrs=extract)
    for method in ("estimate_source_many", "estimate_target_many",
                   "estimate_target_entries"):
        log.wrap(ForestIndex, method, "montecarlo.fold")

    def push_counts(a, k, push):
        return {"pushes": int(push.num_pushes),
                "sweeps": int(push.num_sweeps)}

    log.wrap(batch, "balanced_forward_push", "push.forward",
             attrs=push_counts)
    log.wrap(batch, "backward_push", "push.backward", attrs=push_counts)
    log.wrap(topk, "balanced_forward_push", "push.forward",
             attrs=push_counts)
    log.wrap(topk, "sample_forest", "forests.sample",
             attrs=lambda a, k, f: {"steps": int(f.num_steps),
                                    "pops": int(f.num_pops)})
    log.wrap(dynamic_index, "repair_forest", "forests.repair")
    log.wrap(IndexManager, "mutate", "index_manager.mutate",
             attrs=lambda a, k, summary: {"summary": summary})
    log.wrap(GraphDelta, "apply", "graph.delta_apply")


# -- the in-process server ------------------------------------------
class InProcessServer:
    """A started :class:`PPRService`, optionally behind HTTP on an
    OS-chosen port served from a thread of this process."""

    def __init__(self, dynamic: bool, server_seed, **overrides):
        self.service = PPRService(service_config(
            dynamic=dynamic, server_seed=server_seed, **overrides)).start()
        self.server = None

    def listen(self) -> "InProcessServer":
        self.server = http.make_server(self.service, port=0)
        self.port = self.server.server_port
        self.thread = http.serve_forever(self.server, in_thread=True)
        return self

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.thread.join(timeout=10)
        self.service.stop()


def _call_endpoint(service, op, **kwargs):
    kind, _, body = op
    if kind in ("source", "target"):
        return service.query(kind, body["node"], **kwargs)
    if kind == "topk":
        return service.query_topk(body["node"], body["k"], **kwargs)
    if kind == "multiseed":
        return service.query_multiseed(body["seeds"], **kwargs)
    if kind == "pair":
        return service.pair(body["source"], body["target"], **kwargs)
    raise ValueError(kind)


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        times.append((time.perf_counter() - started) * 1e3)
    return statistics.median(times)


def _live_children() -> list[str]:
    """Command lines of the processes whose parent is this process."""
    me = os.getpid()
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            with open(f"/proc/{entry}/cmdline", "rb") as cmdline:
                children.append(cmdline.read().replace(b"\0", b" ")
                                .decode(errors="replace").strip())
    return children


def _ladder_item(kind: str, body: dict):
    """The solver-level item of a ladder request."""
    if kind in ("source", "target"):
        return body["node"]
    if kind == "topk":
        return (body["node"], body["k"])
    if kind == "multiseed":
        return (tuple(body["seeds"]), None)
    return (body["source"], body["target"])


def _reps(kind: str) -> int:
    return LADDER_REPS_TOPK if kind == "topk" else LADDER_REPS


def ladder_inline(log: SpanLog, reference, plan_ops, dynamic, server_seed,
                  problems: list[str]) -> dict[str, float]:
    """The same request of each kind at kernel, solver, ``PPRService``
    and HTTP.  The kernel rung is the time inside push, fold and
    forest-sampling spans during a direct solver call."""
    metrics: dict[str, float] = {}
    server = InProcessServer(dynamic, server_seed).listen()
    conn = Connection(server.port)
    try:
        for kind in LADDER_KINDS:
            op = plan_ops[kind]
            item = _ladder_item(kind, op[2])
            solver = reference.solver(kind)
            kernel, whole = [], []
            for _ in range(_reps(kind)):
                log.clear()
                started = time.perf_counter()
                solver.run_items([item])
                whole.append((time.perf_counter() - started) * 1e3)
                kernel.append(sum(
                    (s.end - s.start) * 1e3 for s in log.spans
                    if s.name.startswith(("push.", "montecarlo.",
                                          "forests.sample"))))
            metrics[f"ladder.{kind}.kernel_ms"] = statistics.median(kernel)
            metrics[f"ladder.{kind}.solver_ms"] = statistics.median(whole)
            metrics[f"ladder.{kind}.service_ms"] = _median_ms(
                lambda: _call_endpoint(server.service, op, use_cache=False),
                _reps(kind))

            def over_http():
                server.service.cache.clear()
                status, _, _ = conn.post(op[1], op[2], "ladder")
                if status != 200:
                    problems.append(f"ladder {kind} over HTTP: {status}")

            metrics[f"ladder.{kind}.http_ms"] = _median_ms(over_http,
                                                           _reps(kind))
    finally:
        conn.close()
        server.close()
    return metrics


def ladder_pools(plan_ops, server_seed) -> dict[str, float]:
    """The off-by-default paths at the ``PPRService`` rung: a forked
    ``ProcessExecutor`` with one worker, and a ``ShardRouter`` over two
    shards."""
    metrics: dict[str, float] = {}
    for rung, overrides in (("executor", {"executor": "process",
                                          "workers": 1}),
                            ("shard", {"executor": "process", "shards": 2,
                                       "workers": 1})):
        server = InProcessServer(False, server_seed, **overrides)
        try:
            for kind in LADDER_KINDS:
                op = plan_ops[kind]
                metrics[f"ladder.{kind}.{rung}_ms"] = _median_ms(
                    lambda: _call_endpoint(server.service, op,
                                           use_cache=False), _reps(kind))
        finally:
            server.close()
    return metrics


def _setup_timings(dynamic: bool) -> dict[str, float]:
    code = ("import time; t = time.perf_counter(); "
            "import repro.cli, repro.service; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))
    imports = []
    for _ in range(SETUP_REPS):
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        imports.append(float(out.stdout.strip()))
    graphs, indexes = [], []
    config = service_config(dynamic=dynamic)
    bank_bytes = 0
    for _ in range(SETUP_REPS):
        clear_dataset_cache()
        started = time.perf_counter()
        graph = load_dataset(config.graph, scale=config.scale)
        graphs.append(time.perf_counter() - started)
        manager = IndexManager(config.ppr_config(), dynamic=dynamic)
        manager.register_graph(config.graph, graph)
        started = time.perf_counter()
        index = manager.warm(config.graph, config.alpha)
        indexes.append(time.perf_counter() - started)
        bank_bytes = index.size_bytes
    return {"setup.import_s": statistics.median(imports),
            "setup.graph_s": statistics.median(graphs),
            "setup.index_s": statistics.median(indexes),
            "index_manager.bank_bytes": float(bank_bytes)}


def _phase(workload, plan, seconds, server_seed):
    """Serve ``plan`` in-process for ``seconds``; returns the loop and
    the server (still running)."""
    server = InProcessServer(workload.dynamic, server_seed).listen()
    connections = [Connection(server.port)
                   for _ in range(workload.connections)]
    loop = ClosedLoop(plan, connections, keep=workload.keep)
    try:
        loop.run(seconds)
    finally:
        for conn in connections:
            conn.close()
    return loop, server


def layer_metrics(log: SpanLog, loop) -> dict[str, float]:
    """Per-layer numbers out of the spans of the traced phase."""
    self_ms = log.self_ms()
    client = {r.request_id: r.seconds * 1e3 for r in loop.records
              if r.status == 200}
    endpoint = [s for s in log.spans if s.name.startswith("service.")]
    reads = [s for s in endpoint if s.name != "service.mutate"]

    def p50(values):
        return percentile(values, 50) if values else 0.0

    def total_ms(spans):
        return float(sum((s.end - s.start) * 1e3 for s in spans))

    lookups = log.named("cache.lookup")
    batches = log.named("scheduler.batch")
    topk = [s for s in log.named("core.topk") if "forests" in s.attrs]
    forests = [n for s in topk for n in s.attrs["forests"]]
    converged = [c for s in topk for c in s.attrs["converged"]]
    samples = log.named("forests.sample")
    steps = sum(s.attrs.get("steps", 0) for s in samples)
    pops = sum(s.attrs.get("pops", 0) for s in samples)
    pushes = log.named("push.")
    mutates = [s for s in log.named("index_manager.mutate")
               if "summary" in s.attrs]
    repair = {"repair_fresh_steps": 0, "repair_replayed_steps": 0,
              "repair_dirty_nodes": 0}
    rebuilds = 0
    for span in mutates:
        summary = span.attrs["summary"]
        for key in repair:
            repair[key] += int(summary["work"].get(key, 0))
        rebuilds += sum(not bank["repaired"]
                        for bank in summary["banks"].values())
    replayed, fresh = (repair["repair_replayed_steps"],
                       repair["repair_fresh_steps"])
    metrics = {
        "http.wire_ms_p50": p50([
            client[s.request_id] - (s.end - s.start) * 1e3
            for s in endpoint if s.request_id in client]),
        "service.self_ms_p50": p50([self_ms[s.id] for s in reads]),
        "cache.hit_ratio": (sum(s.attrs.get("hit", False) for s in lookups)
                            / len(lookups) if lookups else 0.0),
        "cache.lookup_ms_p50": p50([(s.end - s.start) * 1e3
                                    for s in lookups]),
        "scheduler.wait_ms_p50": p50([w * 1e3 for w in log.batch_waits]),
        "scheduler.batch_size_mean": (statistics.fmean(
            s.attrs.get("size", 0) for s in batches) if batches else 0.0),
        "scheduler.rejected": float(sum(
            s.attrs.get("error") == "SchedulerFull"
            for s in log.named("scheduler.submit"))),
    }
    for kind in LADDER_KINDS:
        metrics[f"core.solver_self_ms_p50.{kind}"] = p50(
            [self_ms[s.id] for s in log.named(f"core.{kind}")])
    metrics.update({
        "core.topk_forests_mean": (statistics.fmean(forests)
                                   if forests else 0.0),
        "core.topk_converged_ratio": (sum(converged) / len(converged)
                                      if converged else 0.0),
        "montecarlo.fold_ms_p50": p50([(s.end - s.start) * 1e3
                                       for s in log.named("montecarlo.")]),
        "forests.sample_ms_total": total_ms(samples),
        "forests.walk_steps": float(steps),
        "forests.cycle_pops": float(pops),
        "forests.forests_sampled": float(len(samples)),
        "forests.pop_ratio": pops / steps if steps else 0.0,
        "push.ms_total": total_ms(pushes),
        "push.pushes": float(sum(s.attrs.get("pushes", 0) for s in pushes)),
        "push.sweeps": float(sum(s.attrs.get("sweeps", 0) for s in pushes)),
        "index_manager.mutate_ms_p50": p50([(s.end - s.start) * 1e3
                                            for s in mutates]),
        "index_manager.rebuilds": float(rebuilds),
        "repair.fresh_steps": float(fresh),
        "repair.replayed_steps": float(replayed),
        "repair.reuse_ratio": (replayed / (replayed + fresh)
                               if replayed + fresh else 0.0),
        "repair.dirty_nodes": float(repair["repair_dirty_nodes"]),
        "graph.delta_apply_ms_p50": p50([
            (s.end - s.start) * 1e3 for s in log.named("graph.delta_apply")]),
    })
    return metrics


def run_traced(workload, seed: int, seconds: float, root: str,
               server_seed) -> int:
    reference = Reference(dynamic=workload.dynamic, server_seed=server_seed)
    plan = workload.make_plan(reference.initial_graph, seed)
    degrees = reference.initial_graph.out_degrees
    plan_ops = {op[0]: op for op in point_lone_plan(degrees, seed, 4)}
    plan_ops["topk"] = topk_plan(degrees, seed, 1)[0]
    problems: list[str] = []
    shm_before = shm_segments()
    print(f"workload {workload.name} (traced): seed {seed}, "
          f"{seconds / 2:g} s untraced then {seconds / 2:g} s traced, "
          f"in-process server; {workload.connections} threads and "
          f"keep-alive connections (limit {load_limit()} = nproc)")

    untraced, server = _phase(workload, plan, seconds / 2, server_seed)
    server.close()
    ports = [server.port]
    log = SpanLog()
    install(log)
    try:
        traced, server = _phase(workload, plan, seconds / 2, server_seed)
        ports.append(server.port)
        metrics = layer_metrics(log, traced)
        span_count = len(log.spans)
        post = Connection(server.port)
        statuses: list[int] = []

        def send(op, tag):
            status, body, secs = post.post(op[1], op[2], tag)
            statuses.append(status)
            if status != 200:
                problems.append(f"post-window {op[0]} returned {status}")
            return body, secs

        try:
            pairs, found = byte_check(workload, plan, reference,
                                      traced.records, send)
            problems += found
        finally:
            post.close()
            server.close()
        metrics.update(ladder_inline(log, reference, plan_ops,
                                     workload.dynamic, server_seed,
                                     problems))
    finally:
        log.uninstall()
    # forks happen with no wrapper installed and no server thread alive
    metrics.update(ladder_pools(plan_ops, server_seed))
    metrics.update(_setup_timings(workload.dynamic))

    def mean_ms(loop):
        done = [r.seconds for r in loop.records if r.status == 200]
        return statistics.fmean(done) * 1e3 if done else float("inf")

    metrics["trace.overhead_ratio"] = mean_ms(traced) / mean_ms(untraced)
    for port in ports:
        if port_listening(port):
            problems.append(f"port {port} still listening after the run")
    leaked = shm_segments() - shm_before
    if leaked:
        problems.append(f"new /dev/shm segments left: {sorted(leaked)}")
    # the shared-memory banks of the pool rungs started Python's
    # resource tracker in this process; stop it and wait for it (it
    # warns on stderr about any segment still registered)
    stop_tracker = getattr(getattr(resource_tracker, "_resource_tracker",
                                   None), "_stop", None)
    if stop_tracker is not None:
        stop_tracker()
    children = _live_children()
    if children:
        problems.append(f"child processes left running: {children}")
    records = untraced.records + traced.records
    attempted = len(records) + len(statuses)
    failed = (sum(r.status != 200 for r in records)
              + sum(s != 200 for s in statuses))
    print(f"  {len(traced.records)} traced requests, {span_count} "
          f"spans, {len(pairs)} replies checked byte for byte")
    for problem in problems:
        print(f"  FAILED: {problem}")
    print_result(not problems, attempted, failed,
             {name: {"value": value, "unit": unit_of(name)}
              for name, value in metrics.items()})
    return 1 if problems else 0


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    words = name.replace(".", "_").split("_")
    for word, unit in (("ms", "ms"), ("s", "s"), ("bytes", "bytes"),
                       ("ratio", "ratio")):
        if word in words:
            return unit
    return "count"
