"""Service benchmark: one command per workload.

    python3 servebench/run.py --workload point-lone --seed 1 \
        --seconds 30 --trace 0

Run from the root of a source checkout.  With ``--trace 0`` it boots
``repro serve`` as a child process, drives it over persistent HTTP
connections for ``--seconds`` seconds, checks the answers against the
direct solvers and exact PPR, and prints the end-to-end metrics.  With
``--trace 1`` it hosts the server inside this process, wraps each
layer's entry points with spans, sends the same plan, and prints the
per-layer metrics instead.  The last line of output is one JSON
object; the exit code is non-zero on any failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

#: Server boots per run for ``setup_s``: the run's own server plus one
#: after each load segment, so the boots are spread through the run.
SEGMENTS = 2
#: Nodes whose full source vector is fetched and checked against exact
#: PPR after the load window.
ACCURACY_NODES = 32
#: ``/mutate`` upserts sent after the window where the workload itself
#: sends none (static servers rebuild their bank on each).
WRITE_PROBES = 24
#: Tail percentile of read latency: the highest of p99/p95/p90 with at
#: least ten samples beyond it on every workload at the run length
#: set in BENCHMARK.json.
TAIL = 90

END_TO_END = {
    "setup_s": "s", "throughput_qps": "1/s", "latency_p50_ms": "ms",
    f"latency_p{TAIL}_ms": "ms", "mutate_p50_ms": "ms", "ok_ratio": "ratio",
    "l1_error": "l1", "precision_at_10": "ratio", "rss_mb": "MiB",
}


class Workload:
    def __init__(self, name, connections, dynamic, make_plan, keep):
        self.name = name
        self.connections = connections
        self.dynamic = dynamic
        self.make_plan = make_plan
        self.keep = keep


def _workloads():
    import plan

    def point(graph, seed):
        return plan.point_lone_plan(graph.out_degrees, seed, 6000)

    def topk(graph, seed):
        return plan.topk_plan(graph.out_degrees, seed, 1500)

    def churn(graph, seed):
        return plan.churn_plan(graph.num_nodes, graph.has_edge, seed, 8000)

    # kept replies are checked byte for byte: point-lone keeps two blocks
    # in eight (one of them a repeat block, served from the cache);
    # topk-heavy keeps every reply for precision and checks one in 32
    block = len(plan.POINT_KINDS)
    return {
        "point-lone": Workload("point-lone", 1, False, point,
                               lambda i: (i // block) % 8 in (0, 7)),
        "topk-heavy": Workload("topk-heavy", 2, False, topk,
                               lambda i: True),
        "churn": Workload("churn", 2, True, churn, lambda i: False),
    }


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def run_untraced(workload, seed: int, seconds: float, root: str,
                 server_seed: int | None) -> int:
    from check import Reference, byte_check, print_result
    from load import (ClosedLoop, Connection, ServerProcess, get,
                      load_limit, port_listening, shm_segments)
    from plan import MUTATE_EVERY, beyond, churn_plan, percentile
    from repro.graph.delta import GraphDelta

    reference = Reference(dynamic=workload.dynamic, server_seed=server_seed)
    initial = reference.initial_graph
    plan = workload.make_plan(initial, seed)
    problems: list[str] = []
    shm_before = shm_segments()
    print(f"workload {workload.name}: seed {seed}, {seconds:g} s in "
          f"{SEGMENTS} segments; load from 1 process, "
          f"{workload.connections} threads, {workload.connections} "
          f"keep-alive connections (limit {load_limit()} = nproc)")

    boots = []
    server = ServerProcess(root, dynamic=workload.dynamic,
                           server_seed=server_seed)
    boots.append(server.setup_s)
    ports = [server.port]
    connections = [Connection(server.port)
                   for _ in range(workload.connections)]
    loop = ClosedLoop(plan, connections, keep=workload.keep)
    try:
        for _ in range(SEGMENTS):
            loop.run(seconds / SEGMENTS)
            probe = ServerProcess(root, dynamic=workload.dynamic,
                                  server_seed=server_seed)
            boots.append(probe.setup_s)
            ports.append(probe.port)
            if not probe.stop():
                problems.append("a set-up probe server did not exit "
                                "cleanly on SIGINT")
        rss_mb = server.peak_rss_mb()
        window = list(loop.records)
        # the checks below send one request at a time on one connection
        for conn in connections:
            conn.close()
        post = Connection(server.port)
        post_statuses = []

        def send(op, tag):
            status, body, secs = post.post(op[1], op[2], tag)
            post_statuses.append(status)
            if status != 200:
                problems.append(f"post-window {op[0]} returned {status}")
            return body, secs

        # -- byte-identity against the direct solvers ------------------
        pairs, found = byte_check(workload, plan, reference, window, send)
        problems += found
        mutates = [r for r in window if r.kind == "mutate"]

        # -- accuracy against exact PPR ---------------------------------
        nodes: list[int] = []
        for kind, _, body in plan:
            if "node" in body and body["node"] not in nodes:
                nodes.append(body["node"])
            if len(nodes) == ACCURACY_NODES:
                break
        l1 = []
        precision = []
        for node in nodes:
            op = ("source", "/query", {"kind": "source", "node": node,
                                       "top": initial.num_nodes})
            body, _ = send(op, f"exact-{node}")
            if not body:
                continue
            top = json.loads(body)["top"]
            l1.append(reference.l1_error(node, top))
            if workload.name != "topk-heavy":
                precision.append(reference.precision_at_10(node, top))
        if workload.name == "topk-heavy":
            for record in window:
                if record.status == 200:
                    precision.append(reference.precision_at_10(
                        plan[record.index][2]["node"],
                        json.loads(record.body)["top"]))

        # -- writes -----------------------------------------------------
        if workload.dynamic:
            mutate_ms = [r.seconds * 1e3 for r in mutates
                         if r.status == 200]
            sent = [plan[r.index][2]["ops"] for r in mutates
                    if r.status == 200]
        else:
            writes = [op for op in churn_plan(
                initial.num_nodes, initial.has_edge, seed,
                MUTATE_EVERY * WRITE_PROBES) if op[0] == "mutate"]
            mutate_ms = []
            for i, op in enumerate(writes):
                _, secs = send(op, f"write-{i}")
                mutate_ms.append(secs * 1e3)
            sent = [op[2]["ops"] for op in writes]
        final = GraphDelta.from_dicts(
            [edge for ops in sent for edge in ops]).apply(initial)
        if final.num_edges != initial.num_edges + len(sent):
            problems.append("an upserted edge was already present")
        _, body = get(server.port, "/healthz")
        served_arcs = sum(entry["edges"]
                          for entry in json.loads(body)["shards"]["per_shard"])
        if served_arcs != final.num_arcs:
            problems.append(f"served graph has {served_arcs} arcs, "
                            f"expected {final.num_arcs} after "
                            f"{len(sent)} upserts")
        post.close()
    finally:
        for conn in connections:
            conn.close()
        if not server.stop():
            problems.append("the server did not exit cleanly on SIGINT")
    for port in ports:
        if port_listening(port):
            problems.append(f"port {port} still listening after the run")
    leaked = shm_segments() - shm_before
    if leaked:
        problems.append(f"new /dev/shm segments left: {sorted(leaked)}")

    ok = [r for r in window if r.status == 200]
    reads = [r for r in window if r.kind != "mutate"]
    read_ms = [r.seconds * 1e3 if r.status == 200 else float("inf")
               for r in reads]
    if beyond(len(read_ms), TAIL) < 10:
        print(f"  warning: only {beyond(len(read_ms), TAIL)} reads beyond "
              f"p{TAIL}; the run is too short to resolve the tail")
    attempted = len(window) + len(post_statuses)
    failed = (len(window) - len(ok)) + sum(s != 200 for s in post_statuses)
    metrics = {
        "setup_s": statistics.median(boots),
        "throughput_qps": len(ok) / loop.elapsed,
        "latency_p50_ms": percentile(read_ms, 50),
        f"latency_p{TAIL}_ms": percentile(read_ms, TAIL),
        "mutate_p50_ms": statistics.median(mutate_ms),
        "ok_ratio": len(ok) / len(window),
        "l1_error": statistics.fmean(l1),
        "precision_at_10": statistics.fmean(precision),
        "rss_mb": rss_mb,
    }
    print(f"  {len(window)} requests in the window ({len(reads)} reads), "
          f"{len(pairs)} replies checked byte for byte, "
          f"{len(l1)} full vectors and {len(precision)} top-10 lists "
          f"checked against exact PPR, {len(boots)} boots")
    for problem in problems:
        print(f"  FAILED: {problem}")
    print_result(not problems, attempted, failed,
             {name: {"value": value, "unit": END_TO_END[name]}
              for name, value in metrics.items()})
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--server-seed", type=int, default=None,
                        help="server --seed (default: the serve default); "
                             "for measuring seed-to-seed accuracy spread")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        _fail("run from the root of a source checkout (src/repro missing)")
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, HERE)
    if signal.getsignal(signal.SIGINT) is signal.SIG_IGN:
        # started as a background job: an ignored SIGINT would be
        # inherited by the servers, which shut down cleanly only on it
        signal.signal(signal.SIGINT, signal.default_int_handler)
    workloads = _workloads()
    if args.workload not in workloads:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads)}")
    workload = workloads[args.workload]
    if args.trace:
        from traced import run_traced

        return run_traced(workload, args.seed, args.seconds, root,
                          args.server_seed)
    return run_untraced(workload, args.seed, args.seconds, root,
                        args.server_seed)


if __name__ == "__main__":
    sys.exit(main())
