"""Reference answers: the direct solvers and the exact PPR vectors.

:class:`Reference` holds an in-process
:class:`~repro.service.index_manager.IndexManager` configured and
seeded exactly like the benchmark's server, and builds for any plan
operation the JSON reply the service must send — answered by the
direct ``Batch*Solver`` / ``BatchTopKSolver`` instead of the service.
Served replies are compared with these byte for byte.
"""

from __future__ import annotations

import json

import numpy as np

from load import SERVER_FLAGS
from repro.core.batch import (
    BatchMultiSeedSolver,
    BatchPairSolver,
    BatchSourceSolver,
    BatchTargetSolver,
    normalize_seed_set,
)
from repro.core.topk import BatchTopKSolver
from repro.graph.datasets import load_dataset
from repro.graph.delta import GraphDelta
from repro.linalg.exact import ExactSolver
from repro.service.config import ServiceConfig
from repro.service.index_manager import IndexManager

TOP = 10  # depth of the served ``top`` list when the request sets none
#: Reads re-sent after the ``churn`` window and checked byte for byte.
CHURN_SAMPLE = 24
#: ``topk-heavy`` checks one reply in this many byte for byte.
TOPK_CHECK_EVERY = 32


def service_config(*, dynamic: bool = False, server_seed: int | None = None,
                   **overrides) -> ServiceConfig:
    """The :class:`ServiceConfig` of the benchmark's servers."""
    flags = dict(SERVER_FLAGS)
    if server_seed is not None:
        flags["seed"] = server_seed
    return ServiceConfig(dynamic=dynamic, **flags, **overrides)


class Reference:
    """Direct-solver twin of one server."""

    def __init__(self, *, dynamic: bool = False,
                 server_seed: int | None = None):
        config = service_config(dynamic=dynamic, server_seed=server_seed)
        self.name = config.graph
        self.alpha = float(config.alpha)
        self.epsilon = float(config.epsilon)
        self.initial_graph = load_dataset(self.name, scale=config.scale)
        self.manager = IndexManager(config.ppr_config(), dynamic=dynamic)
        self.manager.register_graph(self.name, self.initial_graph)
        self.manager.warm(self.name, self.alpha)
        self._solvers: dict[str, object] = {}
        self._exact = None

    @property
    def graph(self):
        return self.manager.graph(self.name)

    def mutate(self, ops) -> None:
        """Apply one ``/mutate`` body's ops, as the server did."""
        self.manager.mutate(self.name, GraphDelta.from_dicts(ops))
        self._solvers.clear()
        self._exact = None

    def solver(self, kind: str):
        """The direct solver of ``kind`` over the current bank."""
        if kind not in self._solvers:
            config = self.manager.config.with_overrides(
                alpha=self.alpha, epsilon=self.epsilon)
            if kind == "topk":
                self._solvers[kind] = BatchTopKSolver(self.graph,
                                                      config=config)
            else:
                cls = {"source": BatchSourceSolver,
                       "target": BatchTargetSolver,
                       "multiseed": BatchMultiSeedSolver,
                       "pair": BatchPairSolver}[kind]
                self._solvers[kind] = cls(
                    self.graph, config=config,
                    index=self.manager.get_index(self.name, self.alpha))
        return self._solvers[kind]

    def expected(self, op, cached: bool) -> bytes:
        """The reply body the service must send for ``op``.

        ``cached`` is the served reply's own flag: whether an answer
        came from the cache is the service's business, its bytes are
        not.
        """
        kind, _, body = op
        top = int(body.get("top", TOP))
        solver = self.solver(kind)
        if kind in ("source", "target"):
            result = solver.query(int(body["node"]))
            payload = {"kind": kind, "node": int(body["node"]),
                       "alpha": result.alpha, "epsilon": result.epsilon,
                       "method": result.method,
                       "total_mass": result.total_mass,
                       "top": [[n, s] for n, s in result.top_k(top)],
                       "cached": cached, "work": result.work.as_dict()}
        elif kind == "multiseed":
            seeds, weights = normalize_seed_set(
                body["seeds"], body.get("weights"), self.graph.num_nodes)
            result = solver.query_multiseed(seeds, weights)
            payload = {"kind": "multiseed",
                       "seeds": [int(s) for s in seeds],
                       "weights": [float(w) for w in weights],
                       "alpha": result.alpha, "epsilon": result.epsilon,
                       "method": result.method,
                       "total_mass": result.total_mass,
                       "top": [[n, s] for n, s in result.top_k(top)],
                       "cached": cached, "work": result.work.as_dict()}
        elif kind == "pair":
            result = solver.query_pair(int(body["source"]),
                                       int(body["target"]))
            payload = {"source": int(body["source"]),
                       "target": int(body["target"]),
                       "alpha": result.alpha, "epsilon": result.epsilon,
                       "value": float(result), "method": result.method,
                       "cached": cached}
        elif kind == "topk":
            result = solver.query_topk(int(body["node"]), int(body["k"]))
            payload = {"kind": "topk", "node": int(body["node"]),
                       "k": int(body["k"]), "alpha": result.alpha,
                       "epsilon": result.epsilon,
                       "converged": bool(result.converged),
                       "num_forests": int(result.num_forests),
                       "top": [[n, s] for n, s in result.as_pairs()],
                       "cached": cached, "work": result.work.as_dict()}
        else:
            raise ValueError(f"no reference for kind {kind!r}")
        return json.dumps(payload).encode()

    def mismatches(self, pairs) -> list[str]:
        """Compare ``(op, served body)`` pairs; returns one line per
        reply that differs from the direct solver's."""
        bad = []
        for op, served in pairs:
            cached = json.loads(served)["cached"]
            if self.expected(op, cached) != served:
                bad.append(f"{op[0]} {op[2]}: served reply differs from "
                           f"the direct solver")
        return bad

    # -- accuracy against exact PPR ----------------------------------
    def exact_source(self, node: int) -> np.ndarray:
        if self._exact is None:
            self._exact = ExactSolver(self.graph, self.alpha)
        return self._exact.single_source(int(node))

    def l1_error(self, node: int, served_top) -> float:
        """L1 distance of a full served source vector from exact."""
        estimate = np.zeros(self.graph.num_nodes)
        for n, score in served_top:
            estimate[int(n)] = score
        return float(np.abs(estimate - self.exact_source(node)).sum())

    def precision_at_10(self, node: int, served_top) -> float:
        """Share of the exact top-10 of ``π(node, ·)`` among the served
        ten highest."""
        exact = self.exact_source(node)
        truth = set(np.argsort(-exact, kind="stable")[:10].tolist())
        served = [int(n) for n, _ in sorted(
            served_top, key=lambda pair: -pair[1])[:10]]
        return len(truth.intersection(served)) / 10.0


def byte_check(workload, plan, reference: Reference, window,
               send) -> tuple[list, list[str]]:
    """Compare a sample of served replies with the direct solvers.

    Static workloads check the replies kept during the window.  On a
    dynamic server a read's bank generation is unknown, so ``churn``
    replays the writes into ``reference`` in the order their replies
    number them, then re-sends a sample of reads through ``send(op,
    tag) -> (body, seconds)`` and checks those.  Returns the checked
    ``(op, body)`` pairs and a list of problems.
    """
    problems = []
    if workload.dynamic:
        bank = f"{reference.name}@{reference.alpha}"
        ordered = sorted(
            (json.loads(r.body)["banks"][bank]["generation"], r.index)
            for r in window if r.kind == "mutate" and r.status == 200)
        if [g for g, _ in ordered] != list(range(1, len(ordered) + 1)):
            problems.append("mutation generations are not 1..M: "
                            "concurrent writes were lost or merged")
        for _, index in ordered:
            reference.mutate(plan[index][2]["ops"])
        reads = [op for op in plan if op[0] != "mutate"][:CHURN_SAMPLE]
        pairs = [(op, send(op, f"check-{i}")[0])
                 for i, op in enumerate(reads)]
    else:
        kept = [r for r in window if r.status == 200
                and r.body is not None and r.kind != "mutate"]
        if workload.name == "topk-heavy":
            kept = [r for r in kept if r.index % TOPK_CHECK_EVERY == 0]
        pairs = [(plan[r.index], r.body) for r in kept]
    if not pairs:
        problems.append("no replies sampled for the byte check")
    problems += reference.mismatches(pairs)
    return pairs, problems


def print_result(correct: bool, attempted: int, failed: int,
                 metrics: dict) -> None:
    """Print each metric on its own line, then the one-line JSON result
    that must end the output."""
    for name, entry in metrics.items():
        print(f"  {name:34s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
