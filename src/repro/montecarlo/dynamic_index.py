"""Mutable-graph forest index: a bank that repairs instead of rebuilding.

:class:`DynamicForestIndex` extends
:class:`~repro.montecarlo.forest_index.ForestIndex` with the arrow
records of :mod:`repro.forests.repair`.  At build time every forest's
consumed stack prefix is kept alongside it; when the graph mutates
(:class:`~repro.graph.delta.GraphDelta`), :meth:`mutated` produces a
*new* index over the new graph by replaying the surviving records and
drawing fresh arrows only where mutations invalidated them — exact in
distribution, and typically orders of magnitude fewer fresh draws than
a full rebuild (the ``repair_*`` counters prove it per call).

Mutation returns a new object rather than editing in place so the
serving layer's atomic generation swap keeps working: in-flight queries
hold the old index, the manager publishes the repaired one, the old one
retires when released.

The estimator/serving surface is inherited unchanged — a dynamic index
folds queries exactly like a static one, and the operator bank it
publishes to worker processes is the ordinary ``forest-index`` kind.
Only the *persistence* form differs: :meth:`save_dynamic_bank` stores
graph + forests + records (everything a later ``repro index mutate``
needs), under its own bank kind so the two artifact types cannot be
confused.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.counters import WorkCounters
from repro.exceptions import ConfigError, GraphError
from repro.forests.forest import RootedForest
from repro.forests.repair import (
    STOP_ARROW,
    ForestRecord,
    repair_forest,
    sample_forest_recorded,
)
from repro.graph.csr import Graph
from repro.graph.delta import GraphDelta
from repro.montecarlo.forest_index import ForestIndex, degree_checksum
from repro.rng import ensure_rng

__all__ = ["DynamicForestIndex", "DYNAMIC_BANK_KIND"]

#: Bank-manifest kind for the repairable on-disk artifact.
DYNAMIC_BANK_KIND = "dynamic-forest-index"


class DynamicForestIndex(ForestIndex):
    """A forest bank that supports exact incremental repair.

    Attributes
    ----------
    records:
        One :class:`~repro.forests.repair.ForestRecord` per stored
        forest — the replayable arrow stacks.
    """

    def __init__(self, graph: Graph, alpha: float,
                 forests: list[RootedForest], build_seconds: float, *,
                 records: list[ForestRecord], **kwargs):
        super().__init__(graph, alpha, forests, build_seconds, **kwargs)
        if len(records) != len(forests):
            raise ConfigError(
                f"{len(forests)} forests but {len(records)} records")
        self.records = records

    @classmethod
    def build(cls, graph: Graph, alpha: float, num_forests: int,
              rng: np.random.Generator | int | None = None,
              method: str = "cycle_popping",
              workers: int | None = 1,
              variance_mode: str = "improved") -> "DynamicForestIndex":
        """Sample ``num_forests`` forests, keeping their arrow records.

        The stored forests are bit-identical to
        :meth:`ForestIndex.build` at the same seed.  Recording is tied
        to the sampling loop, so the build always runs in-process;
        ``workers`` is accepted for signature parity and ignored, and
        ``method`` must stay ``"cycle_popping"`` (the only sampler with
        a stack formulation to record).  ``variance_mode`` must stay
        ``"improved"``: stratified sampling couples forests through a
        batch-wide grid whose arrow draws have no per-forest stack
        replay, so repaired forests could not reproduce the coupled
        law.
        """
        if num_forests <= 0:
            raise ConfigError("num_forests must be positive")
        if method not in ("cycle_popping", "auto"):
            raise ConfigError(
                f"dynamic indexes require the cycle_popping sampler, "
                f"got method={method!r}")
        if variance_mode != "improved":
            raise ConfigError(
                f"dynamic indexes require variance_mode='improved' "
                f"(recorded sampling has no stratified/control-variate "
                f"replay), got {variance_mode!r}")
        del workers
        counters = WorkCounters()
        generator = ensure_rng(rng)
        started = time.perf_counter()
        forests: list[RootedForest] = []
        records: list[ForestRecord] = []
        for _ in range(num_forests):
            forest, record = sample_forest_recorded(
                graph, alpha, rng=generator, counters=counters)
            forests.append(forest)
            records.append(record)
        for forest in forests:
            forest.component_degree_mass(graph.degrees)
        index = cls(graph, alpha, forests,
                    build_seconds=time.perf_counter() - started,
                    records=records)
        index.build_counters = counters
        return index

    @property
    def record_arrows(self) -> int:
        """Total recorded arrow draws across the bank (memory proxy)."""
        return sum(record.num_arrows for record in self.records)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def mutated(self, delta: GraphDelta,
                rng: np.random.Generator | int | None = None,
                ) -> tuple["DynamicForestIndex", WorkCounters]:
        """Apply ``delta`` and repair every forest against the result.

        Returns ``(new_index, repair_counters)``.  ``self`` is left
        untouched (old generation keeps serving until swapped out).
        The counters carry ``repair_fresh_steps`` — the only sampling
        work actually paid — alongside the replayed-read and
        dirty-node tallies; compare against a fresh build's
        ``walk_steps`` for the repair-vs-rebuild bound.
        """
        new_graph = delta.apply(self.graph)
        dirty = delta.touched_nodes()
        counters = WorkCounters()
        generator = ensure_rng(rng)
        started = time.perf_counter()
        forests: list[RootedForest] = []
        records: list[ForestRecord] = []
        for record in self.records:
            forest, new_record = repair_forest(
                new_graph, self.alpha, record, dirty, rng=generator,
                counters=counters)
            forests.append(forest)
            records.append(new_record)
        for forest in forests:
            forest.component_degree_mass(new_graph.degrees)
        index = DynamicForestIndex(
            new_graph, self.alpha, forests,
            build_seconds=time.perf_counter() - started,
            records=records)
        # cumulative construction cost: the original build plus every
        # repair so far (repairs add only repair_* work, no walk steps)
        index.build_counters = (WorkCounters() + self.build_counters
                                ).merge(counters)
        return index, counters

    # ------------------------------------------------------------------
    # Persistence (repairable artifact)
    # ------------------------------------------------------------------
    def save_dynamic_bank(self, path: str | os.PathLike) -> None:
        """Write the repairable bank: graph + forests + arrow records.

        Unlike :meth:`ForestIndex.save_bank` (fold operators only),
        this artifact is self-contained — ``repro index mutate`` loads
        it, applies a delta, and writes it back without needing the
        original dataset.
        """
        from repro.parallel.shared_bank import save_array_bank

        graph = self.graph
        record_offsets = np.concatenate(
            ([0], np.cumsum([record.num_arrows for record in self.records],
                            dtype=np.int64)))
        arrays = {
            "graph_indptr": graph.indptr,
            "graph_indices": graph.indices,
            "roots": np.stack([forest.roots for forest in self.forests]),
            "parents": np.stack([forest.parents for forest in self.forests]),
            "steps": np.asarray([forest.num_steps
                                 for forest in self.forests],
                                dtype=np.int64),
            "record_indptr": np.stack([record.indptr
                                       for record in self.records]),
            "record_arrows": (
                np.concatenate([record.arrows for record in self.records])
                if record_offsets[-1] else np.empty(0, dtype=np.int64)),
            "record_offsets": record_offsets,
        }
        if graph.weights is not None:
            arrays["graph_weights"] = graph.weights
        meta = {
            "kind": DYNAMIC_BANK_KIND,
            "alpha": float(self.alpha),
            "num_nodes": int(graph.num_nodes),
            "num_forests": int(self.num_forests),
            "directed": bool(graph.directed),
            "build_steps": int(self.build_steps),
            "build_seconds": float(self.build_seconds),
            "degree_checksum": int(degree_checksum(graph)),
            # dynamic banks always serialize the raw node space: the
            # arrow records replay against node ids, and repairs would
            # invalidate any cached relabeling anyway
            "bank_dtype": "float64",
            "node_order": "none",
            "variance_mode": "improved",
        }
        save_array_bank(path, arrays, meta)

    @classmethod
    def load_dynamic_bank(cls, path: str | os.PathLike,
                          ) -> "DynamicForestIndex":
        """Load a :meth:`save_dynamic_bank` directory.

        The graph travels inside the artifact (mutations change it, so
        it cannot be re-derived from any dataset), and its degree
        checksum is verified against the manifest on the way in.  Every
        forest and arrow record is checked against that graph too (see
        :func:`_check_loaded`): a corrupt record would otherwise be
        replayed by :meth:`mutated` into a forest with a parent that is
        not an edge.
        """
        from repro.parallel.shared_bank import load_array_bank

        arrays, meta = load_array_bank(path, mmap=False)
        if meta.get("kind") != DYNAMIC_BANK_KIND:
            raise ConfigError(
                f"bank is not a dynamic forest index "
                f"(kind={meta.get('kind')!r}); rebuild with "
                f"'repro index build --dynamic'")
        weights = arrays.get("graph_weights")
        graph = Graph(arrays["graph_indptr"], arrays["graph_indices"],
                      weights, directed=bool(meta.get("directed", False)),
                      validate=True)
        cls._check_graph_match(graph, int(meta["num_nodes"]),
                               meta.get("degree_checksum"),
                               "dynamic index bank")
        forests = [
            RootedForest(roots=np.ascontiguousarray(roots),
                         parents=np.ascontiguousarray(parents),
                         num_steps=int(steps), method="loaded")
            for roots, parents, steps in zip(
                arrays["roots"], arrays["parents"], arrays["steps"])]
        offsets = arrays["record_offsets"]
        flat = arrays["record_arrows"]
        records = [
            ForestRecord(
                indptr=np.ascontiguousarray(indptr),
                arrows=np.ascontiguousarray(
                    flat[int(offsets[i]):int(offsets[i + 1])]))
            for i, indptr in enumerate(arrays["record_indptr"])]
        _check_loaded(graph, forests, records)
        index = cls(graph, float(meta["alpha"]), forests,
                    build_seconds=float(meta.get("build_seconds", 0.0)),
                    records=records,
                    build_steps=int(meta.get("build_steps", 0)))
        for forest in index.forests:
            forest.component_degree_mass(graph.degrees)
        return index


def _check_loaded(graph: Graph, forests: list[RootedForest],
                  records: list[ForestRecord]) -> None:
    """Raise :class:`ConfigError` unless every loaded forest is a valid
    rooted forest on ``graph`` and every record is a CSR of arrows,
    each :data:`STOP_ARROW` or an out-neighbour of its node."""
    n = graph.num_nodes
    edge_keys = (np.repeat(np.arange(n, dtype=np.int64), graph.out_degrees)
                 * n + graph.indices)
    for i, (forest, record) in enumerate(zip(forests, records)):
        indptr, arrows = record.indptr, record.arrows
        if (indptr.shape != (n + 1,) or indptr[0] != 0
                or np.any(np.diff(indptr) < 0)
                or indptr[-1] != arrows.size):
            raise ConfigError(
                f"dynamic bank forest {i}: record indptr is not a CSR "
                f"offset array over {n} nodes and {arrows.size} arrows")
        owners = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        moves = arrows != STOP_ARROW
        heads, tails = owners[moves], arrows[moves]
        if tails.size and (tails.min() < 0 or tails.max() >= n or not
                           np.isin(heads * n + tails, edge_keys).all()):
            raise ConfigError(
                f"dynamic bank forest {i}: a recorded arrow is neither "
                f"a stop nor an out-edge of its node")
        try:
            if forest.num_nodes != n:
                raise GraphError(f"forest covers {forest.num_nodes} nodes")
            forest.validate()
        except GraphError as exc:
            raise ConfigError(f"dynamic bank forest {i}: {exc}") from None
