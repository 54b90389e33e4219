"""Golden digest of every cycle-popping entry point.

The chi-square suites check the *law* of the samplers; they cannot see
a change in the *draw order*, which would move every seeded answer,
work counter and committed benchmark baseline.  This test hashes the
exact outputs of all four entry points over a fixed matrix and pins
the SHA-256:

- :func:`sample_forest_cycle_popping` (roots, parents, steps, pops);
- :func:`sample_forests_batch` at k ∈ {1, 3, 16}, plain and stratified
  (every forest, plus the ``WorkCounters`` dict incl. ``strata``);
- :func:`sample_forest_recorded` (forest, record ``indptr``/``arrows``,
  counters);
- a three-step :func:`repair_forest` chain (forest, record, counters
  incl. ``repair_*``).

The graphs are a plain ER graph, a weighted one and a directed graph
with sinks; α ∈ {0.05, 0.2, 0.6}; four seeds each.  A refactor of the
popping loop must leave the digest unchanged.  If the draw order is
changed *on purpose*, recompute the digest with :func:`kernel_digest`
and say so in the changelog: seeded answers move with it.
"""

import hashlib
import json

import numpy as np

from repro.counters import WorkCounters
from repro.forests import (
    repair_forest,
    sample_forest_cycle_popping,
    sample_forest_recorded,
    sample_forests_batch,
)
from repro.graph import GraphDelta, from_edges
from repro.graph.generators import erdos_renyi, with_random_weights

GOLDEN_DIGEST = (
    "9e87289835cbfcf5435b9da7ff0e4c2a7c56568a8d6dccb535fa961116a91357")

ALPHAS = (0.05, 0.2, 0.6)
SEEDS = range(4)
BATCHES = (1, 3, 16)


def _graphs():
    plain = erdos_renyi(24, 0.2, rng=7)
    weighted = with_random_weights(erdos_renyi(24, 0.2, rng=8), rng=9)
    # directed, with sinks: nodes 20..23 have no out-edges
    rng = np.random.default_rng(10)
    arcs = {(int(u), int(v)) for u, v in rng.integers(0, 24, size=(90, 2))
            if u != v and u < 20}
    directed = from_edges(sorted(arcs), num_nodes=24, directed=True)
    return {"plain": plain, "weighted": weighted, "directed": directed}


def _mutations():
    """A three-step chain: upsert, reweight-by-upsert, remove."""
    return [GraphDelta().upsert_edge(0, 5, 2.0),
            GraphDelta().upsert_edge(3, 11, 0.5).upsert_edge(7, 2, 3.0),
            GraphDelta().remove_edge(0, 5)]


def _feed(digest, *parts):
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(np.ascontiguousarray(part, dtype=np.int64).tobytes())
        else:
            digest.update(json.dumps(part, sort_keys=True).encode())


def _feed_forest(digest, forest):
    _feed(digest, forest.roots, forest.parents,
          [int(forest.num_steps), int(forest.num_pops), forest.method])


def kernel_digest() -> str:
    """SHA-256 over the entry-point outputs of the module's matrix."""
    digest = hashlib.sha256()
    for name, graph in _graphs().items():
        for alpha in ALPHAS:
            for seed in SEEDS:
                _feed(digest, [name, alpha, seed])
                _feed_forest(digest, sample_forest_cycle_popping(
                    graph, alpha, rng=seed))
                for count in BATCHES:
                    for stratified in (False, True):
                        counters = WorkCounters()
                        for forest in sample_forests_batch(
                                graph, alpha, count, rng=seed,
                                counters=counters, stratified=stratified):
                            _feed_forest(digest, forest)
                        _feed(digest, counters.as_dict())
                counters = WorkCounters()
                forest, record = sample_forest_recorded(
                    graph, alpha, rng=seed, counters=counters)
                _feed_forest(digest, forest)
                _feed(digest, record.indptr, record.arrows,
                      counters.as_dict())
                current = graph
                for step, delta in enumerate(_mutations()):
                    current = delta.apply(current)
                    counters = WorkCounters()
                    forest, record = repair_forest(
                        current, alpha, record, delta.touched_nodes(),
                        rng=1000 * seed + step, counters=counters)
                    _feed_forest(digest, forest)
                    _feed(digest, record.indptr, record.arrows,
                          counters.as_dict())
    return digest.hexdigest()


def test_kernel_digest_is_pinned():
    assert kernel_digest() == GOLDEN_DIGEST
