r"""Batched forest sampling: many independent forests per NumPy pass.

Sampling ``k`` independent forests of ``G`` is *identical in law* to
sampling one forest of the disjoint union of ``k`` copies of ``G``
(arrow stacks are per-node independent, and cycle popping never crosses
components).  Working on the union — node ``(layer, u)`` encoded as
``layer·n + u`` — lets every popping round draw arrows and resolve
pointers for **all layers at once**, amortising the per-round NumPy
call overhead that dominates the single-forest sampler when α is small
and cycles pop slowly.

The union is virtual: neighbour sampling runs against the base graph's
alias table on ``id mod n`` and adds the layer offset back, so memory
is ``O(k·n)`` work arrays, never ``k`` copies of the edges.  The
popping loop itself is :func:`repro.forests.cycle_popping.pop_cycles`.

Equivalence with the sequential samplers is tested statistically.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigError
from repro.forests.cycle_popping import pop_cycles
from repro.forests.forest import RootedForest
from repro.graph.csr import Graph

__all__ = ["sample_forests_batch"]


def sample_forests_batch(graph: Graph, alpha: float, count: int,
                         rng: np.random.Generator | int | None = None,
                         max_rounds: int = 10_000_000,
                         counters=None,
                         stratified: bool = False) -> list[RootedForest]:
    """Sample ``count`` independent rooted spanning forests at once.

    Same distribution as ``count`` calls of
    :func:`~repro.forests.cycle_popping.sample_forest_cycle_popping`.
    ``counters`` (a :class:`~repro.counters.WorkCounters`) is credited
    with every layer's steps and pops if given.

    When it pays: the batch shares popping rounds, so the per-round
    NumPy call overhead is amortised — about 2× faster on small graphs
    (n ≲ 1000) or large batches.  On graphs with tens of thousands of
    nodes the per-round array work dominates either way and the
    sequential sampler is just as fast; measured numbers live in the
    sampler ablation bench.

    ``stratified=True`` couples the layers' arrow draws through a
    Latin-hypercube grid per (node, round) — see
    :func:`~repro.forests.cycle_popping._stratified_uniforms`.  Every
    individual forest keeps the exact product-law marginal, so all
    estimators stay unbiased; only estimates *averaged across the
    batch* see reduced variance (the ``variance_mode="stratified"``
    contract measured by
    :func:`repro.forests.statistics.empirical_variance_ratio`).
    ``counters.strata`` is credited with the groups formed.
    """
    if count <= 0:
        raise ConfigError("count must be positive")
    n = graph.num_nodes
    popped = pop_cycles(graph, alpha, rng, max_rounds, layers=count,
                        stratified=stratified)
    forests = []
    for layer in range(count):
        lo = layer * n
        parents = popped.parents[lo:lo + n]
        forests.append(RootedForest(
            roots=popped.roots[lo:lo + n] - lo,
            parents=np.where(parents >= 0, parents - lo, -1),
            num_steps=int(popped.steps[layer]),
            method="cycle_popping_batch"))
    if counters is not None:
        for forest in forests:
            counters.record_forest(forest)
        counters.strata += popped.strata
    return forests
