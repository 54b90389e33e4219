"""Vectorised forest sampling via cycle popping.

Wilson's algorithm has an equivalent "stacks of arrows" formulation
(Propp & Wilson): give every node an infinite stack of i.i.d. arrows —
each arrow is *stop here* with probability α (making the node a root)
or *step to a random neighbour* with probability ``(1-α)·w_uv/d_u`` —
and pop cycles of the functional graph formed by the top arrows until
none remain.  The cycle-popping theorem states the surviving top arrows
form a rooted spanning forest with exactly the target distribution
``Pr(F) ∝ w(F)·Π_{ρ(F)} β d_u``, *independently of the order in which
cycles are popped*.

That order-independence is what we exploit to vectorise:

1. draw top arrows for every node at once (three NumPy ops via the
   alias table);
2. find all "bad" cycles — cycles of the arrow map not fixed at a root
   — with pointer doubling (cycles of a functional graph are
   vertex-disjoint, so popping them simultaneously is a valid popping
   order);
3. redraw arrows only for the popped nodes; repeat.

Each arrow draw corresponds to one walk step of Algorithm 1, so the
total number of draws reproduces the τ statistic in distribution.

The expected number of rounds is small in practice: after the first
pass only nodes on bad cycles survive, and each of those stops with
probability ≥ α per redraw while most escape into the settled forest
far sooner.

:func:`pop_cycles` is the one popping loop behind every vectorised
sampler; :func:`sample_forest_cycle_popping`,
:func:`~repro.forests.batch_sampling.sample_forests_batch`,
:func:`~repro.forests.repair.sample_forest_recorded` and
:func:`~repro.forests.repair.repair_forest` only check arguments and
assemble its output.  It varies in three ways: the number of
disjoint-union ``layers`` (batching), a ``stratified`` arrow draw
(Latin-hypercube coupling across layers) and a ``record`` of stack
prefixes replayed before fresh arrows are drawn (repair).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.exceptions import ConfigError, ConvergenceError
from repro.forests.forest import RootedForest
from repro.graph.csr import Graph
from repro.rng import ensure_rng

__all__ = ["sample_forest_cycle_popping"]

#: Record marker for a "stop here" arrow (the node became a root).
STOP_ARROW = -1


class Popped(NamedTuple):
    """The surviving top arrows of one :func:`pop_cycles` run.

    Node ids are union ids ``layer·n + u``.  ``steps`` holds the arrows
    drawn or replayed per layer; ``replayed`` and the ``fresh_*`` lists
    (nodes and arrows drawn per round, :data:`STOP_ARROW` for stops)
    are filled only when a ``record`` was given.
    """

    roots: np.ndarray
    parents: np.ndarray
    steps: np.ndarray
    strata: int
    replayed: int
    fresh_nodes: list[np.ndarray]
    fresh_arrows: list[np.ndarray]


def _stratified_uniforms(base: np.ndarray, generator: np.random.Generator
                         ) -> tuple[np.ndarray, np.ndarray, int]:
    """Latin-hypercube uniforms for one popping round.

    ``base`` holds the base-graph node of every active union-node.
    Layers sharing a base node form one stratum of size ``k``: each
    layer is assigned a distinct cell ``[j/k, (j+1)/k)`` of the unit
    interval (a fresh random permutation per node per round) and draws
    its arrow uniform inside that cell.  Marginally every layer still
    sees an i.i.d. ``U[0, 1)`` stream, so each forest keeps the exact
    sequential cycle-popping law; only the *joint* draw across layers
    is coupled, which is what shrinks the variance of bank means.

    Returns ``(order, uniforms, strata)`` where ``order`` sorts the
    active set by base node, ``uniforms`` aligns with ``base[order]``,
    and ``strata`` counts the multi-layer groups formed.
    """
    m = base.size
    order = np.argsort(base, kind="stable")
    sorted_base = base[order]
    boundary = np.empty(m, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_base[1:], sorted_base[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    counts = np.diff(np.append(starts, m))
    sizes = np.repeat(counts, counts)
    # random permutation within each group: rank layers by an i.i.d. key
    keys = generator.random(m)
    within = np.lexsort((keys, sorted_base))
    ranks = np.empty(m, dtype=np.int64)
    ranks[within] = np.arange(m) - np.repeat(starts, counts)
    uniforms = (ranks + generator.random(m)) / sizes
    return order, uniforms, int(np.count_nonzero(counts > 1))


def _neighbors_from_quantiles(graph: Graph, nodes: np.ndarray,
                              quantiles: np.ndarray,
                              edge_cumsum: np.ndarray | None) -> np.ndarray:
    """Inverse-CDF neighbour choice: quantile ``q`` → out-edge of ``u``.

    Unweighted rows use ``floor(q·deg)``; weighted rows binary-search
    the global edge-weight cumsum (strictly increasing, weights > 0)
    restricted to the row, so the draw matches the alias table's law.
    """
    lo = graph.indptr[nodes]
    if graph.weights is None:
        deg = graph.indptr[nodes + 1] - lo
        slot = np.minimum((quantiles * deg).astype(np.int64), deg - 1)
        return graph.indices[lo + slot]
    targets = edge_cumsum[lo] + quantiles * graph.degrees[nodes]
    pos = np.searchsorted(edge_cumsum, targets, side="right") - 1
    return graph.indices[np.minimum(pos, graph.indptr[nodes + 1] - 1)]


def pop_cycles(graph: Graph, alpha: float,
               rng: np.random.Generator | int | None, max_rounds: int, *,
               layers: int = 1, stratified: bool = False,
               record: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
               ) -> Popped:
    """Cycle popping on the disjoint union of ``layers`` copies of ``graph``.

    Internal to :mod:`repro.forests`; the public samplers wrap it.

    ``stratified`` draws each round's uniforms with
    :func:`_stratified_uniforms` and picks neighbours by inverse CDF.
    ``record = (starts, lengths, arrows)`` (single layer only) gives
    node ``u`` the stack prefix ``arrows[starts[u]:starts[u] +
    lengths[u]]``, read before any fresh draw.

    Resolution is incremental: once a node's arrow chain reaches a
    root it can never be disturbed (popped nodes all lie on bad
    cycles, and chains of settled nodes avoid those by definition), so
    each popping round re-resolves only the still-trapped set.  The
    ``short`` map sends settled nodes straight to their root, keeping
    the pointer-doubling depth at ``O(log |trapped|)``.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie strictly in (0, 1), got {alpha}")
    generator = ensure_rng(rng)
    n = graph.num_nodes
    total = layers * n
    alias = graph.alias_table
    out_degrees = graph.out_degrees
    edge_cumsum = None
    if stratified and graph.weights is not None:
        # global running sum; within row u it is offset + per-row cumsum
        edge_cumsum = np.concatenate(
            ([0.0], np.cumsum(graph.weights, dtype=np.float64)))

    next_node = np.empty(total, dtype=np.int64)
    is_root = np.zeros(total, dtype=bool)
    # short[u]: u's root once settled (a fixed point), else its arrow
    short = np.empty(total, dtype=np.int64)
    # pops[u]: times u's top arrow was popped (its stack position);
    # kept only where per-layer steps or record replay need it
    pops = (np.zeros(total, dtype=np.int64)
            if layers > 1 or record is not None else None)
    active = np.arange(total)   # nodes whose arrows must be (re)drawn
    trapped = np.arange(total)  # nodes not yet proven to reach a root
    steps = replayed = strata = 0
    fresh_nodes: list[np.ndarray] = []
    fresh_arrows: list[np.ndarray] = []

    for _ in range(max_rounds):
        # (1) top arrows for the active (popped) nodes: replayed from
        # the record while it covers the stack position, else fresh
        steps += active.size
        drawing = active
        if record is not None:
            starts, lengths, arrows = record
            replaying = pops[active] < lengths[active]
            recorded = active[replaying]
            replayed += recorded.size
            tops = arrows[starts[recorded] + pops[recorded]]
            is_root[recorded] = halted = tops == STOP_ARROW
            next_node[recorded] = np.where(halted, recorded, tops)
            drawing = active[~replaying]
        if drawing.size:
            base = drawing % n if layers > 1 else drawing
            if stratified:
                order, uniforms, groups = _stratified_uniforms(base, generator)
                drawing, base = drawing[order], base[order]
                strata += groups
            else:
                uniforms = generator.random(drawing.size)
            stops = (uniforms < alpha) | (out_degrees[base] == 0)
            is_root[drawing] = stops
            next_node[drawing] = drawing
            moving = ~stops
            movers = drawing[moving]
            if movers.size:
                movers_base = base[moving] if layers > 1 else movers
                if stratified:
                    # reuse the surviving uniform: conditional on u >= α
                    # it is U[α, 1), so (u-α)/(1-α) is an independent U[0, 1)
                    targets = _neighbors_from_quantiles(
                        graph, movers_base,
                        (uniforms[moving] - alpha) / (1.0 - alpha),
                        edge_cumsum)
                else:
                    targets = alias.sample_neighbors(movers_base,
                                                     rng=generator)
                if layers > 1:
                    targets = targets + (movers - movers_base)
                next_node[movers] = targets
            if record is not None:
                fresh_nodes.append(drawing)
                fresh_arrows.append(
                    np.where(stops, STOP_ARROW, next_node[drawing]))
        short[trapped] = next_node[trapped]

        # (2) resolve the trapped chains by pointer doubling restricted
        # to the trapped set (their chains stay inside it until they
        # hit a settled node, which `short` maps to its root directly)
        doubling = int(np.ceil(np.log2(trapped.size + 2))) + 1
        jump = short.copy()
        for _ in range(doubling):
            jump[trapped] = jump[jump[trapped]]
        resolved = jump[trapped]
        done = is_root[resolved]
        short[trapped[done]] = resolved[done]

        still = trapped[~done]
        if still.size == 0:
            next_node[is_root] = -1
            layer_steps = (np.array([steps]) if layers == 1 else
                           n + pops.reshape(layers, n).sum(axis=1))
            return Popped(short, next_node, layer_steps, strata, replayed,
                          fresh_nodes, fresh_arrows)

        # (3) pop: nodes lying on bad cycles are exactly the resolved
        # targets of trapped chains (f^T is a bijection on each cycle)
        active = np.unique(resolved[~done])
        if pops is not None:
            pops[active] += 1
        trapped = still

    raise ConvergenceError(
        f"cycle popping did not terminate within {max_rounds} rounds",
        iterations=max_rounds)


def sample_forest_cycle_popping(graph: Graph, alpha: float,
                                rng: np.random.Generator | int | None = None,
                                max_rounds: int = 10_000_000) -> RootedForest:
    """Sample one rooted spanning forest (same law as Algorithm 1).

    Parameters
    ----------
    graph, alpha, rng:
        As in :func:`repro.forests.wilson.sample_forest_wilson`.
    max_rounds:
        Safety bound on popping rounds; exceeded only if something is
        deeply wrong (each round terminates a.s.).

    Returns
    -------
    RootedForest
        ``num_steps`` counts every arrow drawn — equal in distribution
        to the reference sampler's walk-step count (the empirical τ).
    """
    popped = pop_cycles(graph, alpha, rng, max_rounds)
    return RootedForest(roots=popped.roots, parents=popped.parents,
                        num_steps=int(popped.steps[0]),
                        method="cycle_popping")
