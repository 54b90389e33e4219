"""Seeded request plans and the small statistics the benchmark reports.

Everything here is pure: no import of the program under test, no
clock, no I/O.  A plan is a list of operations ``(kind, path, body)``
that the load generator sends in order; the same seed always gives the
same plan, so a run's inputs are fixed by ``--seed`` alone.
"""

from __future__ import annotations

import numpy as np

#: Read kinds of the ``point-lone`` cycle, one of each per block.
POINT_KINDS = ("source", "target", "pair", "multiseed")
#: Every fourth block of ``point-lone`` repeats the block two earlier,
#: so exactly a quarter of its reads repeat an earlier (kind, node).
REPEAT_EVERY = 4
REPEAT_LAG = 2
#: Seeds per ``/multiseed`` request.
MULTISEED_SIZE = 3
#: Depth of every ``/topk`` request.
TOPK_K = 10
#: ``churn`` sends a ``/mutate`` upsert as every 8th operation.
MUTATE_EVERY = 8
#: Skew of the ``churn`` reads: P(rank r) ∝ r^-ZIPF_EXPONENT.
ZIPF_EXPONENT = 1.0
#: Degree strata used to spread plan nodes over low- and high-degree
#: nodes alike.
STRATA = 4


def _op(kind: str, nodes) -> tuple[str, str, dict]:
    """Wire form of one operation: ``(kind, path, JSON body)``."""
    if kind in ("source", "target"):
        return kind, "/query", {"kind": kind, "node": int(nodes)}
    if kind == "pair":
        source, target = nodes
        return kind, "/pair", {"source": int(source), "target": int(target)}
    if kind == "multiseed":
        return kind, "/multiseed", {"seeds": [int(n) for n in nodes]}
    if kind == "topk":
        return kind, "/topk", {"node": int(nodes), "k": TOPK_K}
    if kind == "mutate":
        u, v = nodes
        return kind, "/mutate", {"ops": [{"op": "upsert", "u": int(u),
                                          "v": int(v), "weight": 1.0}]}
    raise ValueError(f"unknown kind {kind!r}")


def op_key(op) -> tuple:
    """Hashable identity of an operation: its kind and its nodes."""
    kind, _, body = op
    return (kind,) + tuple(
        tuple(value) if isinstance(value, list) else value
        for key, value in sorted(body.items()))


def _stratified(degrees: np.ndarray, rng: np.random.Generator):
    """Endless node stream cycling over degree strata; within each
    stratum nodes come in a seeded random order without repeats until
    the stratum is exhausted."""
    order = np.argsort(degrees, kind="stable")
    strata = [rng.permutation(part) for part in np.array_split(order, STRATA)]
    position = 0
    while True:
        for stratum in strata:
            yield int(stratum[position % stratum.size])
        position += 1


def point_lone_plan(degrees: np.ndarray, seed: int,
                    length: int) -> list[tuple[str, str, dict]]:
    """Blocks of one ``source``, ``target``, ``pair`` and ``multiseed``
    read over degree-stratified nodes.  Block ``b`` with
    ``b % REPEAT_EVERY == REPEAT_EVERY - 1`` repeats block
    ``b - REPEAT_LAG``; every other block is new."""
    rng = np.random.default_rng([seed, 1])
    nodes = _stratified(np.asarray(degrees), rng)
    blocks: list[list] = []
    while len(blocks) * len(POINT_KINDS) < length:
        if len(blocks) % REPEAT_EVERY == REPEAT_EVERY - 1:
            blocks.append(blocks[-REPEAT_LAG])
            continue
        source, target = next(nodes), next(nodes)
        while target == source:
            target = next(nodes)
        seeds: list[int] = []
        while len(seeds) < MULTISEED_SIZE:
            node = next(nodes)
            if node not in seeds:
                seeds.append(node)
        blocks.append([_op("source", next(nodes)),
                       _op("target", next(nodes)),
                       _op("pair", (source, target)),
                       _op("multiseed", sorted(seeds))])
    return [op for block in blocks for op in block][:length]


def topk_plan(degrees: np.ndarray, seed: int,
              length: int) -> list[tuple[str, str, dict]]:
    """``/topk`` over distinct degree-stratified nodes (no cache hits)."""
    if length > len(degrees):
        raise ValueError("topk plan asks for more distinct nodes than exist")
    rng = np.random.default_rng([seed, 2])
    nodes = _stratified(np.asarray(degrees), rng)
    return [_op("topk", next(nodes)) for _ in range(length)]


def churn_plan(num_nodes: int, has_edge, seed: int,
               length: int) -> list[tuple[str, str, dict]]:
    """Zipf-skewed reads, alternately ``source`` and ``target``, with every
    ``MUTATE_EVERY``-th operation an upsert of a new unit-weight edge.

    ``has_edge(u, v)`` tells which pairs the graph already holds; every
    upserted edge is absent from the graph and from earlier upserts, so
    each write adds exactly one edge whatever order the writes land in.
    """
    rng = np.random.default_rng([seed, 3])
    popularity = rng.permutation(num_nodes)
    weights = 1.0 / np.arange(1, num_nodes + 1) ** ZIPF_EXPONENT
    weights /= weights.sum()
    added: set[tuple[int, int]] = set()
    plan = []
    for position in range(length):
        if position % MUTATE_EVERY == MUTATE_EVERY - 1:
            while True:
                u, v = (int(x) for x in rng.integers(0, num_nodes, size=2))
                edge = (min(u, v), max(u, v))
                if u != v and edge not in added and not has_edge(u, v):
                    break
            added.add(edge)
            plan.append(_op("mutate", edge))
        else:
            node = int(popularity[rng.choice(num_nodes, p=weights)])
            reads = position - position // MUTATE_EVERY
            plan.append(_op("source" if reads % 2 == 0 else "target", node))
    return plan


def repeat_share(plan) -> float:
    """Share of reads that repeat an earlier read's (kind, nodes)."""
    seen: set[tuple] = set()
    reads = repeats = 0
    for op in plan:
        if op[0] == "mutate":
            continue
        key = op_key(op)
        reads += 1
        repeats += key in seen
        seen.add(key)
    return repeats / reads if reads else 0.0


def kind_mix(plan) -> dict[str, float]:
    """Share of each kind in ``plan``."""
    counts: dict[str, int] = {}
    for kind, _, _ in plan:
        counts[kind] = counts.get(kind, 0) + 1
    return {kind: count / len(plan) for kind, count in sorted(counts.items())}


# -- statistics -------------------------------------------------------
def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    closest ranks, as ``numpy.percentile`` computes it by default."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    if rank == low or ordered[high] == ordered[low]:
        return ordered[low]  # no interpolation, so no inf - inf
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def beyond(count: int, q: float) -> int:
    """Samples strictly above the ``q``-th percentile of ``count``."""
    return count - 1 - int((count - 1) * q / 100.0)


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration minus the part of its
    interval covered by its children (overlapping children count once;
    a child reaching outside its parent counts only inside).

    ``spans`` maps span id → ``(start, end, parent_id or None)``.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span_id, (start, end, parent) in spans.items():
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = {}
    for span_id, (start, end, _) in spans.items():
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, [])):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span_id] = (end - start) - covered
    return result
