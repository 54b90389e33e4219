"""Tests of the benchmark's own helpers.

    python3 -m pytest servebench -q
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import plan  # noqa: E402

DEGREES = np.random.default_rng(0).integers(1, 50, size=400)
EDGES = {(u, u + 1) for u in range(399)}


def has_edge(u, v):
    return (min(u, v), max(u, v)) in EDGES


def plans(seed, length=320):
    return {
        "point-lone": plan.point_lone_plan(DEGREES, seed, length),
        "topk-heavy": plan.topk_plan(DEGREES, seed, length),
        "churn": plan.churn_plan(len(DEGREES), has_edge, seed, length),
    }


@pytest.mark.parametrize("workload", ["point-lone", "topk-heavy", "churn"])
def test_same_seed_same_plan(workload):
    assert plans(7)[workload] == plans(7)[workload]


@pytest.mark.parametrize("workload", ["point-lone", "topk-heavy", "churn"])
def test_other_seed_other_plan_same_mix(workload):
    first, second = plans(7)[workload], plans(8)[workload]
    assert first != second
    assert plan.kind_mix(first) == plan.kind_mix(second)
    if workload != "churn":  # churn's repeats come from its Zipf skew
        assert plan.repeat_share(first) == plan.repeat_share(second)


def test_point_lone_mix_and_repeat_share():
    ops = plans(3)["point-lone"]
    assert plan.kind_mix(ops) == {kind: 0.25 for kind in plan.POINT_KINDS}
    assert plan.repeat_share(ops) == 0.25


def test_topk_nodes_are_distinct():
    ops = plans(3)["topk-heavy"]
    assert plan.repeat_share(ops) == 0.0
    assert {op[2]["k"] for op in ops} == {plan.TOPK_K}


def test_churn_writes_are_new_edges():
    ops = plans(3)["churn"]
    writes = [op for op in ops if op[0] == "mutate"]
    assert len(writes) == len(ops) // plan.MUTATE_EVERY
    edges = [(w[2]["ops"][0]["u"], w[2]["ops"][0]["v"]) for w in writes]
    assert len(set(edges)) == len(edges)
    assert not any(has_edge(u, v) for u, v in edges)
    mix = plan.kind_mix(ops)
    assert mix["source"] == mix["target"]


@pytest.mark.parametrize("q", [0, 10, 50, 90, 95, 99, 100])
def test_percentile_matches_numpy(q):
    values = np.random.default_rng(1).exponential(size=137).tolist()
    assert plan.percentile(values, q) == pytest.approx(
        float(np.percentile(values, q)))


def test_percentile_with_failures_counted_as_infinite():
    assert plan.percentile([1.0, float("inf"), float("inf")], 100) \
        == float("inf")
    assert plan.percentile([1.0, 2.0, float("inf")], 50) == 2.0


def test_beyond_counts_samples_above_the_percentile():
    for count in (10, 99, 100, 101, 137):
        values = list(range(count))
        cut = plan.percentile(values, 90)
        assert plan.beyond(count, 90) == sum(v > cut for v in values)


def test_self_time_subtracts_children_once():
    spans = {
        0: (0.0, 10.0, None),
        1: (1.0, 4.0, 0),
        2: (3.0, 6.0, 0),    # overlaps child 1: 1..6 covered once
        3: (9.0, 12.0, 0),   # reaches past the parent: 9..10 counts
        4: (2.0, 3.0, 1),
    }
    self_ms = plan.self_times(spans)
    assert self_ms[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert self_ms[1] == pytest.approx(3.0 - 1.0)
    assert self_ms[2] == pytest.approx(3.0)
    assert self_ms[4] == pytest.approx(1.0)


def test_self_time_without_children_is_duration():
    assert plan.self_times({5: (2.0, 2.5, None)}) == {5: 0.5}
