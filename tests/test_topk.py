"""Adaptive top-k and heavy-hitter query tests."""

import sys
import threading

import numpy as np
import pytest

import repro.core.topk as topk_module
from repro.core import (
    BatchTopKSolver,
    heavy_hitters,
    top_k_single_source,
)
from repro.core.topk import ForestStream
from repro.exceptions import ConfigError
from repro.forests.estimators import (
    roots_source_estimate_basic,
    roots_source_estimate_improved,
    source_estimate_basic,
    source_estimate_improved,
)
from repro.forests.sampling import sample_forest
from repro.graph.build import from_edges
from repro.graph.generators import erdos_renyi
from repro.rng import ensure_rng


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(100, 0.08, rng=701)


class TestTopK:
    def test_recovers_exact_top_k(self, graph, exact_vector):
        alpha = 0.15
        exact = exact_vector(graph, alpha, 0)
        result = top_k_single_source(graph, 0, 5, alpha=alpha, seed=3,
                                     max_forests=512)
        true_top = set(np.argsort(-exact)[:5].tolist())
        overlap = len(set(result.nodes.tolist()) & true_top)
        assert overlap >= 4  # at least 4 of 5 (ties near the boundary)

    def test_rank_order_descending(self, graph):
        result = top_k_single_source(graph, 0, 8, alpha=0.2, seed=4)
        assert np.all(np.diff(result.estimates) <= 1e-12)

    def test_convergence_flag_and_counters(self, graph):
        result = top_k_single_source(graph, 0, 3, alpha=0.2, seed=5,
                                     max_forests=512)
        assert result.num_forests >= 1
        assert result.stats["forest_steps"] > 0
        if result.converged:
            assert result.num_forests <= 512

    def test_tight_budget_flags_nonconvergence(self, graph):
        result = top_k_single_source(graph, 0, 3, alpha=0.01, seed=6,
                                     batch_size=2, max_forests=2)
        assert result.num_forests == 2
        # with 2 forests separation is very unlikely; either way the
        # flag must be consistent with the budget
        assert result.converged in (True, False)

    def test_as_pairs(self, graph):
        result = top_k_single_source(graph, 0, 3, alpha=0.2, seed=7)
        pairs = result.as_pairs()
        assert len(pairs) == 3
        assert all(isinstance(node, int) for node, _ in pairs)

    def test_validation(self, graph):
        with pytest.raises(ConfigError):
            top_k_single_source(graph, 0, 0)
        with pytest.raises(ConfigError):
            top_k_single_source(graph, 0, graph.num_nodes)
        with pytest.raises(ConfigError):
            top_k_single_source(graph, 0, 3, confidence=1.5)
        with pytest.raises(ConfigError):
            top_k_single_source(graph, 0, 3, batch_size=0)


class TestBatchTopKSolver:
    def test_recovers_exact_top_k(self, graph, exact_vector):
        alpha = 0.15
        exact = exact_vector(graph, alpha, 0)
        with BatchTopKSolver(graph, alpha=alpha, seed=3,
                             max_forests=512) as solver:
            result = solver.query_topk(0, 5)
        true_top = set(np.argsort(-exact)[:5].tolist())
        assert len(set(result.nodes.tolist()) & true_top) >= 4

    def test_batch_composition_independent(self, graph):
        """A query's answer depends only on (graph, config, node, k) —
        never on what else shares its micro-batch."""
        with BatchTopKSolver(graph, alpha=0.2, seed=11,
                             max_forests=256) as solver:
            alone = solver.run_items([(0, 5)])[0]
            crowded = solver.run_items([(3, 4), (0, 5), (7, 3)])[1]
        assert np.array_equal(alone.nodes, crowded.nodes)
        assert np.array_equal(alone.estimates, crowded.estimates)
        assert alone.num_forests == crowded.num_forests
        assert alone.converged == crowded.converged

    def test_early_stop_cuts_walk_steps(self, graph):
        """The variance-bound stopping rule must do less walk work
        than the full-budget comparator on the same forest stream."""
        kwargs = dict(alpha=0.2, seed=11, max_forests=256)
        with BatchTopKSolver(graph, **kwargs) as early, \
                BatchTopKSolver(graph, early_stop=False,
                                **kwargs) as full:
            stopped = early.query_topk(0, 3)
            exhausted = full.query_topk(0, 3)
        if stopped.converged:
            assert stopped.num_forests < exhausted.num_forests
            assert (stopped.stats["work_walk_steps"]
                    < exhausted.stats["work_walk_steps"])
        assert exhausted.num_forests == 256

    def test_prefix_view(self, graph):
        with BatchTopKSolver(graph, alpha=0.2, seed=12,
                             max_forests=64) as solver:
            result = solver.query_topk(0, 6)
        prefix = result.prefix(3)
        assert prefix.k == 3
        assert np.array_equal(prefix.nodes, result.nodes[:3])
        assert np.array_equal(prefix.estimates, result.estimates[:3])
        with pytest.raises(ConfigError):
            result.prefix(7)

    def test_lifecycle_and_stats(self, graph):
        solver = BatchTopKSolver(graph, alpha=0.2, seed=13,
                                 max_forests=32)
        solver.query_topk(0, 3)
        stats = solver.stats()
        assert stats["queries_served"] == 1
        assert stats["owns_index"] is False
        solver.close()
        solver.close()  # idempotent
        assert solver.closed

    def test_validation(self, graph):
        with BatchTopKSolver(graph, alpha=0.2, seed=14) as solver:
            with pytest.raises(ConfigError):
                solver.query_topk(0, 0)
            with pytest.raises(ConfigError):
                solver.query_topk(0, graph.num_nodes)
            with pytest.raises(ConfigError):
                solver.query_topk(10**6, 3)
        with pytest.raises(ConfigError):
            BatchTopKSolver(graph, confidence=1.5)
        with pytest.raises(ConfigError):
            BatchTopKSolver(graph, batch_draw=0)
        with pytest.raises(ConfigError):
            BatchTopKSolver(graph, max_forests=0)


def _assert_same_answers(got, want):
    """Byte identity of two top-k result lists (wall-clock aside)."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.node, a.k, a.converged, a.num_forests) == \
            (b.node, b.k, b.converged, b.num_forests)
        assert a.nodes.tobytes() == b.nodes.tobytes()
        assert a.estimates.tobytes() == b.estimates.tobytes()
        drop = {"push_seconds"}
        assert {k: v for k, v in a.stats.items() if k not in drop} == \
            {k: v for k, v in b.stats.items() if k not in drop}


class TestResultArraysOwnTheirMemory:
    """A cached answer must not pin the n-length argsort buffer."""

    def test_batch_solver_nodes_are_a_copy(self, graph):
        with BatchTopKSolver(graph, alpha=0.2, seed=15,
                             max_forests=32) as solver:
            result = solver.query_topk(0, 5)
        assert result.nodes.base is None
        assert result.nodes.nbytes == 8 * 5

    def test_top_k_single_source_nodes_are_a_copy(self, graph):
        result = top_k_single_source(graph, 0, 4, alpha=0.2, seed=16,
                                     max_forests=32)
        assert result.nodes.base is None
        assert result.nodes.nbytes == 8 * 4


class TestForestStreamCache:
    """The per-solver forest stream: sampled once, folded many times,
    byte-identical to resampling it on every call."""

    OPTIONS = dict(alpha=0.2, seed=11, max_forests=64)

    def _fresh(self, graph, items, **options):
        with BatchTopKSolver(graph, **{**self.OPTIONS, **options}) as solver:
            return solver.run_items(items)

    def test_cold_warm_and_mixed_batches_match_fresh_solvers(self, graph):
        batches = [[(0, 5)], [(0, 5)], [(3, 4), (0, 5), (7, 3)],
                   [(9, 2), (3, 4)], [(0, 5)], [(42, 8), (0, 5)]]
        with BatchTopKSolver(graph, **self.OPTIONS) as solver:
            for items in batches:
                _assert_same_answers(solver.run_items(items),
                                     self._fresh(graph, items))

    def test_full_budget_twin_matches_fresh_solvers(self, graph):
        with BatchTopKSolver(graph, early_stop=False,
                             **self.OPTIONS) as solver:
            for items in ([(0, 5)], [(3, 4), (0, 5)]):
                _assert_same_answers(
                    solver.run_items(items),
                    self._fresh(graph, items, early_stop=False))

    def test_rows_are_the_seeded_sample_sequence(self, graph):
        with BatchTopKSolver(graph, **self.OPTIONS) as solver:
            solver.query_topk(0, 5)
            stream = solver._stream
            rng = ensure_rng(self.OPTIONS["seed"])
            assert stream.length > 0
            for row in range(stream.length):
                forest = sample_forest(graph, self.OPTIONS["alpha"],
                                       rng=rng, method=solver.config.sampler)
                assert np.array_equal(stream.roots[row], forest.roots)
                assert stream.num_steps[row] == forest.num_steps

    @pytest.mark.parametrize("case", ["isolated", "directed"])
    def test_fold_matches_forest_estimators(self, case):
        if case == "isolated":
            target = erdos_renyi(120, 0.01, rng=21)
            assert (target.degrees == 0).any()
        else:
            pairs = {(int(u), int(v)) for u, v in
                     np.random.default_rng(5).integers(0, 40, (90, 2))
                     if u != v}
            target = from_edges(sorted(pairs), directed=True,
                                num_nodes=40)
        degrees = np.asarray(target.degrees, dtype=np.float64)
        rng = np.random.default_rng(3)
        residuals = [rng.random(target.num_nodes) for _ in range(2)]
        for seed in range(4):
            forest = sample_forest(target, 0.2, rng=seed)
            # a cached stream row: int32 labels, no RootedForest
            roots = forest.roots.astype(np.int32)
            tree_degree = np.bincount(roots, weights=degrees,
                                      minlength=target.num_nodes)
            for residual in residuals:
                basic = roots_source_estimate_basic(roots, residual)
                assert basic.tobytes() == \
                    source_estimate_basic(forest, residual).tobytes()
                improved = roots_source_estimate_improved(
                    roots, residual, degrees, tree_degree[roots])
                assert improved.tobytes() == source_estimate_improved(
                    forest, residual, degrees).tobytes()
                isolated = tree_degree[roots] == 0  # no degree mass
                assert np.array_equal(improved[isolated],
                                      residual[isolated])

    def test_concurrent_callers_match_fresh_solvers(self, graph):
        """More callers than cores race to extend and fold one stream
        under a tiny switch interval; a lost or doubled row would
        shift every later forest and break byte identity."""
        per_thread = [[[(0, 5)], [(3, 4), (7, 3)], [(11, 6)]],
                      [[(7, 3), (0, 5)], [(11, 6)], [(19, 2)]],
                      [[(19, 2), (3, 4)], [(0, 5)]],
                      [[(42, 8)], [(7, 3), (11, 6), (0, 5)]]]
        got = [[] for _ in per_thread]
        errors = []
        solver = BatchTopKSolver(graph, **self.OPTIONS)
        barrier = threading.Barrier(len(per_thread))

        def work(position):
            try:
                barrier.wait(timeout=30)
                for items in per_thread[position]:
                    got[position].append(solver.run_items(items))
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(position,))
                   for position in range(len(per_thread))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        for batches, answers in zip(per_thread, got):
            assert len(answers) == len(batches)
            for items, answer in zip(batches, answers):
                _assert_same_answers(answer, self._fresh(graph, items))
        assert solver._stream.length <= self.OPTIONS["max_forests"]

    def test_stream_bounded_by_max_forests(self, graph):
        with BatchTopKSolver(graph, alpha=0.2, seed=11, max_forests=16,
                             early_stop=False) as solver:
            for node in range(4):
                solver.query_topk(node, 3)
            stream = solver._stream
            assert stream.roots.shape == (16, graph.num_nodes)
            assert stream.length == 16
            stats = solver.stats()
        assert stats["num_forests"] == 16
        assert stats["index_size_bytes"] == 16 * (4 * graph.num_nodes + 8)
        assert stats["walk_steps"] == int(stream.num_steps.sum())

    def test_stats_report_sampling_while_work_stays_per_query(self, graph):
        with BatchTopKSolver(graph, **self.OPTIONS) as solver:
            assert solver.stats()["num_forests"] == 0  # nothing at build
            first = solver.query_topk(0, 5)
            again = solver.query_topk(0, 5)
            stats = solver.stats()
        # each answer still charges the forests it folded ...
        assert again.stats["work_walk_steps"] == \
            first.stats["work_walk_steps"] > 0
        # ... while the solver sampled them only once
        assert stats["num_forests"] == first.num_forests
        assert stats["walk_steps"] == first.stats["work_walk_steps"]
        assert stats["queries_served"] == 2

    def test_shared_stream_across_epsilons_matches_fresh_solvers(
            self, graph):
        stream = ForestStream(graph, BatchTopKSolver(
            graph, **self.OPTIONS).config, self.OPTIONS["max_forests"])
        items = [(0, 5), (3, 4)]
        for epsilon in (0.5, 0.3, 0.50001):
            with BatchTopKSolver(graph, epsilon=epsilon, stream=stream,
                                 **self.OPTIONS) as solver:
                _assert_same_answers(
                    solver.run_items(items),
                    self._fresh(graph, items, epsilon=epsilon))
                assert solver.stats()["num_forests"] == stream.length
        assert stream.length <= self.OPTIONS["max_forests"]

    @pytest.mark.parametrize("change", [
        {"alpha": 0.3}, {"seed": 12}, {"max_forests": 128}])
    def test_mismatched_stream_is_refused(self, graph, change):
        stream = ForestStream(graph, BatchTopKSolver(
            graph, **self.OPTIONS).config, self.OPTIONS["max_forests"])
        with pytest.raises(ConfigError, match="stream"):
            BatchTopKSolver(graph, stream=stream,
                            **{**self.OPTIONS, **change})

    def test_failed_draw_does_not_shift_the_stream(self, graph,
                                                   monkeypatch):
        real = topk_module.sample_forest
        calls = []

        def flaky(*args, **kwargs):
            forest = real(*args, **kwargs)  # consumes the generator
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("injected sampler failure")
            return forest

        monkeypatch.setattr(topk_module, "sample_forest", flaky)
        with BatchTopKSolver(graph, **self.OPTIONS) as solver:
            with pytest.raises(RuntimeError, match="injected"):
                solver.query_topk(0, 5)
            assert solver._stream.length == 2
            answer = solver.run_items([(0, 5)])
        monkeypatch.setattr(topk_module, "sample_forest", real)
        _assert_same_answers(answer, self._fresh(graph, [(0, 5)]))


class TestHeavyHitters:
    def test_finds_nodes_above_threshold(self, graph, exact_vector):
        alpha = 0.2
        exact = exact_vector(graph, alpha, 0)
        threshold = 0.02
        result = heavy_hitters(graph, 0, threshold, alpha=alpha, seed=8,
                               max_forests=512)
        true_set = set(np.flatnonzero(exact > threshold).tolist())
        found = set(result.nodes.tolist())
        # recover the clear hitters; disagreements only near the line
        clear = set(np.flatnonzero(exact > 1.5 * threshold).tolist())
        assert clear <= found
        spurious = found - true_set
        assert all(exact[node] > 0.5 * threshold for node in spurious)

    def test_source_always_a_hitter_for_small_threshold(self, graph):
        result = heavy_hitters(graph, 0, 0.05, alpha=0.5, seed=9)
        assert 0 in result.nodes.tolist()

    def test_estimates_above_threshold(self, graph):
        result = heavy_hitters(graph, 0, 0.01, alpha=0.2, seed=10)
        assert np.all(result.estimates > 0.01)

    def test_validation(self, graph):
        with pytest.raises(ConfigError):
            heavy_hitters(graph, 0, 0.0)
        with pytest.raises(ConfigError):
            heavy_hitters(graph, 0, 0.1, confidence=0.0)
