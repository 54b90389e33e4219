"""DynamicForestIndex and the streaming-update serving path.

Covers the whole mutate stack above the repair kernel: index build
parity with the static bank, exact estimates after mutation, the
repairable on-disk artifact, the ``IndexManager.mutate`` lifecycle
verb (generation bump, solver drop, atomic graph swap), the service
endpoint (cache invalidation, metrics), the HTTP route, and the
loadgen churn scenario.  The repair-vs-rebuild work bound — the PR's
measurable acceptance criterion — is asserted at the index level and
again through the service counters.
"""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.topk import BatchTopKSolver
from repro.counters import WorkCounters
from repro.exceptions import ConfigError, GraphError
from repro.graph import GraphDelta
from repro.graph.generators import erdos_renyi
from repro.linalg import exact_ppr_matrix
from repro.montecarlo import DynamicForestIndex, ForestIndex
from repro.service import PPRService, ServiceConfig
from repro.service.http import make_server, serve_forever
from repro.service.index_manager import IndexManager
from repro.service.loadgen import build_requests, run_load, zipf_nodes

ALPHA = 0.2
SEED = 7


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(40, 0.2, rng=SEED)


@pytest.fixture(scope="module")
def graph10():
    return erdos_renyi(10, 0.5, rng=44)


class TestBuild:
    def test_forests_bit_identical_to_static_build(self, graph):
        static = ForestIndex.build(graph, ALPHA, 6, rng=11)
        dynamic = DynamicForestIndex.build(graph, ALPHA, 6, rng=11)
        for a, b in zip(static.forests, dynamic.forests):
            assert np.array_equal(a.roots, b.roots)
            assert np.array_equal(a.parents, b.parents)
        residual = np.zeros(graph.num_nodes)
        residual[0] = 1.0
        assert np.allclose(static.estimate_source(residual),
                           dynamic.estimate_source(residual))

    def test_workers_ignored_method_checked(self, graph):
        index = DynamicForestIndex.build(graph, ALPHA, 2, rng=0,
                                         workers=8)
        assert index.num_forests == 2
        with pytest.raises(ConfigError, match="cycle_popping"):
            DynamicForestIndex.build(graph, ALPHA, 2, rng=0,
                                     method="wilson")
        with pytest.raises(ConfigError, match="positive"):
            DynamicForestIndex.build(graph, ALPHA, 0, rng=0)

    def test_records_must_match_forests(self, graph):
        index = DynamicForestIndex.build(graph, ALPHA, 3, rng=0)
        with pytest.raises(ConfigError, match="records"):
            DynamicForestIndex(graph, ALPHA, index.forests, 0.0,
                               records=index.records[:2])

    def test_record_arrows_accounted(self, graph):
        index = DynamicForestIndex.build(graph, ALPHA, 3, rng=0)
        assert index.record_arrows == sum(r.num_arrows
                                          for r in index.records)
        assert index.record_arrows > 0


class TestMutated:
    def test_returns_new_index_over_new_graph(self, graph):
        index = DynamicForestIndex.build(graph, ALPHA, 5, rng=1)
        delta = GraphDelta().upsert_edge(0, 20, 2.0)
        mutated, work = index.mutated(delta, rng=2)
        assert mutated is not index
        assert mutated.graph.num_edges in (graph.num_edges,
                                           graph.num_edges + 1)
        assert index.graph is graph  # the old index is untouched
        assert work.repair_fresh_steps > 0
        assert work.repair_dirty_nodes == 2 * index.num_forests
        for forest in mutated.forests:
            forest.validate()

    def test_mutated_estimates_match_exact_ppr(self, graph10):
        """The statistical acceptance check one level above the
        chi-square suite: a mutated bank's estimator is unbiased for
        the *new* graph's exact PPR."""
        index = DynamicForestIndex.build(graph10, 0.25, 3000, rng=11)
        delta = (GraphDelta().upsert_edge(0, 5, 3.0)
                 .upsert_edge(2, 9, 0.5))
        mutated, _ = index.mutated(delta, rng=13)
        exact = exact_ppr_matrix(mutated.graph, 0.25)
        rng = np.random.default_rng(5)
        residual = rng.random(10) / 10
        want = residual @ exact
        assert np.abs(mutated.estimate_source(residual) - want).max() \
            < 0.02

    def test_repair_work_bound_vs_rebuild(self, graph):
        """Acceptance criterion: a single-edge mutate pays a small
        fraction of a full rebuild's sampling work."""
        index = DynamicForestIndex.build(graph, ALPHA, 8, rng=1)
        delta = GraphDelta().upsert_edge(0, 30, 2.0)
        _, work = index.mutated(delta, rng=3)
        rebuild = ForestIndex.build(delta.apply(graph), ALPHA, 8, rng=3)
        assert work.repair_fresh_steps * 5 \
            < rebuild.build_counters.walk_steps, (
                f"repair paid {work.repair_fresh_steps} fresh steps; "
                f"rebuild pays "
                f"{rebuild.build_counters.walk_steps} walk steps")

    def test_build_counters_accumulate_across_mutations(self, graph):
        index = DynamicForestIndex.build(graph, ALPHA, 3, rng=1)
        base_steps = index.build_counters.walk_steps
        mutated, work = index.mutated(
            GraphDelta().upsert_edge(1, 2, 2.0), rng=2)
        assert mutated.build_counters.walk_steps == base_steps
        assert mutated.build_counters.repair_fresh_steps == \
            work.repair_fresh_steps


class TestDynamicBank:
    def test_round_trip(self, graph, tmp_path):
        index = DynamicForestIndex.build(graph, ALPHA, 4, rng=9)
        path = tmp_path / "bank"
        index.save_dynamic_bank(path)
        loaded = DynamicForestIndex.load_dynamic_bank(path)
        assert loaded.alpha == ALPHA
        assert np.array_equal(loaded.graph.indptr, graph.indptr)
        assert np.array_equal(loaded.graph.indices, graph.indices)
        for a, b in zip(index.forests, loaded.forests):
            assert np.array_equal(a.roots, b.roots)
            assert np.array_equal(a.parents, b.parents)
        for a, b in zip(index.records, loaded.records):
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.arrows, b.arrows)

    def test_loaded_bank_still_mutates(self, graph, tmp_path):
        index = DynamicForestIndex.build(graph, ALPHA, 4, rng=9)
        path = tmp_path / "bank"
        index.save_dynamic_bank(path)
        loaded = DynamicForestIndex.load_dynamic_bank(path)
        delta = GraphDelta().upsert_edge(0, 13, 1.5)
        mutated, work = loaded.mutated(delta, rng=4)
        assert work.repair_fresh_steps > 0
        for forest in mutated.forests:
            forest.validate()
        # the mutated graph travels with the re-saved artifact
        mutated.save_dynamic_bank(path)
        again = DynamicForestIndex.load_dynamic_bank(path)
        assert np.array_equal(again.graph.indptr, mutated.graph.indptr)

    @staticmethod
    def _corrupt(graph, path, how):
        """Damage one array of a saved dynamic bank in place."""
        name = "record_indptr" if how == "decreasing" else (
            "parents" if how == "forest" else "record_arrows")
        array = np.load(path / f"{name}.npy")
        if how == "decreasing":
            array[0, 1] = array[0, 2] + 1
        elif how == "forest":
            root = int(np.flatnonzero(array[0] == -1)[0])
            array[0, root] = int(graph.indices[graph.indptr[root]])
        else:
            indptr = np.load(path / "record_indptr.npy")[0]
            slot = int(np.flatnonzero(array[:indptr[-1]] >= 0)[0])
            owner = int(np.searchsorted(indptr, slot, side="right")) - 1
            neighbours = set(graph.indices[graph.indptr[owner]:
                                           graph.indptr[owner + 1]].tolist())
            array[slot] = {"-7": -7, "n": graph.num_nodes}.get(how) or min(
                v for v in range(graph.num_nodes)
                if v != owner and v not in neighbours)
        np.save(path / f"{name}.npy", array)

    @pytest.mark.parametrize("how", ["-7", "n", "non-neighbour",
                                     "decreasing", "forest"])
    def test_corrupt_bank_fails_at_load(self, graph, tmp_path, how):
        path = tmp_path / "bank"
        DynamicForestIndex.build(graph, ALPHA, 3, rng=9).save_dynamic_bank(
            path)
        DynamicForestIndex.load_dynamic_bank(path)  # intact: loads
        self._corrupt(graph, path, how)
        with pytest.raises(ConfigError, match="dynamic bank forest 0"):
            DynamicForestIndex.load_dynamic_bank(path)

    def test_cli_mutate_refuses_corrupt_bank(self, graph, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bank"
        DynamicForestIndex.build(graph, ALPHA, 3, rng=9).save_dynamic_bank(
            path)
        self._corrupt(graph, path, "-7")
        assert main(["index", "mutate", str(path),
                     "--upsert", "0:1:2.0"]) == 2
        assert "recorded arrow" in capsys.readouterr().err

    def test_rejects_static_bank(self, graph, tmp_path):
        static = ForestIndex.build(graph, ALPHA, 2, rng=0)
        path = tmp_path / "static"
        static.save_bank(path)
        with pytest.raises(ConfigError, match="not a dynamic"):
            DynamicForestIndex.load_dynamic_bank(path)


class TestIndexManagerMutate:
    def _manager(self, graph, dynamic):
        config = ServiceConfig(graph="g", alpha=ALPHA, seed=SEED,
                               budget_scale=0.05).ppr_config()
        manager = IndexManager(config, num_forests=6, dynamic=dynamic)
        manager.register_graph("g", graph)
        manager.warm("g", ALPHA)
        return manager

    def test_dynamic_manager_repairs(self, graph):
        manager = self._manager(graph, dynamic=True)
        before = manager.stats()["banks"]["g@0.2"]["generation"]
        summary = manager.mutate(
            "g", GraphDelta().upsert_edge(0, 20, 2.0))
        bank = summary["banks"]["g@0.2"]
        assert bank["repaired"] is True
        assert bank["generation"] == before + 1
        assert summary["dirty_nodes"] == [0, 20]
        assert summary["work"]["repair_fresh_steps"] > 0
        assert summary["work"]["walk_steps"] == 0
        # the registered graph was swapped
        new_graph = manager.graph("g")
        assert new_graph is not graph

    def test_static_manager_rebuilds(self, graph):
        manager = self._manager(graph, dynamic=False)
        summary = manager.mutate(
            "g", GraphDelta().upsert_edge(0, 20, 2.0))
        bank = summary["banks"]["g@0.2"]
        assert bank["repaired"] is False
        assert summary["work"]["walk_steps"] > 0

    def test_solvers_rebind_to_new_graph(self, graph):
        manager = self._manager(graph, dynamic=True)
        solver = manager.get_solver("g", "source", ALPHA, 0.5)
        manager.mutate("g", GraphDelta().upsert_edge(0, 20, 2.0))
        rebound = manager.get_solver("g", "source", ALPHA, 0.5)
        assert rebound is not solver  # old solver was dropped

    def test_solver_built_across_a_mutate_is_not_cached(self, graph,
                                                        monkeypatch):
        """A mutate landing while a solver is being built must not let
        the old graph's solver (and its stream) into the new
        generation."""
        from repro.service import index_manager

        manager = self._manager(graph, dynamic=True)
        real = index_manager.SOLVER_CLASSES["topk"]

        def racing(old_graph, **kwargs):
            manager.mutate("g", GraphDelta().upsert_edge(0, 20, 2.0))
            return real(old_graph, **kwargs)

        monkeypatch.setitem(index_manager.SOLVER_CLASSES, "topk", racing)
        stale = manager.get_solver("g", "topk", ALPHA, 0.5)
        monkeypatch.setitem(index_manager.SOLVER_CLASSES, "topk", real)
        assert stale.graph is graph
        current = manager.get_solver("g", "topk", ALPHA, 0.5)
        assert current is not stale
        assert current.graph is manager.graph("g")
        assert current._stream is not stale._stream
        assert current._stream.graph is manager.graph("g")

    def test_topk_stream_is_per_generation(self, graph):
        """After a mutate the cached top-k stream must not leak into
        the new generation: answers equal a fresh solver on the
        mutated graph, and the stats list only the new stream."""
        manager = self._manager(graph, dynamic=True)
        items = [(0, 5), (20, 3)]
        old_solver = manager.get_solver("g", "topk", ALPHA, 0.5)
        old_solver.run_items(items)
        stream = manager.stats()["topk_streams"][f"g@{ALPHA}"]
        assert 0 < stream["num_forests"] <= old_solver.max_forests
        assert stream["size_bytes"] == old_solver.stats()["index_size_bytes"]
        assert stream["walk_steps"] > 0
        manager.mutate("g", GraphDelta().upsert_edge(0, 20, 2.0))
        assert manager.stats()["topk_streams"] == {}
        solver = manager.get_solver("g", "topk", ALPHA, 0.5)
        assert solver is not old_solver
        assert solver.graph is manager.graph("g")
        served = solver.run_items(items)
        with BatchTopKSolver(manager.graph("g"),
                             config=solver.config) as fresh:
            want = fresh.run_items(items)
        for ours, theirs in zip(served, want):
            assert ours.nodes.tobytes() == theirs.nodes.tobytes()
            assert ours.estimates.tobytes() == theirs.estimates.tobytes()
            assert ours.work.as_dict() == theirs.work.as_dict()
        stats = manager.stats()
        assert stats["topk_stream_bytes"] == \
            solver.stats()["index_size_bytes"] > 0

    def test_every_epsilon_shares_one_topk_stream(self, graph):
        """Clients pick ε per request; each new ε must reuse the
        (graph, α) stream rather than sample and keep another one."""
        manager = self._manager(graph, dynamic=True)
        items = [(0, 5), (20, 3)]
        first = manager.get_solver("g", "topk", ALPHA, 0.5)
        first.run_items(items)
        one_stream = manager.stats()["topk_stream_bytes"]
        assert one_stream > 0
        for epsilon in (0.50001, 0.50002, 0.50003):
            manager.get_solver("g", "topk", ALPHA, epsilon).run_items(items)
            assert manager.stats()["topk_stream_bytes"] == one_stream
        for epsilon in (0.3, 0.7):
            solver = manager.get_solver("g", "topk", ALPHA, epsilon)
            assert solver._stream is first._stream
            served = solver.run_items(items)
            with BatchTopKSolver(graph, config=solver.config) as fresh:
                want = fresh.run_items(items)
            for ours, theirs in zip(served, want):
                assert ours.nodes.tobytes() == theirs.nodes.tobytes()
                assert ours.estimates.tobytes() == \
                    theirs.estimates.tobytes()
                assert ours.work.as_dict() == theirs.work.as_dict()
        stats = manager.stats()
        assert list(stats["topk_streams"]) == [f"g@{ALPHA}"]
        assert stats["topk_stream_bytes"] == first._stream.nbytes <= \
            first.max_forests * (4 * graph.num_nodes + 8)


@pytest.fixture(scope="module")
def dynamic_service(graph):
    config = ServiceConfig(graph="dyn", alpha=ALPHA, epsilon=0.5,
                           budget_scale=0.05, seed=SEED, max_batch=8,
                           max_wait_ms=2.0, cache_entries=16,
                           dynamic=True, port=0)
    with PPRService(config, graph=graph) as svc:
        yield svc


class TestServiceMutate:
    def test_payload_shape_and_cache_invalidation(self, dynamic_service):
        svc = dynamic_service
        svc.query("source", 0, top=3)
        _, hit = svc.query_result("source", 0)
        assert hit
        payload = svc.mutate(
            [{"op": "upsert", "u": 0, "v": 20, "weight": 2.0}])
        assert payload["graph"] == "dyn"
        assert payload["ops"] == 1
        assert payload["banks"]["dyn@0.2"]["repaired"] is True
        assert payload["work"]["repair_fresh_steps"] > 0
        assert "request_id" in payload
        # cached answers describe the old graph: they must be gone
        _, hit = svc.query_result("source", 0)
        assert not hit

    def test_mutation_metrics(self, dynamic_service):
        svc = dynamic_service
        before = svc.metrics.snapshot()["mutations"]
        svc.mutate([{"op": "upsert", "u": 1, "v": 2, "weight": 1.5}])
        snap = svc.metrics.snapshot()
        assert snap["mutations"] == before + 1
        assert snap["work"]["repair_fresh_steps"] > 0
        assert f"repro_service_mutations_total {before + 1}" \
            in svc.metrics_text()

    def test_bad_ops_rejected(self, dynamic_service):
        with pytest.raises(GraphError):
            dynamic_service.mutate([])
        with pytest.raises(GraphError):
            dynamic_service.mutate([{"op": "nope", "u": 0, "v": 1}])

    def test_queries_keep_working_after_mutate(self, dynamic_service):
        svc = dynamic_service
        before = svc.query("source", 3, top=5, use_cache=False)
        svc.mutate([{"op": "upsert", "u": 3, "v": 17, "weight": 5.0}])
        after = svc.query("source", 3, top=5, use_cache=False)
        assert after["total_mass"] == pytest.approx(1.0, abs=1e-9)
        assert before["top"] != after["top"]  # the graph really changed


class TestHTTPMutate:
    @pytest.fixture(scope="class")
    def base_url(self, dynamic_service):
        server = make_server(dynamic_service, port=0)
        serve_forever(server, in_thread=True)
        yield f"http://127.0.0.1:{server.server_port}"
        server.shutdown()
        server.server_close()

    def _post(self, url, body):
        request = urllib.request.Request(
            url, data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=30) as response:
            return (response.status, json.loads(response.read()),
                    dict(response.headers))

    def test_mutate_roundtrip(self, base_url):
        status, payload, headers = self._post(
            f"{base_url}/mutate",
            {"ops": [{"op": "upsert", "u": 5, "v": 9, "weight": 2.0}]})
        assert status == 200
        assert payload["ops"] == 1
        assert payload["banks"]["dyn@0.2"]["repaired"] is True
        assert headers.get("X-Request-Id")

    def test_mutate_bad_body_is_400(self, base_url):
        for body in ({"ops": []},
                     {"ops": [{"op": "nope", "u": 0, "v": 1}]},
                     {"ops": [{"op": "add", "u": 0, "v": 0}]},
                     {}):
            with pytest.raises(urllib.error.HTTPError) as info:
                self._post(f"{base_url}/mutate", body)
            assert info.value.code == 400

    def test_churn_load_scenario(self, base_url, dynamic_service):
        summary = run_load(base_url, requests=12, concurrency=3,
                           num_nodes=40, kind="churn", mutate_every=4,
                           seed=3)
        assert summary["failed"] == 0
        assert dynamic_service.metrics.snapshot()["mutations"] >= 3


class TestChurnPlans:
    def test_mutation_cadence_and_validity(self):
        plans = build_requests("churn", zipf_nodes(40, 20, seed=5), 40,
                               mutate_every=5, seed=5)
        mutations = [body for path, body, ok in plans
                     if path == "/mutate"]
        assert len(mutations) == 4
        for body in mutations:
            (op,) = body["ops"]
            assert op["op"] == "upsert"  # valid under any interleaving
            assert 0 <= op["u"] < 40 and 0 <= op["v"] < 40
            assert op["u"] != op["v"]
            assert op["weight"] > 0

    def test_single_node_graph_never_mutates(self):
        plans = build_requests("churn", [0] * 8, 1, mutate_every=2,
                               seed=1)
        assert all(path == "/query" for path, _, _ in plans)

    def test_deterministic_in_seed(self):
        nodes = zipf_nodes(40, 16, seed=9)
        first = build_requests("churn", nodes, 40, seed=9)
        second = build_requests("churn", nodes, 40, seed=9)
        assert first == second
