"""Golden replay of the HTTP query surface.

Every POST route, every admission error the service has always
answered with a 400, and the side effects a request leaves behind —
slow-log records (minus their timing and id fields) and the
per-endpoint request counters — replayed against a committed
transcript, with the result cache off and on.  A refactor of the
request pipeline must leave every byte of it unchanged.

Regenerate after an intentional surface change with

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_service_surface.py

and commit the diff alongside the change that caused it.
"""

from __future__ import annotations

import json
import os
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.graph.generators import erdos_renyi
from repro.service import PPRService, ServiceConfig
from repro.service.http import make_server, serve_forever

GOLDEN = Path(__file__).parent / "golden" / "service_surface.jsonl"

#: (path, body) — a body of ``bytes`` is sent verbatim, anything else
#: as JSON; ``?debug=1`` requests have their span tree stripped
REQUESTS = [
    ("/query", {"kind": "source", "node": 3, "top": 4}),
    ("/query", {"kind": "target", "node": 7, "top": 3}),
    ("/query", {"kind": "source", "node": 3, "top": 4}),
    ("/query", {"kind": "source", "node": 5, "epsilon": 0.8}),
    ("/query?debug=1", {"node": 11, "top": 2}),
    ("/topk", {"node": 4, "k": 6}),
    ("/topk", {"node": 4, "k": 3}),
    ("/topk", {"node": 4, "k": 3, "epsilon": 0.3}),
    ("/multiseed", {"seeds": [9, 2, 9], "weights": [1, 2, 3], "top": 3}),
    ("/multiseed", {"seeds": [2, 9], "top": 3}),
    ("/pair", {"source": 1, "target": 6}),
    ("/pair", {"source": 1, "target": 6}),
    # admission errors
    ("/query", {"kind": "walks", "node": 0}),
    ("/query", {"kind": "source", "node": 10_000}),
    ("/query", {"kind": "source"}),
    ("/topk", {"node": 4}),
    ("/topk", {"node": 4, "k": 0}),
    ("/topk", {"node": 4, "k": 9}),
    ("/topk", {"node": 10_000, "k": 3}),
    ("/multiseed", {"seeds": []}),
    ("/multiseed", {"seeds": [0, 1, 2, 3, 4]}),
    ("/multiseed", {"seeds": [0, 10_000]}),
    ("/multiseed", {"seeds": [0, 1], "weights": [1.0]}),
    ("/pair", {"source": 10_000, "target": 6}),
    ("/pair", {"source": 1, "target": 10_000}),
    ("/pair", {"target": 6}),
    ("/mutate", {}),
    ("/nope", {"node": 1}),
    ("/query", [1, 2]),
    ("/query", b"{"),
    # a graph update clears the cache for the query after it
    ("/mutate", {"ops": [{"op": "upsert", "u": 0, "v": 5,
                          "weight": 2.0}]}),
    ("/query", {"kind": "source", "node": 3, "top": 4}),
]


def _config(cache_entries: int) -> ServiceConfig:
    return ServiceConfig(graph="surface", alpha=0.2, epsilon=0.5, seed=7,
                         budget_scale=0.05, max_batch=8, max_wait_ms=1.0,
                         cache_entries=cache_entries, topk_max_k=8,
                         multiseed_max_seeds=4, slowlog_threshold_ms=0.0,
                         port=0)


def _post(base: str, path: str, body, request_id: str):
    data = body if isinstance(body, bytes) else json.dumps(body).encode()
    request = urllib.request.Request(
        base + path, data=data,
        headers={"Content-Type": "application/json",
                 "X-Request-Id": request_id})
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, response.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode()


def _transcript(cache_entries: int) -> list[dict]:
    """Replay :data:`REQUESTS` against a fresh served instance."""
    lines = []
    graph = erdos_renyi(120, 0.05, rng=7)
    with PPRService(_config(cache_entries), graph=graph) as service:
        server = make_server(service, port=0)
        serve_forever(server, in_thread=True)
        base = f"http://127.0.0.1:{server.server_port}"
        try:
            for number, (path, body) in enumerate(REQUESTS):
                status, raw = _post(base, path, body, f"rid-{number}")
                response = json.loads(raw)
                # the wire bytes are the canonical dump of the object
                assert json.dumps(response) == raw, raw
                if isinstance(response.get("debug"), dict):
                    response["debug"].pop("trace")
                lines.append({
                    "cache": cache_entries, "path": path,
                    "body": (body.decode() if isinstance(body, bytes)
                             else body),
                    "status": status, "response": response})
        finally:
            server.shutdown()
            server.server_close()
        for entry in service.slowlog.recent():
            record = {key: value for key, value in entry.items()
                      if key not in ("ts", "request_id", "seconds",
                                     "trace")}
            lines.append({"cache": cache_entries, "slowlog": record})
        snapshot = service.metrics.snapshot()
        lines.append({"cache": cache_entries,
                      "requests": snapshot["requests"],
                      "errors": snapshot["errors"],
                      "rejected": snapshot["rejected"]})
    return lines


@pytest.mark.parametrize("cache_entries", [0, 64])
def test_surface_matches_golden(cache_entries):
    # key order is part of the surface: never sort the keys
    lines = [json.dumps(line) for line in _transcript(cache_entries)]
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        others = []
        if GOLDEN.exists():
            others = [line for line in GOLDEN.read_text().splitlines()
                      if json.loads(line)["cache"] != cache_entries]
        GOLDEN.write_text("\n".join(sorted(
            others + lines,
            key=lambda line: json.loads(line)["cache"])) + "\n")
        return
    assert GOLDEN.exists(), (
        f"missing golden file {GOLDEN}; regenerate with "
        f"REPRO_UPDATE_GOLDEN=1")
    expected = [line for line in GOLDEN.read_text().splitlines()
                if json.loads(line)["cache"] == cache_entries]
    assert lines == expected
