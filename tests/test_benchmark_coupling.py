"""The benchmark reports one ``mtcm.routes.<tag>`` count per method tag and
fails unless they match the per-layer metrics ``BENCHMARK.json`` declares;
this check catches a drift at test time instead."""

import json
from pathlib import Path

from tailmax.mtcm import METHODS

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
PREFIX = "mtcm.routes."


def test_declared_route_metrics_match_method_tags():
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    declared = [m["name"][len(PREFIX):] for m in spec["per_layer"] if m["name"].startswith(PREFIX)]
    assert sorted(declared) == sorted(METHODS)
