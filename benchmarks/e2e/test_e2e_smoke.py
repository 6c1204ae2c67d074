"""Smoke test of the e2e benchmark (run explicitly:
``PYTHONPATH=src python -m pytest benchmarks/e2e``; tier-1 does not
collect it).  Runs the suite in ``--quick`` mode -- 2 000 authors, one
pass -- and checks what the full run relies on."""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

LINE = re.compile(r"^(\w+)/([\w.]+) (\S+) (\S+)")


def quick(*extra):
    """Run the quick suite; returns ``{workload: {metric: (value,
    unit)}}`` parsed from the printed lines."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", *extra],
        capture_output=True, text=True, timeout=120, check=True).stdout
    printed = {}
    for line in out.splitlines():
        match = LINE.match(line)
        if match:
            name, metric, value, unit = match.groups()
            printed.setdefault(name, {})[metric] = (value, unit)
    return printed


@pytest.fixture(scope="module")
def traced_run():
    return quick("--traced")


def test_every_declared_metric_is_printed_with_its_unit(traced_run):
    assert set(traced_run) == set(workloads.WORKLOADS)
    declared = {m: unit for m, (unit, _, _) in run.END_TO_END.items()}
    declared.update({m: unit for m, (unit, _, _)
                     in layers.LAYER_METRICS.items()})
    for name, printed in traced_run.items():
        for metric, unit in declared.items():
            assert metric in printed, (name, metric)
            assert printed[metric][1] == unit, (name, metric)
            float(printed[metric][0])
        assert {"calib_ms", "speed", "answers_digest"} <= set(printed)
        assert printed["ops_failed"][0] == "0", name
        assert int(printed["ops_attempted"][0]) > 0


def test_expected_cache_behaviour(traced_run):
    assert float(traced_run["browse_hot"]["cache.hit_rate"][0]) == 1.0
    assert float(traced_run["explore_cold"]["cache.hit_rate"][0]) == 0.0
    slow = 1.0 - float(traced_run["update_mix"]["cache.hit_rate"][0])
    assert 0.08 <= slow <= 0.47
    for printed in traced_run.values():
        assert printed["counts_repeat"][0] == "True"


def test_digest_repeats_across_runs(traced_run):
    again = quick()
    for name, printed in traced_run.items():
        assert printed["answers_digest"] == again[name]["answers_digest"]


def test_trace_spans_are_well_formed(traced_run):
    for name in traced_run:
        path = os.path.join(HERE, "out", "trace-{}.json".format(name))
        with open(path, encoding="utf-8") as f:
            trace = json.load(f)
        spans = {span["id"]: span for span in trace["spans"]}
        assert spans, name
        ops = trace["ops"]
        for span in spans.values():
            assert span["start"] <= span["end"]
            if span["parent"] is not None:
                parent = spans[span["parent"]]
                assert parent["start"] <= span["start"]
                assert span["end"] <= parent["end"]
                assert parent["thread"] == span["thread"]
            assert any(op["sent"] <= span["start"] <= op["received"]
                       for op in ops), (name, span)


def test_manifest_matches_the_code():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as f:
        manifest = json.load(f)
    assert manifest["run_seconds"] == run.RUN_SECONDS
    assert [w["name"] for w in manifest["workloads"]] \
        == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in manifest["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in manifest["per_layer"]} \
        == {m: spec[:2] for m, spec in layers.LAYER_METRICS.items()}
