"""The benchmark's own tests, at smoke size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import re
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import episode  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, targets  # noqa: E402

#: Smoke size: a tenth of every workload's duration.
SCALE = 0.1


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_workload_runs_with_checks_passing(name):
    run = workloads.BUILDERS[name](3, SCALE)
    run.simulate()
    assert run.check() == []
    sim = run.sim_metrics()
    assert sim["committed"] > 0
    assert sim["worst_group"][1] > 0


def test_view_check_catches_a_certificate_with_a_wrong_value():
    run = workloads.BUILDERS["read_mostly_wan"](3, SCALE)
    run.simulate()
    assert run.check() == []
    result = next(result for result in run.system.committed()
                  if result.view_reads)
    item, cert = next(iter(result.view_reads.items()))
    result.view_reads[item] = dataclasses.replace(cert, value=cert.value + 1)
    assert any("certificate claims" in failure for failure in run.check())


def test_partition_check_catches_a_txn_lost_long_before_a_crash():
    run = workloads.BUILDERS["partition_window"](3, SCALE)
    run.simulate()
    assert run.check() == []
    crashed = next(name for name, site in sorted(run.system.sites.items())
                   if site.downtime)
    # Submitted at 0, due by the timeout; the first crash is later.
    run.origins["planted"] = (crashed, 0.0)
    assert any("lost" in failure for failure in run.check())


def test_traced_run_restores_every_patched_attribute():
    sources = (workloads.FannedTransfers,)
    before = {(owner, attr): vars(owner)[attr]
              for owner, attr, *_rest in targets(sources)}
    tracer = Tracer(spec_sources=sources)
    tracer.install()
    patched = tracer.patched_originals()
    assert len(patched) == len(before) + 1  # plus the queue's push
    assert all(before[owner, attr] is original
               for owner, attr, original in patched if attr != "push")
    try:
        assert all(vars(owner)[attr] is not original
                   for owner, attr, original in patched)
        run = workloads.BUILDERS["transfer_fanout_bundled"](3, SCALE)
        tracer.reset()
        run.simulate()
    finally:
        tracer.restore()
    assert all(vars(owner)[attr] is original
               for owner, attr, original in patched)
    assert tracer.counts["Network.send"] > 0
    assert tracer.self_s["sim"] > 0


def test_traced_and_untraced_executions_agree():
    untraced = episode.execute("partition_window", 5, scale=SCALE)
    traced = episode.execute("partition_window", 5, trace=True,
                             scale=SCALE)
    assert bench._consistent([untraced, traced]) == []
    layers = traced["layers"]
    assert set(layers) == set(bench.PER_LAYER) - {"trace_overhead"}
    assert layers["sim.events"] == untraced["sim"]["events"]
    assert layers["storage.recoveries"] > 0


def test_metric_names_agree_with_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    end_to_end = {metric["name"]: metric["unit"]
                  for metric in spec["end_to_end"]}
    per_layer = {metric["name"]: metric["unit"]
                 for metric in spec["per_layer"]}
    assert end_to_end == bench.END_TO_END
    assert per_layer == bench.PER_LAYER
    assert all(name.fullmatch(metric)
               for metric in [*end_to_end, *per_layer])
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert sorted(bench.WORKLOADS) == sorted(workloads.BUILDERS)


def test_planted_outcome_mutation_trips_the_digest_check():
    records = []
    for planted in (False, True):
        run = workloads.BUILDERS["transfer_fanout"](3, SCALE)
        run.simulate()
        if planted:
            run.collector.results[0].reason = "planted"
        records.append({"episode": 0, "sim": run.sim_metrics()})
    problems = bench._consistent(records)
    assert problems and "digest" in problems[0]


def test_second_seed_runs_green_end_to_end():
    full, summary = bench.run("transfer_fanout", seed=2, seconds=0.0,
                              trace=False, scale=SCALE)
    assert summary["correct"] and summary["failed"] == 0
    assert set(summary["metrics"]) == set(bench.END_TO_END)
    assert all(metric["value"] > 0
               for metric in summary["metrics"].values())
    assert summary["attempted"] == full["ops_attempted"] > 0
    assert len(full["executions"]) == \
        bench.EPISODES["transfer_fanout"] * bench.MIN_ROUNDS


def test_traced_run_reports_every_layer_metric():
    full, summary = bench.run("read_mostly_wan", seed=2, seconds=0.0,
                              trace=True, scale=SCALE)
    assert summary["correct"], full["problems"]
    assert set(summary["metrics"]) == set(bench.PER_LAYER)
    values = {name: metric["value"]
              for name, metric in summary["metrics"].items()}
    assert values["trace_overhead"] > 1.0
    assert values["reads.served"] > 0 and values["serving.admitted"] > 0
    assert len(full["executions"]) == 2 * bench.TRACED_PAIRS
