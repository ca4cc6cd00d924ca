"""One timed execution of one workload episode, in a fresh interpreter.

Builds the workload (timed as set-up), collects and freezes set-up
garbage so it is not billed to the window, simulates (the timed
window, with a slice of the reference loop after every slice of sim
time to gauge the host's speed), restores any tracing patches, checks
every output, and prints one JSON object as its last line. ``run.py``
starts this script once per execution, one at a time.

Usage::

    python3 perfbench/episode.py --workload transfer_fanout --seed 11 \\
        [--episode 0] [--trace 0|1] [--scale 1.0] [--spans FILE]
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import pathlib
import resource
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.metrics.stats import percentile_sorted  # noqa: E402

import workloads  # noqa: E402
from reference import gauge, speed  # noqa: E402


#: Set-up is built this many times per execution (the last build is
#: the one simulated) and its median build time reported: one build
#: takes milliseconds, too short to time once.
SETUP_BUILDS = 3


def episode_seed(seed: int, episode: int) -> int:
    """Episode 0 runs the given seed itself; later episodes derive
    independent seeds from it."""
    if episode == 0:
        return seed
    digest = hashlib.sha256(f"perfbench:{seed}:{episode}".encode())
    return int.from_bytes(digest.digest()[:6], "big")


def layer_metrics(tracer, run: workloads.Run, verify_s: float) -> dict:
    """Per-layer counts (exact) and self times (host s) of a traced run."""
    counts, self_s = tracer.counts, tracer.self_s
    system = run.system
    metrics = system.sim.metrics
    results = run.collector.results
    committed = len(run.collector.committed)
    events = system.sim.steps
    sends = counts["Network.send"]
    envelopes = metrics.total("net.sent")
    accepted = metrics.total("vm.accepted")
    duplicates = metrics.total("vm.duplicates")
    rechecks = counts["Transaction.recheck"] \
        + counts["Transaction.on_vm_absorbed"]
    acquires = ("LockTable.try_acquire_all", "LockTable.acquire_all_or_wait")
    fragment_reads = counts["FragmentStore.value"]
    reports = [report for site in system.sites.values()
               for report in site.recovery_reports]
    serve_calls = counts["SiteViewCache.serve"]
    served = metrics.total("view.hits")
    waits = sorted(sample.dispatched_at - sample.arrived_at
                   for sample in (run.frontend.samples
                                  if run.frontend is not None else []))
    queue_ops = sum(count for name, count in counts.items()
                    if name.split(".")[0].endswith("EventQueue")
                    or name == "Event.cancel")
    reasons = [result.reason for result in results if not result.committed]
    return {
        "sim.events": events,
        "sim.queue_ops": queue_ops,
        "sim.self_s": self_s["sim"],
        "sim.ns_per_event": self_s["sim"] / events * 1e9 if events else 0.0,
        "net.sends": sends,
        "net.envelopes": envelopes,
        "net.dropped": (system.network.dropped_partition
                        + system.network.dropped_loss),
        "net.bundle_fill": sends / envelopes if envelopes else 0.0,
        "net.self_s": self_s["net"],
        "vm.created": metrics.total("vm.created"),
        "vm.accepted": accepted,
        "vm.retransmissions": metrics.total("vm.retransmissions"),
        "vm.duplicates": duplicates,
        "vm.duplicate_ratio": (duplicates / (accepted + duplicates)
                               if accepted + duplicates else 0.0),
        "vm.acks": metrics.total("vm.acks"),
        "vm.acks_suppressed": metrics.total("vm.acks_suppressed"),
        "vm.self_s": self_s["vm"],
        "txn.started": counts["Transaction.start"],
        "txn.rechecks": rechecks,
        "txn.rechecks_per_commit": rechecks / committed if committed else 0.0,
        "txn.commit_yield": committed / rechecks if rechecks else 0.0,
        "txn.aborts_locked": reasons.count("locked"),
        "txn.aborts_timeout": reasons.count("timeout"),
        "locks.acquire_calls": sum(counts[name] for name in acquires),
        "locks.waits": sum(counts[f"{name}.refused"] for name in acquires),
        "txn.self_s": self_s["txn"],
        "site.deliveries": counts["DvPSite.deliver"],
        "site.requests": counts["DvPSite.handle_request"],
        "site.fragment_reads": fragment_reads,
        "site.fragment_reads_per_commit": (fragment_reads / committed
                                           if committed else 0.0),
        "site.self_s": self_s["site"],
        "storage.log_forces": sum(site.log.forces
                                  for site in system.sites.values()),
        "storage.page_reads": counts["PageStore.read"],
        "storage.page_writes": sum(site.pages.writes
                                   for site in system.sites.values()),
        "storage.recoveries": counts["recovery.recover_site"],
        "storage.redo_records": sum(report.redo_applied
                                    for report in reports),
        "storage.recovery_s": tracer.span_seconds("recovery.recover_site"),
        "storage.self_s": self_s["storage"],
        "audit.hook_calls": sum(count for name, count in counts.items()
                                if name.startswith("ConservationAuditor.")),
        "audit.self_s": self_s["audit"],
        "audit.verify_s": verify_s,
        "reads.serve_calls": serve_calls,
        "reads.served": served,
        "reads.fallbacks": sum(1 for result in results
                               if result.view_fallbacks),
        "reads.served_ratio": served / serve_calls if serve_calls else 0.0,
        "reads.refreshes": (system.views.refreshes
                            if system.views is not None else 0),
        "reads.self_s": self_s["reads"],
        "serving.admitted": metrics.total("serve.enqueued"),
        "serving.shed": run.collector.shed,
        "serving.queue_wait_p99": (percentile_sorted(waits, 99)
                                   if waits else 0.0),
        "serving.self_s": self_s["serving"],
        "workloads.specs": sum(count for name, count in counts.items()
                               if name.endswith((".make_spec",
                                                 ".make_call"))),
        "workloads.self_s": self_s["workloads"],
        "obs.counter_incs": counts["CounterMetric.inc"],
        "obs.self_s": self_s["obs"],
    }


def execute(workload: str, seed: int, episode: int = 0,
            trace: bool = False, scale: float = 1.0,
            spans_path: str | None = None) -> dict:
    """Set up, simulate and check one episode; returns its record."""
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer(spec_sources=(workloads.FannedTransfers,))
        tracer.install()
    try:
        builds = []
        for _ in range(SETUP_BUILDS):
            run = None
            gc.collect()
            start = time.perf_counter()
            run = workloads.BUILDERS[workload](episode_seed(seed, episode),
                                               scale)
            builds.append(time.perf_counter() - start)
        setup_s = statistics.median(builds)
        gauge()  # warm-up
        gc.collect()
        gc.freeze()
        if tracer is not None:
            tracer.reset()
        slices, reference = run.simulate(between=gauge)
    finally:
        if tracer is not None:
            tracer.restore()
    start = time.perf_counter()
    failures = run.check()
    verify_s = time.perf_counter() - start
    record = {
        "workload": workload,
        "seed": seed,
        "episode": episode,
        "trace": trace,
        "setup_s": setup_s,
        "window_s": sum(slices),
        "speed": speed(reference),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "failures": failures[:20],
        "failure_count": len(failures),
        "sim": run.sim_metrics(),
    }
    if tracer is not None:
        record["layers"] = layer_metrics(tracer, run, verify_s)
        if spans_path is not None:
            record["spans_written"] = tracer.write_spans(spans_path)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--episode", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    record = execute(args.workload, args.seed, args.episode,
                     bool(args.trace), args.scale, args.spans)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
