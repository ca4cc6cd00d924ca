"""The repository benchmark: one workload, end to end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload transfer_fanout --seed 11 \\
        --seconds 8 --trace 0

Every execution runs in a fresh interpreter (``episode.py``), one at a
time. ``--trace 0`` runs rounds over the workload's episodes (seeds
derived from ``--seed``) to fill about ``--seconds`` of simulation
window; sim metrics are pooled over the episodes, host metrics are
medians over each episode's executions; it reports the end-to-end
metrics. ``--trace 1``
alternates untraced and traced executions of episode 0 and reports
the per-layer metrics plus the tracing overhead.

The second-to-last line of standard output is the full record (host
fingerprint, exact work counters, outcome digests, every execution);
the last line is the summary ``{"correct", "attempted", "failed",
"metrics"}``. Any failed output check makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = pathlib.Path(__file__).resolve().parent
OUT = ROOT / ".perfbench-out"

WORKLOADS = ("transfer_fanout", "transfer_fanout_bundled",
             "read_mostly_wan", "partition_window")

#: Independent episodes whose sim results are pooled per run; sized
#: so each workload's sim metrics are steady from seed to seed.
EPISODES = {
    "transfer_fanout": 3,
    "transfer_fanout_bundled": 3,
    "read_mostly_wan": 4,
    "partition_window": 5,
}

#: Window of episode 0 of each workload on the 2-CPU Xeon host the
#: benchmark was defined on; sets how many executions fill --seconds.
NOMINAL_WINDOW_S = {
    "transfer_fanout": 2.2,
    "transfer_fanout_bundled": 1.5,
    "read_mostly_wan": 1.2,
    "partition_window": 1.1,
}

#: Rounds over the episodes per untraced run at the least, and
#: untraced/traced pairs per traced run.
MIN_ROUNDS = 2
TRACED_PAIRS = 2

#: Every execution of a run must end within this much wall time (the
#: run must end within 180 s).
WALL_BUDGET_S = 170.0

#: Sim counts every execution of one episode must reproduce exactly.
EXACT = ("attempted", "committed", "aborted", "shed", "lost", "envelopes",
         "forced_writes", "events", "digest")

#: End-to-end metric units (reported with --trace 0).
END_TO_END = {
    "setup_s": "s",
    "ns_per_commit": "ns",
    "peak_rss_mb": "MB",
    "commit_ratio": "ratio",
    "latency_p50": "sim-time",
    "latency_p99": "sim-time",
    "instant_commit_share": "ratio",
    "msgs_per_commit": "count",
    "forced_writes_per_commit": "count",
    "worst_group_ratio": "ratio",
}

#: Per-layer metric units (reported with --trace 1); *_s are host
#: seconds, sim-time is the modelled clock, the rest are exact counts
#: or ratios of counts.
PER_LAYER = {
    "trace_overhead": "ratio",
    "sim.events": "count", "sim.queue_ops": "count", "sim.self_s": "s",
    "sim.ns_per_event": "ns",
    "net.sends": "count", "net.envelopes": "count", "net.dropped": "count",
    "net.bundle_fill": "ratio", "net.self_s": "s",
    "vm.created": "count", "vm.accepted": "count",
    "vm.retransmissions": "count", "vm.duplicates": "count",
    "vm.duplicate_ratio": "ratio", "vm.acks": "count",
    "vm.acks_suppressed": "count", "vm.self_s": "s",
    "txn.started": "count", "txn.rechecks": "count",
    "txn.rechecks_per_commit": "ratio", "txn.commit_yield": "ratio",
    "txn.aborts_locked": "count", "txn.aborts_timeout": "count",
    "locks.acquire_calls": "count", "locks.waits": "count",
    "txn.self_s": "s",
    "site.deliveries": "count", "site.requests": "count",
    "site.fragment_reads": "count",
    "site.fragment_reads_per_commit": "ratio", "site.self_s": "s",
    "storage.log_forces": "count", "storage.page_reads": "count",
    "storage.page_writes": "count", "storage.recoveries": "count",
    "storage.redo_records": "count", "storage.recovery_s": "s",
    "storage.self_s": "s",
    "audit.hook_calls": "count", "audit.self_s": "s", "audit.verify_s": "s",
    "reads.serve_calls": "count", "reads.served": "count",
    "reads.fallbacks": "count", "reads.served_ratio": "ratio",
    "reads.refreshes": "count", "reads.self_s": "s",
    "serving.admitted": "count", "serving.shed": "count",
    "serving.queue_wait_p99": "sim-time", "serving.self_s": "s",
    "workloads.specs": "count", "workloads.self_s": "s",
    "obs.counter_incs": "count", "obs.self_s": "s",
}

#: Per-layer metrics measured on the host clock: reported as medians
#: over the traced executions. Everything else must repeat exactly.
HOST_LAYER = {name for name, unit in PER_LAYER.items()
              if unit in ("s", "ns")}


class BenchmarkError(RuntimeError):
    """The benchmark could not run (missing program, crashed child)."""


def host_fingerprint() -> dict:
    """Where the walls were measured; walls of different hosts are
    never comparable."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if done.returncode == 0:
            rev = done.stdout.strip()
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "platform": platform.platform(), "git_rev": rev}


def execute(workload: str, seed: int, episode: int, trace: bool,
            scale: float, spans: bool = False,
            timeout: float = WALL_BUDGET_S) -> dict:
    """One execution in a fresh interpreter; returns its record. A
    child still running after *timeout* seconds is killed."""
    command = [sys.executable, str(HERE / "episode.py"),
               "--workload", workload, "--seed", str(seed),
               "--episode", str(episode), "--trace", str(int(trace)),
               "--scale", repr(scale)]
    if spans:
        OUT.mkdir(exist_ok=True)
        command += ["--spans",
                    str(OUT / f"spans-{workload}-s{seed}-e{episode}.jsonl.gz")]
    done = subprocess.run(command, capture_output=True, text=True,
                          check=False, timeout=timeout)
    if done.returncode != 0:
        raise BenchmarkError(
            f"{workload} episode {episode} exited {done.returncode}:\n"
            f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def first_of(records: list[dict], episode: int) -> dict:
    return next(record for record in records
                if record["episode"] == episode)


def _consistent(records: list[dict]) -> list[str]:
    """Every execution of one episode must agree on every exact count."""
    problems = []
    first: dict[int, dict] = {}
    for record in records:
        sim = record["sim"]
        base = first.setdefault(record["episode"], sim)
        for key in EXACT:
            if sim[key] != base[key]:
                problems.append(
                    f"episode {record['episode']} {key} diverged: "
                    f"{base[key]!r} then {sim[key]!r}")
    return problems


def normalized(record: dict, key: str) -> float:
    """A host time of one execution at nominal host speed."""
    return record[key] * record["speed"]


def end_to_end(records: list[dict], episodes: int) -> dict:
    """End-to-end metrics: sim ones pooled over the distinct episodes;
    the window of each episode is its median over its executions."""
    from repro.metrics.stats import percentile_sorted
    distinct = [first_of(records, episode)["sim"]
                for episode in range(episodes)]
    committed = sum(sim["committed"] for sim in distinct)
    latencies = sorted(latency for sim in distinct
                       for latency in sim["latencies"])
    group_committed = sum(sim["worst_group"][0] for sim in distinct)
    group_attempted = sum(sim["worst_group"][1] for sim in distinct)
    windows = [statistics.median(normalized(record, "window_s")
                                 for record in records
                                 if record["episode"] == episode)
               for episode in range(episodes)]
    return {
        "setup_s": statistics.median(normalized(record, "setup_s")
                                     for record in records),
        "ns_per_commit": sum(windows) * 1e9 / committed,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "commit_ratio": committed / sum(sim["attempted"]
                                        for sim in distinct),
        "latency_p50": percentile_sorted(latencies, 50),
        "latency_p99": percentile_sorted(latencies, 99),
        "instant_commit_share": sum(sim["instant_commits"]
                                    for sim in distinct) / committed,
        "msgs_per_commit": sum(sim["envelopes"] for sim in distinct)
        / committed,
        "forced_writes_per_commit": sum(sim["forced_writes"]
                                        for sim in distinct) / committed,
        "worst_group_ratio": group_committed / group_attempted,
    }


def per_layer(records: list[dict]) -> dict:
    """Per-layer metrics: counts from the traced executions (which
    must agree exactly), host times as medians, and the overhead."""
    traced = [record for record in records if record["trace"]]
    untraced = [record for record in records if not record["trace"]]
    values = {}
    for name in PER_LAYER:
        if name == "trace_overhead":
            values[name] = statistics.median(
                normalized(record, "window_s") for record in traced) \
                / statistics.median(normalized(record, "window_s")
                                    for record in untraced)
        elif name in HOST_LAYER:
            values[name] = statistics.median(
                record["layers"][name] * record["speed"]
                for record in traced)
        else:
            values[name] = traced[0]["layers"][name]
    return values


def layer_problems(records: list[dict]) -> list[str]:
    traced = [record["layers"] for record in records if record["trace"]]
    return [f"traced {name} diverged: {traced[0][name]!r} vs "
            f"{layers[name]!r}"
            for layers in traced[1:] for name in PER_LAYER
            if name in layers and name not in HOST_LAYER
            and layers[name] != traced[0][name]]


def rounds(workload: str, seconds: float) -> int:
    """Executions of each episode in an untraced run: a fixed function
    of ``--seconds``, so both sides of a comparison make the same
    number."""
    return max(MIN_ROUNDS, math.ceil(
        seconds / (EPISODES[workload] * NOMINAL_WINDOW_S[workload])))


def collect(workload: str, seed: int, seconds: float, trace: bool,
            scale: float) -> list[dict]:
    """Every execution of one run, in order.

    Untraced: :func:`rounds` rounds over the distinct episodes. Traced:
    :data:`TRACED_PAIRS` untraced/traced pairs of episode 0; the first
    traced one writes its spans.
    """
    deadline = time.monotonic() + WALL_BUDGET_S
    if trace:
        plan = [(0, traced) for _ in range(TRACED_PAIRS)
                for traced in (False, True)]
    else:
        plan = [(episode, False)
                for _round in range(rounds(workload, seconds))
                for episode in range(EPISODES[workload])]
    records: list[dict] = []
    for episode, traced in plan:
        first_traced = traced and not any(r["trace"] for r in records)
        records.append(execute(workload, seed, episode, traced, scale,
                               spans=first_traced,
                               timeout=deadline - time.monotonic()))
    return records


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0) -> tuple[dict, dict]:
    """Run the benchmark; returns (full record, summary line)."""
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchmarkError(f"no program to measure under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    records = collect(workload, seed, seconds, trace, scale)
    episodes = 1 if trace else EPISODES[workload]
    distinct = [first_of(records, episode)["sim"]
                for episode in range(episodes)]
    problems = _consistent(records)
    failed_episodes = {record["episode"] for record in records
                       if record["failure_count"]}
    if trace:
        problems += layer_problems(records)
        values = per_layer(records)
        units = PER_LAYER
    else:
        values = end_to_end(records, episodes)
        units = END_TO_END
    attempted = sum(sim["attempted"] for sim in distinct)
    failed = (attempted if problems else
              sum(distinct[episode]["attempted"]
                  for episode in failed_episodes))
    latencies = [latency for sim in distinct for latency in sim["latencies"]]
    full = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "host": host_fingerprint(),
        "ops_attempted": attempted,
        "ops_failed": sum(sim["ops_failed"] for sim in distinct),
        "instant_commits": sum(sim["instant_commits"] for sim in distinct),
        "latency_samples": len(latencies),
        "latency_beyond_p99": sum(
            1 for latency in latencies
            if latency > values.get("latency_p99", float("inf"))),
        "problems": problems[:20],
        "executions": [
            {key: value for key, value in record.items()
             if key not in ("sim", "layers")}
            | {"sim": {key: value for key, value in record["sim"].items()
                       if key != "latencies"}}
            for record in records],
    }
    summary = {
        "correct": not problems and not failed_episodes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    return full, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        full, summary = run(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    except (BenchmarkError, subprocess.TimeoutExpired) as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 2
    print(json.dumps(full, sort_keys=True))
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
