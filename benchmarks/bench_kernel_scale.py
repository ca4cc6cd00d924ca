"""Kernel scaling bench: sites × events, single-queue vs sharded kernel.

The same site-local-chain + ring-hop workload (every site runs a dense
local timer chain and mails a neighbour twice per virtual-time window)
executed per grid row on the two kernels ``SystemConfig`` chooses
between:

* ``single`` — :class:`~repro.sim.kernel.Simulator`, the classic
  single-queue kernel (``shards=1``);
* ``sharded`` — :class:`~repro.sim.shard.ShardedSimulator` over
  ``min(sites, 8)`` round-robin shards (``shards=N``), run in barrier
  rounds on one core. Hops travel through ``after_for_site``, so
  cross-shard mail takes the outbox-and-barrier path real deliveries
  take. ``speedup`` = single wall / sharded wall: below 1.0 it is the
  cost of the barrier protocol.

The grid tops out at 128 sites / ~2M events. Both kernels must execute
the same number of events, and every hop sent must arrive — structural
gates, asserted on every run. Timing is best-of-``REPEATS``, like
every bench here: the loops are deterministic, so the minimum is the
defensible estimate.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_kernel_scale.py [--out FILE]
    PYTHONPATH=src python benchmarks/bench_kernel_scale.py --smoke
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import sys
import time

from repro.sim.kernel import Simulator
from repro.sim.shard import ShardedSimulator, ShardPlan

#: sites × duration rows; events ≈ sites × duration × 11 (a 0.1-period
#: local chain, a 2.0-period hop pulse, and the matching deliveries).
SCALE_GRID = [
    {"sites": 4, "duration": 400.0},        # ~18k events
    {"sites": 16, "duration": 400.0},       # ~70k events
    {"sites": 64, "duration": 600.0},       # ~420k events
    {"sites": 128, "duration": 1500.0},     # ~2.1M events
]

#: Shards per row (site-groups).
MAX_SHARDS = 8

#: Cross-shard hop delay and the lookahead that admits it.
HOP_DELAY = 1.0
LOOKAHEAD = 0.5

CHAIN_PERIOD = 0.1
HOP_PERIOD = 2.0

REPEATS = 3

#: The grid's largest row must really be at the promised scale.
MIN_TOP_SITES = 100
MIN_TOP_EVENTS = 1_000_000


def install_chain_and_hop(sim: Simulator, sites: list[str],
                          duration: float) -> dict[str, int]:
    """Arm the scaling workload on *sim*; return its live counters.

    Per site: a local timer chain every ``CHAIN_PERIOD`` (the bulk of
    the events — all queue churn, no mail) and a pulse every
    ``HOP_PERIOD`` mailing the next site in the ring (the cross-shard
    traffic that exercises barriers and the canonical mail order).
    """
    counts = {"local": 0, "hops_out": 0, "hops_in": 0}

    def arrive():
        counts["hops_in"] += 1

    def arm(site: str, target: str) -> None:
        def tick():
            counts["local"] += 1
            if sim.now + CHAIN_PERIOD <= duration:
                sim.after(CHAIN_PERIOD, tick, label=f"tick:{site}")

        def pulse():
            counts["hops_out"] += 1
            sim.after_for_site(target, HOP_DELAY, arrive,
                               label=f"hop:{target}")
            if sim.now + HOP_PERIOD <= duration:
                sim.after(HOP_PERIOD, pulse, label=f"pulse:{site}")

        sim.at_site(site, 0.0, tick, label=f"tick:{site}")
        sim.at_site(site, 0.0, pulse, label=f"pulse:{site}")

    for index, site in enumerate(sites):
        arm(site, sites[(index + 1) % len(sites)])
    return counts


def _site_names(count: int) -> list[str]:
    return [f"S{index}" for index in range(count)]


def _run_mode(sites: list[str], duration: float, shards: int) -> dict:
    gc.collect()
    if shards == 1:
        sim = Simulator(seed=1)
    else:
        sim = ShardedSimulator(
            ShardPlan.round_robin(sites, shards, LOOKAHEAD), seed=1)
    counts = install_chain_and_hop(sim, sites, duration)
    start = time.perf_counter()
    sim.run_until(duration + HOP_DELAY)
    wall = time.perf_counter() - start
    assert sim.pending == 0, "workload outlived its horizon"
    return {"wall_s": wall, "events": sim.steps,
            "rounds": getattr(sim, "rounds", 0), **counts}


def bench_scale(grid: list[dict], repeats: int) -> list[dict]:
    rows = []
    for cell in grid:
        sites = _site_names(cell["sites"])
        duration = cell["duration"]
        shards = min(cell["sites"], MAX_SHARDS)
        row = {"sites": cell["sites"], "duration": duration,
               "shards": shards}
        for mode, mode_shards in (("single", 1), ("sharded", shards)):
            best = min((_run_mode(sites, duration, mode_shards)
                        for _ in range(repeats)),
                       key=lambda run: run["wall_s"])
            assert best["hops_in"] == best["hops_out"], \
                f"{mode}: hops lost in flight: {best}"
            best["wall_s"] = round(best["wall_s"], 3)
            best["events_per_s"] = int(best["events"] / best["wall_s"])
            row[mode] = best
        assert row["single"]["events"] == row["sharded"]["events"], \
            "event counts diverged between the kernels"
        row["events"] = row["single"]["events"]
        row["speedup"] = round(
            row["single"]["wall_s"] / row["sharded"]["wall_s"], 3)
        rows.append(row)
        print(f"  sites={row['sites']:>4} events={row['events']:>9,} "
              f"single={row['single']['wall_s']:.2f}s "
              f"sharded={row['sharded']['wall_s']:.2f}s "
              f"(speedup {row['speedup']})", file=sys.stderr)
    return rows


def test_kernel_scale_smoke():
    """CI smoke: a tiny grid row on both kernels (the in-bench asserts
    already check event-count agreement and hop balance). Structural
    gates only — CI boxes are too noisy for wall-clock gates."""
    row = bench_scale([{"sites": 8, "duration": 40.0}], repeats=1)[0]
    assert row["events"] > 0
    assert row["shards"] == 8
    assert row["sharded"]["rounds"] > 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_kernel_scale.json")
    parser.add_argument("--repeats", type=int, default=None,
                        help="best-of-N per cell (default: 1 for rows "
                             ">= 64 sites, otherwise REPEATS)")
    parser.add_argument("--smoke", action="store_true",
                        help="one small row, structural gates only "
                             "(the CI kernel-scale job)")
    args = parser.parse_args(argv)

    grid = [{"sites": 8, "duration": 60.0}] if args.smoke else SCALE_GRID
    print(f"scaling grid ({len(grid)} rows):", file=sys.stderr)
    rows = []
    for cell in grid:
        repeats = (args.repeats if args.repeats is not None
                   else (1 if cell["sites"] >= 64 else REPEATS))
        rows.extend(bench_scale([cell], repeats))

    payload = {
        "bench": "kernel_scale",
        "cores": os.cpu_count() or 1,
        "scale": rows,
        "notes": [
            ("both kernels run on one core; speedup is the sharded "
             "kernel's barrier-round overhead, not parallelism."),
            ("all columns are same-host, same-session measurements; "
             "wall times recorded in earlier BENCH_pr*.json files came "
             "from different hosts and are not comparable."),
        ],
    }

    failures = []
    top = max(rows, key=lambda row: row["events"])
    if not args.smoke and (top["sites"] < MIN_TOP_SITES
                           or top["events"] < MIN_TOP_EVENTS):
        failures.append(f"largest row too small: {top['sites']} sites / "
                        f"{top['events']} events")

    path = pathlib.Path(args.out)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    if failures:
        for failure in failures:
            print(f"GATE FAILED: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
