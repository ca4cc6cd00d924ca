"""The four benchmark workloads, built from a seed, run, and checked.

Each builder returns a :class:`Run`: everything set up (system, items,
front-end, driver, fault plan) and nothing simulated yet. ``simulate``
is the timed window; ``check`` validates every output; ``sim_metrics``
reads the sim-clock results. All sim-side values are a pure function
of (code, seed).

Arrivals are open-loop Poisson on the sim clock, so host speed never
changes the offered load.
"""

from __future__ import annotations

import hashlib
import pathlib
import random
import sys
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

from repro.apps.bank import Bank
from repro.chaos.oracles import ViewOracle
from repro.chaos.plan import (
    CrashSite,
    FaultPlan,
    HealNet,
    PartitionNet,
    RecoverSite,
)
from repro.core.domain import CounterDomain, MoneyDomain
from repro.core.site import SiteDown
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import TransactionSpec
from repro.harness.experiments.e16_reads import _even_split
from repro.metrics.collector import Collector
from repro.net.link import LinkConfig
from repro.net.outbox import BundlingConfig
from repro.reads import ViewConfig
from repro.serving import ServingConfig, ServingFrontend
from repro.workloads.apps import AppWorkloadDriver, BankAppTraffic
from repro.workloads.banking import BankingWorkload
from repro.workloads.base import OpMix, WorkloadConfig, WorkloadDriver

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "benchmarks"))
from bench_micro_net import FannedTransfers  # noqa: E402

#: Float slack when comparing sim times (staleness, timeouts).
EPSILON = 1e-9

#: partition_window: a decided transaction must finish within its
#: timeout plus this much sim time (non-blocking commit).
DECISION_SLACK = 0.0

#: The timed window advances in this many equal slices of sim time
#: (see Run.simulate).
SLICES = 120


@dataclass
class Run:
    """One built workload, ready to simulate."""

    system: DvPSystem
    collector: Collector
    #: (sim time, action run on reaching it) phase boundaries.
    phases: list[tuple[float, Callable[[], object] | None]]
    #: Extra output checks of this workload; each returns failures.
    checks: list[Callable[["Run"], list[str]]] = field(default_factory=list)
    frontend: ServingFrontend | None = None
    #: partition_window only: [(start, end, groups)] fault windows.
    windows: list[tuple[float, float, tuple[tuple[str, ...], ...]]] = \
        field(default_factory=list)
    #: partition_window only: (origin site, submit time) of every
    #: accepted txn id, and of every submission refused because its
    #: origin was down.
    origins: dict[str, tuple[str, float]] = field(default_factory=dict)
    refused: list[tuple[str, float]] = field(default_factory=list)
    #: read_mostly_wan only: each account's total at build time, the
    #: reference the view certificates are checked against.
    initial_totals: dict[str, int] = field(default_factory=dict)

    def simulate(self, between: Callable[[], object] | None = None
                 ) -> tuple[list[float], list[float]]:
        """Run every phase in about :data:`SLICES` equal slices of sim
        time; returns the host seconds of each slice and of each call
        to *between*, made after every slice outside its timing.

        Slicing ``run_until`` executes exactly the same events in the
        same order as one call would.
        """
        sim = self.system.sim
        width = self.phases[-1][0] / SLICES
        clock = time.perf_counter
        slices, gauges = [], []
        for until, action in self.phases:
            while sim.now < until:
                target = min(sim.now + width, until)
                start = clock()
                sim.run_until(target)
                slices.append(clock() - start)
                if between is not None:
                    start = clock()
                    between()
                    gauges.append(clock() - start)
            if action is not None:
                action()
        return slices, gauges

    # -- outputs -------------------------------------------------------------

    def digest(self) -> str:
        """Hash of every (txn id, outcome, reason, finished_at)."""
        hasher = hashlib.sha256()
        for result in sorted(self.collector.results,
                             key=lambda result: result.txn_id):
            hasher.update(f"{result.txn_id}\x1f{result.outcome.value}"
                          f"\x1f{result.reason}\x1f{result.finished_at!r}"
                          "\x1e".encode())
        return hasher.hexdigest()

    def check(self) -> list[str]:
        """Every output check; an empty list means the run is correct."""
        failures = [f"conservation: {report}"
                    for report in self.system.auditor.verify_full()
                    if not report.ok]
        failures += [f"vm accounting drifted at {name}"
                     for name, site in sorted(self.system.sites.items())
                     if not site.vm.check_accounting()]
        for check in self.checks:
            failures += check(self)
        return failures

    def latencies(self) -> list[float]:
        """Submit->commit sim time of every committed txn, sorted.

        Through the serving front-end the clock starts at admission
        (client-perceived, queue wait included)."""
        if self.frontend is not None:
            return sorted(sample.finished_at - sample.arrived_at
                          for sample in self.frontend.samples
                          if sample.committed)
        return sorted(result.latency for result in self.collector.results
                      if result.committed)

    def sim_metrics(self) -> dict:
        """Sim-clock results and exact work counters of the run.

        Latency percentiles cover the commits that waited — for
        messages, a lock holder or a serving slot. A commit decided at
        its submission instant costs no sim time in this model; those
        are counted as ``instant_commits`` instead.
        """
        collector = self.collector
        metrics = self.system.sim.metrics
        committed = len(collector.committed)
        aborted = len(collector.aborted)
        latencies = self.latencies()
        waited = [latency for latency in latencies if latency > 0]
        return {
            "attempted": collector.submitted,
            "committed": committed,
            "aborted": aborted,
            "shed": collector.shed,
            "lost": collector.lost,
            "ops_failed": aborted + collector.shed + collector.lost,
            "instant_commits": len(latencies) - len(waited),
            "latencies": waited,
            "envelopes": metrics.total("net.sent"),
            "forced_writes": sum(site.log.forces
                                 for site in self.system.sites.values()),
            "events": self.system.sim.steps,
            "worst_group": self.worst_group(),
            "digest": self.digest(),
        }

    def worst_group(self) -> tuple[int, int]:
        """(committed, attempted) of the worst-served origin groups.

        On partition_window the groups are the two sides of each fault
        window's partition, counting only submissions inside the
        window; elsewhere every site is its own group over the whole
        run. The worse-served group of each window (or of the run) is
        summed, so ``committed / attempted`` is its commit ratio. Shed,
        refused and lost submissions count as attempted, not committed.
        """
        spans = self.windows or [
            (0.0, float("inf"),
             tuple((name,) for name in sorted(self.system.sites)))]
        missing = self.refused + self.unanswered()
        if self.frontend is not None:
            missing += [(shed.site, shed.at)
                        for shed in self.frontend.overloads]
        total_committed = total_attempted = 0
        for start, end, groups in spans:
            worst = None
            for group in groups:
                members = set(group)
                attempted = committed = 0
                for result in self.collector.results:
                    if result.site in members \
                            and start <= result.submitted_at < end:
                        attempted += 1
                        committed += result.committed
                attempted += sum(1 for site, at in missing
                                 if site in members and start <= at < end)
                if attempted and (worst is None or committed * worst[1]
                                  < worst[0] * attempted):
                    worst = (committed, attempted)
            if worst is not None:
                total_committed += worst[0]
                total_attempted += worst[1]
        return total_committed, total_attempted

    def unanswered(self) -> list[tuple[str, float]]:
        """(origin, submit time) of accepted txns that never decided."""
        answered = {result.txn_id for result in self.collector.results}
        return [origin for txn_id, origin in self.origins.items()
                if txn_id not in answered]


# -- transfer_fanout / transfer_fanout_bundled --------------------------------

FANOUT = {
    "sites": ["W", "X", "Y", "Z"],
    "arrival_rate": 0.4,
    "duration": 1500.0,
    "settle": 60.0,
    "ops_per_txn": 5,
    "src_items": 128,
    "sink_items": 128,
    "initial_per_peer": 50,
    "flush_delay": 2.0,
    "txn_timeout": 15.0,
    "retransmit_period": 12.0,
}


def _check_conflict_free(run: Run) -> list[str]:
    collector = run.collector
    failures = []
    if collector.aborted:
        failures.append(f"{len(collector.aborted)} aborts on a "
                        "conflict-free workload")
    if len(collector.results) != collector.submitted:
        failures.append(f"decided {len(collector.results)} != submitted "
                        f"{collector.submitted}")
    return failures


def build_fanout(seed: int, scale: float = 1.0,
                 bundled: bool = False) -> Run:
    spec = FANOUT
    sites = list(spec["sites"])
    duration = spec["duration"] * scale
    system = DvPSystem(SystemConfig(
        sites=sites, seed=seed, txn_timeout=spec["txn_timeout"],
        retransmit_period=spec["retransmit_period"],
        link=LinkConfig(base_delay=2.0, jitter=1.0),
        bundling=(BundlingConfig(flush_delay=spec["flush_delay"])
                  if bundled else None)))
    for site in sites:
        peer_split = {peer: spec["initial_per_peer"]
                      for peer in sites if peer != site}
        for index in range(spec["src_items"]):
            system.add_item(f"acct_{site}_{index}", CounterDomain(),
                            split=peer_split)
        for index in range(spec["sink_items"]):
            system.add_item(f"sink_{site}_{index}", CounterDomain(),
                            split={name: 1 for name in sites})
    collector = Collector()
    source = FannedTransfers(sites, spec["src_items"], spec["sink_items"],
                             spec["ops_per_txn"])
    WorkloadDriver(system.sim, system, sites, source,
                   WorkloadConfig(arrival_rate=spec["arrival_rate"],
                                  duration=duration),
                   collector).install()

    return Run(system, collector,
               phases=[(duration + spec["settle"], None)],
               checks=[_check_conflict_free])


# -- read_mostly_wan ----------------------------------------------------------

WAN = {
    "sites": 32,
    "regions": 4,
    "lan_delay": 1.0,
    "wan_delay": 20.0,
    "link_jitter": 0.3,
    "bound": 30.0,
    "refresh_period": 4.0,
    "accounts": 8,
    "balance": 10_000,
    "ratio": 100,
    "arrival_rate": 1.0,
    "duration": 400.0,
    "settle": 60.0,
    "txn_timeout": 50.0,
    "zipf_skew": 0.4,
    "max_inflight": 4,
    "max_depth": 16,
    "board_period": 4.0,
    "replicas": 2,
}


def _check_views(run: Run) -> list[str]:
    """Every certificate respects its bound and carries N(as_of); a
    certificate-served read sends no messages."""
    failures = ViewOracle().check(SimpleNamespace(
        system=run.system, initial_totals=run.initial_totals))
    for result in run.collector.results:
        if result.committed and result.view_reads \
                and not result.view_fallbacks and result.requests_sent:
            failures.append(f"{result.txn_id}: certificate-served read "
                            f"sent {result.requests_sent} messages")
    return failures


def build_read_mostly_wan(seed: int, scale: float = 1.0) -> Run:
    spec = WAN
    sites = [f"S{index}" for index in range(spec["sites"])]
    duration = spec["duration"] * scale
    system = DvPSystem(SystemConfig(
        sites=sites, seed=seed, txn_timeout=spec["txn_timeout"],
        link=LinkConfig(base_delay=spec["lan_delay"],
                        jitter=spec["link_jitter"]),
        partitioner="hash", replicas=spec["replicas"],
        views=ViewConfig(refresh_period=spec["refresh_period"],
                         ttl=spec["bound"])))
    region = {site: index % spec["regions"]
              for index, site in enumerate(sites)}
    wan = LinkConfig(base_delay=spec["wan_delay"],
                     jitter=spec["link_jitter"])
    for src in sites:
        for dst in sites:
            if src != dst and region[src] != region[dst]:
                system.network.configure_link(src, dst, wan)
    collector = Collector()
    frontend = ServingFrontend(system, ServingConfig(
        router="view-aware", max_inflight=spec["max_inflight"],
        max_depth=spec["max_depth"], board_period=spec["board_period"]),
        collector)
    bank = Bank(system, via=frontend)
    accounts = [f"acct{index}" for index in range(spec["accounts"])]
    for account in accounts:
        bank.open_account(account, _even_split(sites, spec["balance"]))
    workload = WorkloadConfig(
        arrival_rate=spec["arrival_rate"], duration=duration,
        zipf_skew=spec["zipf_skew"],
        mix=OpMix(reserve=0.5, cancel=0.5, read_view=float(spec["ratio"])))
    source = BankAppTraffic(bank, accounts, workload,
                            view_bound=spec["bound"])
    driver = AppWorkloadDriver(system.sim, sites, source, workload,
                               collector)
    frontend.start()
    driver.install_open_loop()

    return Run(system, collector,
               phases=[(duration, frontend.quiesce),
                       (duration + spec["txn_timeout"] + spec["settle"],
                        None)],
               checks=[_check_views], frontend=frontend,
               initial_totals={account: spec["balance"]
                               for account in accounts})


# -- partition_window ---------------------------------------------------------

PARTITION = {
    "sites": 8,
    "arrival_rate": 0.5,
    "duration": 1200.0,
    "settle": 120.0,
    "txn_timeout": 20.0,
    "retransmit_period": 5.0,
    "checkpoint_interval": 16,
    "loss": 0.05,
    "accounts": 32,
    "balance_per_site": 6_000,
    "zipf_skew": 0.8,
    #: (start, length, minority size) of each fault window.
    "windows": ((300.0, 150.0, 3), (750.0, 150.0, 2)),
}


class _OriginRecorder:
    """Submit target that remembers each submission's origin."""

    def __init__(self, run: Run) -> None:
        self.run = run

    def submit(self, site: str, spec: TransactionSpec, on_done=None):
        system = self.run.system
        try:
            txn = system.submit(site, spec, on_done)
        except SiteDown:
            self.run.refused.append((site, system.now))
            raise
        self.run.origins[txn.id] = (site, txn.submitted_at)
        return txn


def _check_partition(run: Run) -> list[str]:
    failures = []
    timeout = run.system.config.txn_timeout
    for result in run.collector.results:
        if result.latency > timeout + DECISION_SLACK + EPSILON:
            failures.append(f"{result.txn_id} decided after "
                            f"{result.latency} > timeout {timeout}")
    for site, at in run.refused:
        if not _down_at(run.system.sites[site].downtime, at):
            failures.append(f"submission at {site} t={at} refused while "
                            "the site was up")
    due = timeout + DECISION_SLACK + EPSILON
    for site, submitted in run.unanswered():
        if not any(submitted <= start <= submitted + due
                   for start, _end in run.system.sites[site].downtime):
            failures.append(f"a txn submitted at {site} t={submitted} was "
                            "lost but its origin did not crash before its "
                            "decision was due")
    return failures


def _down_at(downtime: list, at: float) -> bool:
    return any(start <= at and (end is None or at < end)
               for start, end in downtime)


def build_partition_window(seed: int, scale: float = 1.0) -> Run:
    spec = PARTITION
    sites = [f"P{index}" for index in range(spec["sites"])]
    duration = spec["duration"] * scale
    system = DvPSystem(SystemConfig(
        sites=sites, seed=seed, txn_timeout=spec["txn_timeout"],
        retransmit_period=spec["retransmit_period"],
        checkpoint_interval=spec["checkpoint_interval"],
        link=LinkConfig(base_delay=1.0, jitter=0.5,
                        loss_probability=spec["loss"])))
    accounts = [f"acct{index}" for index in range(spec["accounts"])]
    for account in accounts:
        system.add_item(account, MoneyDomain(),
                        split={site: spec["balance_per_site"]
                               for site in sites})
    collector = Collector()
    run = Run(system, collector,
              phases=[(duration + spec["txn_timeout"] + spec["settle"],
                       None)],
              checks=[_check_partition])
    workload = WorkloadConfig(
        arrival_rate=spec["arrival_rate"], duration=duration,
        zipf_skew=spec["zipf_skew"], amount_low=100, amount_high=5000,
        mix=OpMix(reserve=0.45, cancel=0.35, transfer=0.15, read=0.05))
    WorkloadDriver(system.sim, _OriginRecorder(run), sites,
                   BankingWorkload(accounts, workload), workload,
                   collector).install()
    # Which sites fail is drawn from the seed; when and how long is not.
    plan_rng = random.Random(f"partition_window:{seed}")
    actions = []
    for start, length, minority in spec["windows"]:
        start, length = start * scale, length * scale
        crashed, *group = plan_rng.sample(sites, minority + 1)
        group = tuple(sorted(group))
        rest = tuple(site for site in sites if site not in group)
        actions += [CrashSite(at=start, site=crashed),
                    PartitionNet(at=start, groups=(group,)),
                    HealNet(at=start + length),
                    RecoverSite(at=start + length, site=crashed)]
        run.windows.append((start, start + length, (group, rest)))
    FaultPlan(tuple(actions)).compile(system)
    return run


BUILDERS = {
    "transfer_fanout": build_fanout,
    "transfer_fanout_bundled":
        lambda seed, scale=1.0: build_fanout(seed, scale, bundled=True),
    "read_mostly_wan": build_read_mostly_wan,
    "partition_window": build_partition_window,
}
