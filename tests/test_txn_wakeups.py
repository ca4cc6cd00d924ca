"""Wake-on-change commit checks (docs/PROTOCOL.md, "Waking a gathering
transaction").

A gathering transaction is re-tested only when something it waits on
changes: a Vm absorbed into one of its own fragments, or — for an
exact read blocked on its own outstanding Vm, and for holders of view
certificates — any Vm delivery at its site. The shadow poll below
re-runs the full, index-free ``_sufficient()`` on every gathering
transaction of every site after every delivery: a True there is a
transaction the index failed to wake.
"""

import random

import pytest

from repro.chaos.plan import (
    CrashSite,
    FaultPlan,
    HealNet,
    PartitionNet,
    RecoverSite,
)
from repro.core.domain import CounterDomain, MoneyDomain
from repro.core.site import DvPSite
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    ReadFullOp,
    ReadViewOp,
    Transaction,
    TransactionSpec,
    TransferOp,
    _State,
)
from repro.metrics.collector import Collector
from repro.net.link import LinkConfig
from repro.net.outbox import BundlingConfig
from repro.reads import ViewConfig
from repro.workloads.banking import BankingWorkload
from repro.workloads.base import OpMix, WorkloadConfig, WorkloadDriver


class ShadowPoll:
    """After every delivery, audit every gathering transaction."""

    def __init__(self) -> None:
        self.system: DvPSystem | None = None
        self.deliveries = 0
        self.probes = 0

    def install(self, monkeypatch) -> "ShadowPoll":
        # Sites register their bound deliver at construction, so the
        # patch must precede building the system.
        original = DvPSite.deliver
        shadow = self

        def deliver(site, envelope):
            original(site, envelope)
            shadow.audit()

        monkeypatch.setattr(DvPSite, "deliver", deliver)
        return self

    def audit(self) -> None:
        self.deliveries += 1
        for site in self.system.sites.values():
            for txn in site.active.values():
                if txn.state is not _State.GATHERING:
                    continue
                self.probes += 1
                fragments = site.fragments
                uncovered = {
                    item for item, need in txn._needs.items()
                    if not fragments.domain(item).covers(
                        fragments.value(item), need)}
                assert txn._uncovered == uncovered, txn.id
                assert not txn._sufficient(), \
                    f"{txn.id} is sufficient but was never woken"


@pytest.fixture
def shadow(monkeypatch):
    return ShadowPoll().install(monkeypatch)


class FannedTransfers:
    """Conflict-free multi-op transfers whose source items hold value
    only at the origin's peers: every decrement gathers from all of
    them."""

    def __init__(self, sites, items, ops):
        self.sites, self.items, self.ops = sites, items, ops
        self._next = {site: 0 for site in sites}

    def make_spec(self, rng, site):
        other = rng.choice([peer for peer in self.sites if peer != site])
        base = self._next[site]
        self._next[site] = base + self.ops
        return TransactionSpec(ops=tuple(
            TransferOp(f"acct_{site}_{(base + j) % self.items}",
                       f"sink_{other}_{(base + j) % self.items}",
                       rng.randint(1, 4))
            for j in range(self.ops)))


def fanout(bundled: bool, shadow: ShadowPoll | None = None,
           seed: int = 11, duration: float = 300.0):
    sites = ["W", "X", "Y", "Z"]
    system = DvPSystem(SystemConfig(
        sites=sites, seed=seed, txn_timeout=15.0, retransmit_period=12.0,
        link=LinkConfig(base_delay=2.0, jitter=1.0),
        bundling=BundlingConfig(flush_delay=2.0) if bundled else None))
    for site in sites:
        for index in range(128):
            system.add_item(f"acct_{site}_{index}", CounterDomain(),
                            split={peer: 50 for peer in sites
                                   if peer != site})
            system.add_item(f"sink_{site}_{index}", CounterDomain(),
                            split={name: 1 for name in sites})
    if shadow is not None:
        shadow.system = system
    collector = Collector()
    WorkloadDriver(system.sim, system, sites,
                   FannedTransfers(sites, 128, 5),
                   WorkloadConfig(arrival_rate=0.4, duration=duration),
                   collector).install()
    system.run_for(duration + 60.0)
    return system, collector


def settled(system):
    assert not any(site.active for site in system.sites.values())
    system.auditor.assert_ok()


class TestShadowPoll:
    @pytest.mark.parametrize("bundled", [False, True])
    def test_fanout(self, shadow, bundled):
        system, collector = fanout(bundled, shadow)
        assert collector.submitted > 200
        assert len(collector.committed) == collector.submitted
        assert shadow.probes > 1000
        settled(system)

    def test_lossy_banking_with_crash_and_partition(self, shadow):
        sites = [f"P{index}" for index in range(5)]
        system = shadow.system = DvPSystem(SystemConfig(
            sites=sites, seed=5, txn_timeout=12.0, retransmit_period=4.0,
            checkpoint_interval=40,
            link=LinkConfig(base_delay=1.0, jitter=0.5,
                            loss_probability=0.05)))
        accounts = [f"acct{index}" for index in range(6)]
        for account in accounts:
            system.add_item(account, MoneyDomain(),
                            split={site: 4000 for site in sites})
        collector = Collector()
        workload = WorkloadConfig(
            arrival_rate=0.3, duration=200.0, zipf_skew=0.5,
            amount_low=100, amount_high=5000,
            mix=OpMix(reserve=0.45, cancel=0.3, transfer=0.15, read=0.1))
        WorkloadDriver(system.sim, system, sites,
                       BankingWorkload(accounts, workload), workload,
                       collector).install()
        FaultPlan((CrashSite(at=60.0, site="P1"),
                   PartitionNet(at=60.0, groups=(("P3", "P4"),)),
                   HealNet(at=110.0),
                   RecoverSite(at=110.0, site="P1"))).compile(system)
        system.run_for(300.0)
        reasons = collector.abort_reasons()
        assert collector.committed and reasons
        assert any(result.read_values for result in collector.committed)
        assert shadow.probes > 100
        settled(system)

    def test_conc2_vm_absorbed_before_the_locks(self, shadow):
        """Conc2 broadcasts its requests at initiation; the grants land
        while a long-working holder still has the lock, so the waiter
        finds its value already local when the locks are granted."""
        system = shadow.system = DvPSystem(SystemConfig(
            sites=["A", "B", "C", "D"], seed=43, cc="conc2",
            txn_timeout=15.0, sync_delay=1.0))
        system.add_item("x", CounterDomain(),
                        split={"A": 2, "B": 40, "C": 40, "D": 40})
        results = []
        system.submit("A", TransactionSpec(
            ops=(DecrementOp("x", 1),), work=6.0), results.append)
        system.run_for(0.5)
        waiter = system.submit("A", TransactionSpec(
            ops=(DecrementOp("x", 30),)), results.append)
        assert waiter.state is _State.WAITING_LOCKS
        system.run_for(30.0)
        assert [result.committed for result in results] == [True, True]
        # It decided at the grant, without waiting for more Vm.
        assert results[1].finished_at == pytest.approx(6.0)
        assert shadow.deliveries > 0
        settled(system)

    def test_exact_read_blocked_on_its_own_vm_wakes_on_the_ack(
            self, shadow):
        """A's grant to B is lost, so A's read collects every drain
        while A still owes B value. Only the retransmission's ack can
        unblock it: a delivery that touches none of A's fragments."""
        system = shadow.system = DvPSystem(SystemConfig(
            sites=["A", "B", "C"], seed=1, read_freeze=2.0,
            link=LinkConfig(base_delay=1.0)))
        system.add_item("x", CounterDomain(),
                        split={"A": 10, "B": 0, "C": 5})
        system.network.inject_link_fault(
            "A", "B", LinkConfig(base_delay=1.0, loss_probability=1.0))
        results = []
        system.submit("B", TransactionSpec(ops=(DecrementOp("x", 5),)),
                      results.append)
        system.sim.at(1.5, lambda: system.network.clear_link_fault("A",
                                                                   "B"))
        system.sim.at(2.5, lambda: system.submit(
            "A", TransactionSpec(ops=(ReadFullOp("x"),)), results.append))
        system.run_for(40.0)
        decrement, read = results
        assert decrement.committed and decrement.finished_at == 2.0
        assert read.committed
        # Drains were in by 4.5; the retransmission left A at 6 and
        # its ack came back at 8.
        assert read.finished_at == pytest.approx(8.0)
        assert system.sim.metrics.total("vm.retransmissions") >= 1
        settled(system)

    def test_exact_read_in_flight_across_add_site(self, shadow):
        system = shadow.system = DvPSystem(SystemConfig(
            sites=[f"S{index}" for index in range(4)], seed=9,
            txn_timeout=10.0, link=LinkConfig(base_delay=1.0),
            partitioner="consistent", replicas=2))
        for index in range(2):
            system.add_item(f"item{index}", CounterDomain(), total=80)
        results, reads = [], []
        for index, at in enumerate((18.5, 19.5, 23.0, 40.0)):
            site = f"S{index % 4}"
            system.sim.at_site(site, at, lambda site=site: system.submit(
                site, TransactionSpec(ops=(ReadFullOp("item0"),)),
                reads.append))
        for index in range(12):
            site = f"S{index % 4}"
            op = (IncrementOp("item1", 2) if index % 3 == 0
                  else DecrementOp("item1", 3))
            system.sim.at_site(site, 2.0 + 4.0 * index,
                               lambda site=site, op=op: system.submit(
                                   site, TransactionSpec(ops=(op,)),
                                   results.append))
        system.sim.at_global(20.0, lambda: system.add_site("E0"))
        system.run_until(200.0)
        assert len(results) == 12 and len(reads) == 4
        assert any(result.committed for result in results)
        # The join outgrows the responder set of the reads already in
        # flight; the one submitted after it reads everything.
        assert reads[-1].read_values == {"item0": 80}
        settled(system)

    def test_view_read_that_escalates(self, shadow):
        """The certificate ages out while the write half gathers: the
        commit attempt revalidates, finds no fresher view and escalates
        the read to the fan-out."""
        system = shadow.system = DvPSystem(SystemConfig(
            sites=["A", "B", "C"], seed=2, txn_timeout=10.0,
            link=LinkConfig(base_delay=1.0),
            views=ViewConfig(refresh_period=50.0)))
        system.add_item("x", CounterDomain(), total=90)
        system.add_item("y", CounterDomain(),
                        split={"A": 0, "B": 5, "C": 5})
        system.run_until(51.2)
        results = []
        system.submit("A", TransactionSpec(
            ops=(ReadViewOp("x", bound=2.0), DecrementOp("y", 3))),
            results.append)
        system.run_for(40.0)
        assert len(results) == 1 and results[0].committed
        assert results[0].view_fallbacks == ("x",)
        assert results[0].read_values["x"] == 90
        assert shadow.deliveries > 0
        settled(system)


def test_try_commit_calls_stay_within_three_per_txn(monkeypatch):
    calls = 0
    original = Transaction._try_commit

    def counted(txn):
        nonlocal calls
        calls += 1
        original(txn)

    monkeypatch.setattr(Transaction, "_try_commit", counted)
    system, collector = fanout(bundled=False)
    assert collector.submitted > 200
    assert calls <= 3 * collector.submitted, \
        f"{calls} commit attempts for {collector.submitted} txns"
    settled(system)


def test_spec_item_sets_iterate_like_fresh_sets():
    """The cached item sets keep the order freshly built sets have, so
    lock acquisition sees the items in the same order as before."""
    rng = random.Random(3)
    names = [f"item{index}" for index in range(40)]
    kinds = (lambda item: DecrementOp(item, 1), ReadFullOp,
             lambda item: ReadViewOp(item, bound=5.0))
    for _ in range(200):
        picked = rng.sample(names, rng.randint(1, 12))
        ops = tuple(rng.choice(kinds)(item) for item in picked)
        spec = TransactionSpec(ops=ops)
        full = {op.item for op in ops if isinstance(op, ReadFullOp)}
        bounds = {op.item: op.bound for op in ops
                  if isinstance(op, ReadViewOp)}
        updates = set()
        for op in ops:
            if isinstance(op, DecrementOp):
                updates.add(op.item)
        reads = full | set(bounds)
        assert list(spec.read_items()) == list(reads)
        assert list(spec.update_items()) == list(updates)
        assert list(spec.items()) == list(reads | updates)
        assert spec.items() is spec.items()
