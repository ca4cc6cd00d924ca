"""Retransmission on overdue acks (docs/PROTOCOL.md, "Retransmission").

A Vm entry is re-sent only once its own timeout has passed since it
was last sent. The timeout of a first transmission comes from the
channel's round-trip estimate (SRTT + 4·RTTVAR, Karn's rule for
samples), each re-send doubles it, and ``retransmit_period`` is both
the timeout before any sample and the ceiling.
"""

import pytest

from repro.core.domain import CounterDomain
from repro.core.messages import VmAck, VmTransfer
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import DecrementOp, TransactionSpec
from repro.core.vm import VmManager
from repro.net.link import LinkConfig
from repro.sim.kernel import Simulator

from tests.test_txn_wakeups import fanout

PERIOD = 8.0
DELAY = 1.0  # one way, so every clean round trip takes 2.0


class Wire:
    """Sites A and B joined by fixed-delay links; *drop* decides the
    fate of each message and every send is recorded."""

    def __init__(self, window: int | None = None) -> None:
        self.sim = Simulator(1)
        self.drop = lambda src, dst, payload: False
        self.sent: list[tuple[float, str, object]] = []  # (t, src, payload)
        self.managers: dict[str, VmManager] = {}
        for name in ("A", "B"):
            def send(dst, payload, src=name):
                self.sent.append((self.sim.now, src, payload))
                if not self.drop(src, dst, payload):
                    self.sim.after(DELAY,
                                   lambda: self._deliver(dst, payload))

            self.managers[name] = VmManager(
                name, self.sim, send=send, accept=lambda entry, src: True,
                clock_ts=lambda: 0, retransmit_period=PERIOD,
                window=window)

    def _deliver(self, dst: str, payload) -> None:
        if isinstance(payload, VmTransfer):
            self.managers[dst].on_transfer(payload)
        elif isinstance(payload, VmAck):
            self.managers[dst].on_ack(payload)

    def send_value(self, amount: int = 1):
        manager = self.managers["A"]
        entry = manager.allocate_entry("B", "x", amount, "transfer", "t")
        manager.register_created([entry])
        return entry

    def transfer_times(self, seq: int) -> list[float]:
        """When A put *seq* on the wire."""
        return [t for t, src, payload in self.sent
                if src == "A" and isinstance(payload, VmTransfer)
                and payload.entry.channel_seq == seq]

    def warm(self, round_trips: int) -> None:
        """Sample the A->B round trip *round_trips* times, one Vm each."""
        for _ in range(round_trips):
            self.send_value()
            self.sim.run_until(self.sim.now + 2 * DELAY + 1.0)

    @property
    def channel(self):
        return self.managers["A"].out_channel("B")


def drop_transfers(src, dst, payload):
    return isinstance(payload, VmTransfer)


class TestFanoutCadence:
    def test_retransmissions_rare_and_bundling_no_worse(self):
        """Lossless links: acks come back well inside the estimate, so
        almost nothing is re-sent, and bundling (which delays acks by
        its flush) must not re-send more than the unbundled transport."""
        counts = {}
        for bundled in (False, True):
            system, collector = fanout(bundled, duration=150.0)
            assert len(collector.committed) == collector.submitted > 50
            metrics = system.sim.metrics
            retransmissions = metrics.total("vm.retransmissions")
            assert retransmissions < 0.02 * metrics.total("vm.created")
            counts[bundled] = retransmissions
        assert counts[True] <= counts[False]


class TestDeadlines:
    def test_lost_first_transmission_resent_within_period(self):
        """Re-sent exactly when its own timeout expires: never later
        than the ceiling, and with a warm estimate well before it."""
        wire = Wire()
        wire.warm(5)
        timeout = wire.channel.timeout(PERIOD)
        assert timeout < PERIOD / 2
        wire.drop = drop_transfers
        entry = wire.send_value()
        (first,) = wire.transfer_times(entry.channel_seq)
        wire.sim.run_until(first + PERIOD)
        resends = wire.transfer_times(entry.channel_seq)[1:]
        assert resends and resends[0] == pytest.approx(first + timeout)

    def test_ack_of_resent_entry_gives_no_sample(self):
        wire = Wire()
        wire.drop = lambda src, dst, payload: (
            drop_transfers(src, dst, payload) and wire.sim.now == 0.0)
        entry = wire.send_value()
        wire.sim.run_until(PERIOD + 2 * DELAY + 1.0)
        assert len(wire.transfer_times(entry.channel_seq)) == 2
        assert wire.channel.cumulative_acked == entry.channel_seq
        assert wire.channel.srtt is None  # Karn: ambiguous ack ignored
        wire.warm(1)
        assert wire.channel.srtt == 2 * DELAY

    def test_one_sample_per_ack_advance(self):
        """Three entries confirmed by one cumulative ack feed the
        estimator once, not three times."""
        wire = Wire()
        wire.drop = lambda src, dst, payload: (
            isinstance(payload, VmAck) and payload.cumulative < 3)
        for _ in range(3):
            wire.send_value()
        wire.sim.run_until(2 * DELAY + 1.0)
        assert wire.channel.cumulative_acked == 3
        assert (wire.channel.srtt, wire.channel.rttvar) == (2.0, 1.0)

    def test_backoff_doubles_up_to_period(self):
        wire = Wire()
        wire.warm(5)
        first_timeout = wire.channel.timeout(PERIOD)
        wire.drop = drop_transfers
        entry = wire.send_value()
        start = wire.sim.now
        wire.sim.run_until(start + 5 * PERIOD)
        times = wire.transfer_times(entry.channel_seq)
        gaps = [later - earlier for earlier, later in zip(times, times[1:])]
        assert gaps[0] == pytest.approx(first_timeout)
        for earlier, later in zip(gaps, gaps[1:]):
            assert later == pytest.approx(min(2 * earlier, PERIOD))
        assert gaps[-2:] == [pytest.approx(PERIOD)] * 2

    def test_tick_now_resends_every_in_window_entry(self):
        wire = Wire(window=2)
        wire.drop = drop_transfers
        for _ in range(4):
            wire.send_value()
        wire.sim.run_until(1.0)
        wire.managers["A"].tick_now()
        resent = [payload.entry.channel_seq
                  for t, src, payload in wire.sent if t == 1.0]
        assert resent == [1, 2]
        assert wire.channel.retransmissions == 2
        assert wire.transfer_times(3) == wire.transfer_times(4) == []


class TestTimerLifecycle:
    def test_no_pending_event_without_live_vm(self):
        wire = Wire()
        manager = wire.managers["A"]
        manager.start()
        manager.tick_now()
        assert wire.sim.pending == 0
        wire.warm(3)
        assert manager.unacked_count() == 0
        assert wire.sim.pending == 0


class TestRecovery:
    def test_recovery_resets_the_estimator(self):
        """A channel rebuilt by recovery has no round-trip estimate: its
        restored live entries go out one full period after recovery."""
        system = DvPSystem(SystemConfig(
            sites=["A", "B", "C"], seed=6, txn_timeout=30.0,
            retransmit_period=PERIOD, link=LinkConfig(base_delay=DELAY)))
        system.add_item("x", CounterDomain(), total=90)
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 40),)),
                      lambda result: None)
        system.run_for(20.0)
        assert system.sites["B"].vm.out_channel("A").srtt is not None

        # The next Vm from B to A is lost because A is down when it
        # arrives; then B crashes while it is live.
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 40),)),
                      lambda result: None)
        system.run_for(0.5)
        system.crash("A")
        system.run_for(1.5)
        assert system.sites["B"].vm.unacked_count() > 0
        system.crash("B")
        system.run_for(1.0)
        system.recover("A")
        system.recover("B")
        recovered = system.sites["B"].vm
        channel = recovered.out_channel("A")
        assert channel.srtt is None
        assert channel.timeout(PERIOD) == PERIOD
        assert recovered.unacked_count() > 0 and not channel.sent
        system.run_for(PERIOD)
        assert channel.sent or not channel.entries
        system.run_for(4 * PERIOD)
        assert recovered.unacked_count() == 0
        system.auditor.assert_ok()
