"""Chaos coverage for the Π(b) view tier (docs/READS.md): every oracle
must hold when a slice of the read workload is served from bounded-
staleness view caches under crashes, partitions, resharding, and
transport bundling — and with views *off* the whole engine must stay
byte-identical to the pinned engine (the digest pin below)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos import ChaosConfig, FaultPlan, explore
from repro.chaos.oracles import EPSILON
from repro.chaos.runner import run_chaos
from repro.cli import build_parser
from repro.harness.chaos import config_from_args

#: (seed, serving router) per acceptance exploration — views ride the
#: direct path, the view-aware front-end, and a view-blind router.
ACCEPTANCE = [(7, None), (19, "view-aware"), (23, "least-queue")]

#: explore(ChaosConfig(), budget=6, master_seed=7) on the views-off
#: engine whose Vm layer re-sends an entry only once its ack is overdue
#: (docs/PROTOCOL.md, "Retransmission"). Views off must keep producing
#: this exact digest: the view service re-interprets an existing
#: workload roll range and never draws extra randomness, so turning it
#: off IS the seed read path, bit for bit. Any change to retransmission
#: timing moves it; the engine that re-sent every live Vm on a fixed
#: period gave
#: 14baf8e2ca857e8631fa3a0cc97d89fc62e88a6db1cdf502c6f488ace9423d85.
OVERDUE_ACK_ENGINE_DIGEST = \
    "f23d4e474a3549719e828a3ea668045acdb0cb8501a308781954cfef4324ce60"


class TestExploreWithViews:
    @pytest.mark.parametrize("seed,serving", ACCEPTANCE)
    def test_budget_200_green(self, seed, serving):
        """The acceptance runs: full budget, views on, every oracle
        (conservation, serial, progress, and the view oracle's
        certificate-never-lies check)."""
        report = explore(ChaosConfig(views=12.0, serving=serving),
                         budget=200, master_seed=seed)
        assert report.ok, report.describe()

    def test_exploration_deterministic_with_views(self):
        config = ChaosConfig(views=12.0)
        first = explore(config, budget=6, master_seed=11)
        second = explore(config, budget=6, master_seed=11)
        assert first.digest() == second.digest()

    def test_views_off_is_the_overdue_ack_engine(self):
        """The fingerprint-stability regression: with views=None the
        exploration digest equals the recorded engine digest."""
        report = explore(ChaosConfig(), budget=6, master_seed=7)
        assert report.ok, report.describe()
        assert report.digest() == OVERDUE_ACK_ENGINE_DIGEST

    def test_describe_names_the_views(self):
        report = explore(ChaosConfig(views=9.0, view_refresh=3.0),
                         budget=1, master_seed=3)
        assert "views=9@3" in report.describe().splitlines()[0]
        plain = explore(ChaosConfig(), budget=1, master_seed=3)
        assert "views" not in plain.describe()


CRASH_PLAN = FaultPlan.from_dicts([
    {"at": 15.0, "kind": "crash", "site": "S1"},
    {"at": 35.0, "kind": "recover", "site": "S1"},
    {"at": 20.0, "kind": "partition", "groups": [["S0", "S1"]]},
    {"at": 40.0, "kind": "heal"},
])


class TestViewRunSemantics:
    def test_same_seed_and_plan_same_fingerprint(self):
        config = ChaosConfig(views=12.0)
        first = run_chaos(config, CRASH_PLAN, seed=42)
        second = run_chaos(config, CRASH_PLAN, seed=42)
        assert first.fingerprint == second.fingerprint
        assert not first.failed, first.failures

    def test_view_reads_actually_happen(self):
        """The re-interpreted roll range produces bounded reads and at
        least some commit with a certificate (else the acceptance
        sweeps prove nothing)."""
        config = ChaosConfig(views=12.0)
        result = run_chaos(config, FaultPlan.from_dicts([]), seed=9)
        assert not result.failed, result.failures
        certs = [cert for txn in result.system.results if txn.committed
                 for cert in txn.view_reads.values()]
        assert certs, "no committed view read in a healthy run"
        assert all(cert.staleness <= cert.bound + EPSILON
                   for cert in certs)

    def test_sharded_kernel_replays_bit_for_bit(self):
        config = ChaosConfig(views=12.0, shards=2,
                             partitioner="hash", replicas=2)
        first = run_chaos(config, CRASH_PLAN, seed=21)
        second = run_chaos(config, CRASH_PLAN, seed=21)
        assert not first.failed, first.failures
        assert first.fingerprint == second.fingerprint


class TestStalenessBoundProperty:
    """The tentpole's safety claim, property-tested: under randomized
    faults, topology, and transport, a committed bounded-staleness
    read's certificate NEVER exceeds the reader's bound — every fault
    degrades to fallback fan-out, not to a lie."""

    @given(
        bound=st.floats(min_value=5.0, max_value=40.0),
        crash_at=st.floats(min_value=5.0, max_value=45.0),
        outage=st.floats(min_value=4.0, max_value=25.0),
        split_at=st.floats(min_value=5.0, max_value=45.0),
        cut=st.floats(min_value=4.0, max_value=25.0),
        hashed=st.booleans(),
        bundling=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=10, deadline=None)
    def test_no_committed_certificate_violates_its_bound(
            self, bound, crash_at, outage, split_at, cut, hashed,
            bundling, seed):
        config = ChaosConfig(
            views=bound,
            partitioner="hash" if hashed else "all",
            replicas=2 if hashed else None,
            bundle_flush_delay=1.5 if bundling else None)
        plan = FaultPlan.from_dicts([
            {"at": crash_at, "kind": "crash", "site": "S2"},
            {"at": crash_at + outage, "kind": "recover", "site": "S2"},
            {"at": split_at, "kind": "partition",
             "groups": [["S0", "S3"]]},
            {"at": split_at + cut, "kind": "heal"},
        ])
        result = run_chaos(config, plan, seed=seed)
        assert not result.failed, result.failures
        for txn in result.system.results:
            if not txn.committed:
                continue
            for item, cert in txn.view_reads.items():
                assert cert.staleness <= cert.bound + EPSILON, (
                    f"{txn.txn_id}[{item}]: staleness {cert.staleness}"
                    f" > bound {cert.bound}")


class TestConfigPlumbing:
    def test_old_artifacts_load_without_view_keys(self):
        data = ChaosConfig().to_dict()
        del data["views"]
        del data["view_refresh"]
        config = ChaosConfig.from_dict(data)
        assert config.views is None
        assert config.view_refresh == 4.0

    def test_cli_flags_reach_the_config(self):
        parser = build_parser()
        args = parser.parse_args([
            "chaos", "--views", "15", "--view-refresh", "5"])
        config = config_from_args(args)
        assert config.views == 15.0
        assert config.view_refresh == 5.0

    def test_default_is_the_seed_path(self):
        parser = build_parser()
        args = parser.parse_args(["chaos"])
        assert config_from_args(args).views is None
