"""Open-loop arrivals: fingerprint equality with prescheduled arrivals.

The open-loop driver chains per-site timers lazily instead of
pre-materializing the horizon, but it must describe the *same* arrival
process: same per-site gap streams, same specs, same times. These
tests pin that equivalence, on the classic and the sharded kernel.
"""

from repro.core.domain import CounterDomain
from repro.core.system import DvPSystem, SystemConfig
from repro.workloads.airline import AirlineWorkload
from repro.workloads.base import OpMix, WorkloadConfig, WorkloadDriver

ITEMS = [f"flight{index}" for index in range(8)]


def run_driver(mode, seed=7, sites_n=4, rate=0.4, duration=40.0,
               shards=1):
    sites = [f"S{index}" for index in range(sites_n)]
    system = DvPSystem(SystemConfig(sites=sites, seed=seed, shards=shards))
    for item in ITEMS:
        system.add_item(item, CounterDomain(), total=1000)
    config = WorkloadConfig(arrival_rate=rate, duration=duration,
                            zipf_skew=0.5, work=0.5,
                            mix=OpMix(reserve=0.7, cancel=0.3))
    driver = WorkloadDriver(system.sim, system, sites,
                            AirlineWorkload(ITEMS, config), config)
    installed = getattr(driver, f"install_{mode}")()
    assert installed > 0
    system.sim.run_until(duration + 60.0)
    return driver.collector


def fingerprint(collector):
    return sorted((r.label, r.site, round(r.submitted_at, 9),
                   r.outcome.name)
                  for r in collector.results)


class TestOpenLoopEquivalence:
    def test_matches_prescheduled_at_same_horizon(self):
        open_loop = run_driver("open_loop")
        prescheduled = run_driver("prescheduled")
        assert open_loop.submitted == prescheduled.submitted
        assert fingerprint(open_loop) == fingerprint(prescheduled)

    def test_deterministic_across_runs_and_seeds(self):
        assert fingerprint(run_driver("open_loop")) == \
            fingerprint(run_driver("open_loop"))
        assert fingerprint(run_driver("open_loop", seed=7)) != \
            fingerprint(run_driver("open_loop", seed=8))

    def test_equivalence_holds_on_sharded_kernel(self):
        open_loop = run_driver("open_loop", shards=2)
        prescheduled = run_driver("prescheduled", shards=2)
        assert fingerprint(open_loop) == fingerprint(prescheduled)

