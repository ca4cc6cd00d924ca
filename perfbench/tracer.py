"""Per-layer tracing from outside the program.

:class:`Tracer` patches the public entry points of each layer for one
run and restores every patched attribute afterwards; nothing under
``src/`` knows it is being measured. Three kinds of wrapper:

* ``span`` — counted, timed, and kept in memory as
  ``(name, start, end, parent, txn)``;
* ``leaf`` — counted and timed, no span record (hot leaf calls, e.g.
  ``PageStore.read`` at ~320k calls per run);
* ``acquire`` — a ``leaf`` that also counts the calls returning False
  under ``<name>.refused`` (lock acquisitions that did not succeed).

Every timed call keeps a frame on one stack, so a layer's self time is
its calls' durations minus the part their timed children cover. Each
scheduled event's action is wrapped too (at queue push), attributed to
the layer that defined the action, so the kernel's own loop and queue
work is what remains as ``sim`` self time.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict
from typing import Any, Callable

from repro.core import invariants, locks, recovery, site, transactions, vm
from repro.core.fragments import FragmentStore
from repro.net.network import Network
from repro.net.outbox import Outbox
from repro.obs.registry import CounterMetric, HistogramMetric
from repro.reads.views import SiteViewCache, ViewService
from repro.serving.frontend import ServingFrontend
from repro.serving.router import ViewAwareRouter
from repro.sim.events import Event
from repro.sim.kernel import EventQueue, Simulator
from repro.sim.timers import Timer
from repro.storage.log import StableLog
from repro.storage.pages import PageStore
from repro.workloads.apps import BankAppTraffic
from repro.workloads.banking import BankingWorkload

#: Layer of each module prefix (longest match wins). Fault-plan
#: actions (repro.chaos) are inputs, like the workload generators.
MODULE_LAYERS = {
    "repro.sim": "sim",
    "repro.net": "net",
    "repro.core.vm": "vm",
    "repro.core.transactions": "txn",
    "repro.core.locks": "txn",
    "repro.core.cc": "txn",
    "repro.core.redistribution": "txn",
    "repro.core.policies": "txn",
    "repro.core.rebalance": "txn",
    "repro.core": "site",
    "repro.storage": "storage",
    "repro.core.recovery": "storage",
    "repro.core.invariants": "audit",
    "repro.reads": "reads",
    "repro.serving": "serving",
    "repro.workloads": "workloads",
    "repro.apps": "workloads",
    "repro.chaos": "workloads",
    "repro.obs": "obs",
    "workloads": "workloads",
}

def layer_of_module(module: str) -> str:
    best = ""
    for prefix in MODULE_LAYERS:
        if (module == prefix or module.startswith(prefix + ".")) \
                and len(prefix) > len(best):
            best = prefix
    return MODULE_LAYERS.get(best, "sim")


def _txn_id(args: tuple) -> str | None:
    return args[0].id


def _no_txn(args: tuple) -> None:
    return None


def targets(spec_sources: tuple[type, ...] = ()) -> list[tuple]:
    """Every patched entry point as (owner, attribute, layer, kind, txn
    id extractor); its counter name is ``<Owner>.<attribute>``.
    *spec_sources* adds workload generators defined outside ``src/``."""
    queue_ops = [(EventQueue, name, "sim", "leaf", _no_txn)
                 for name in ("pop", "pop_if_due")]
    hooks = [(invariants.ConservationAuditor, name, "audit", "leaf", _no_txn)
             for name in ("on_fragment_register", "on_fragment_write",
                          "on_vm_created", "on_vm_accepted", "on_result")]
    lock_calls = [(locks.LockTable, name, "txn", "acquire", _no_txn)
                  for name in ("try_acquire_all", "acquire_all_or_wait")]
    lock_calls += [(locks.LockTable, name, "txn", "leaf", _no_txn)
                   for name in ("release_all", "cancel_waiter", "is_free",
                                "holder")]
    sources = [(cls, "make_spec", "workloads", "span", _no_txn)
               for cls in (BankingWorkload, *spec_sources)]
    sources.append((BankAppTraffic, "make_call", "workloads", "span",
                    _no_txn))
    return [
        (Simulator, "run_until", "sim", "span", _no_txn),
        (Simulator, "step", "sim", "span", _no_txn),
        *queue_ops,
        (Event, "cancel", "sim", "leaf", _no_txn),
        (Network, "send", "net", "span", _no_txn),
        (Outbox, "enqueue", "net", "span", _no_txn),
        (vm.VmManager, "on_transfer", "vm", "span", _no_txn),
        (vm.VmManager, "drain", "vm", "span", _no_txn),
        (vm.VmManager, "on_ack", "vm", "span", _no_txn),
        (vm.VmManager, "poke", "vm", "span", _no_txn),
        (transactions.Transaction, "start", "txn", "span", _txn_id),
        (transactions.Transaction, "recheck", "txn", "span", _txn_id),
        (transactions.Transaction, "on_vm_absorbed", "txn", "span",
         _txn_id),
        *lock_calls,
        (site.DvPSite, "submit", "site", "span", _no_txn),
        (site.DvPSite, "deliver", "site", "span", _no_txn),
        (site.DvPSite, "handle_request", "site", "span", _no_txn),
        (site.DvPSite, "log_append", "site", "span", _no_txn),
        (site.DvPSite, "crash", "site", "span", _no_txn),
        (site.DvPSite, "recover", "site", "span", _no_txn),
        (FragmentStore, "value", "site", "leaf", _no_txn),
        (StableLog, "append", "storage", "leaf", _no_txn),
        (PageStore, "read", "storage", "leaf", _no_txn),
        (PageStore, "write", "storage", "leaf", _no_txn),
        (recovery, "recover_site", "storage", "span", _no_txn),
        *hooks,
        (SiteViewCache, "serve", "reads", "span", _no_txn),
        (ViewService, "publish", "reads", "span", _no_txn),
        (ServingFrontend, "submit", "serving", "span", _no_txn),
        (ViewAwareRouter, "route", "serving", "span", _no_txn),
        *sources,
        (CounterMetric, "inc", "obs", "leaf", _no_txn),
        (HistogramMetric, "observe", "obs", "leaf", _no_txn),
    ]


def _target_name(owner: Any, attr: str) -> str:
    return f"{getattr(owner, '__name__', owner).rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """Counts, times and records calls at layer boundaries."""

    def __init__(self, spec_sources: tuple[type, ...] = ()) -> None:
        self.counts: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans: list[tuple | None] = []
        self._stack: list[list] = []
        self._patched: list[tuple[Any, str, Any]] = []
        self._targets = targets(spec_sources)
        self._layer_cache: dict[str, str] = {}

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Patch every target; call before the workload is built, since
        components keep bound methods they take at construction."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for owner, attr, layer, kind, txn_of in self._targets:
            original = vars(owner)[attr]
            name = _target_name(owner, attr)
            wrapper = self._wrap(original, name, layer, kind, txn_of)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        # Push is wrapped apart: it also wraps the event's action.
        original = vars(EventQueue)["push"]
        self._patched.append((EventQueue, "push", original))
        EventQueue.push = self._wrap_push(original,
                                          _target_name(EventQueue, "push"))

    def restore(self) -> None:
        """Put every original attribute back, in reverse order."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def patched_originals(self) -> list[tuple[Any, str, Any]]:
        """(owner, attribute, original) of every installed patch."""
        return list(self._patched)

    def reset(self) -> None:
        """Forget everything recorded so far (call after set-up)."""
        if self._stack:
            raise RuntimeError("reset inside a traced call")
        self.counts.clear()
        self.self_s.clear()
        self.spans.clear()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, layer: str, kind: str,
              txn_of: Callable) -> Callable:
        counts = self.counts
        stack = self._stack
        self_s = self.self_s
        spans = self.spans
        clock = time.perf_counter
        record = kind == "span"
        refused = f"{name}.refused" if kind == "acquire" else None

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            counts[name] += 1
            parent = stack[-1][1] if stack else -1
            # A leaf's frame carries its nearest span ancestor's index,
            # so a span opened beneath a leaf still finds its parent.
            frame = [0.0, len(spans) if record else parent]
            if record:
                spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if record:
                    spans[frame[1]] = (name, start, end, parent,
                                       txn_of(args))
            if refused is not None and result is False:
                counts[refused] += 1
            return result
        return timed

    def _wrap_push(self, push: Callable, name: str) -> Callable:
        timed_push = self._wrap(push, name, "sim", "leaf", _no_txn)
        wrap_action = self._wrap_action

        @functools.wraps(push)
        def traced_push(queue, time_, action, *args, **kwargs):
            return timed_push(queue, time_, wrap_action(action), *args,
                              **kwargs)
        return traced_push

    def _wrap_action(self, action: Callable) -> Callable:
        layer = self._action_layer(action)
        return self._wrap(action, f"event.{layer}", layer, "span", _no_txn)

    def _action_layer(self, action: Callable) -> str:
        owner = getattr(action, "__self__", None)
        if isinstance(owner, Timer):
            # A timer's _fire belongs to whoever armed it.
            return self._action_layer(owner._action)
        func = getattr(action, "__func__", action)
        module = getattr(func, "__module__", "") or ""
        layer = self._layer_cache.get(module)
        if layer is None:
            layer = self._layer_cache[module] = layer_of_module(module)
        return layer

    # -- output --------------------------------------------------------------

    def span_seconds(self, name: str) -> float:
        """Total duration of the recorded spans called *name*."""
        return sum(span[2] - span[1] for span in self.spans
                   if span is not None and span[0] == name)

    def write_spans(self, path: str) -> int:
        """Write every span as one JSON line (gzip); returns the count."""
        written = 0
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                if span is None:
                    continue
                name, start, end, parent, txn = span
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "txn": txn},
                    separators=(",", ":")) + "\n")
                written += 1
        return written
