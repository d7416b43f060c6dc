"""One benchmark operation: one seeded workload run in a fresh process.

``run.py`` starts this script once per operation, so ``setup_s``
includes interpreter start and imports, ``peak_rss_mb`` belongs to one
run, and no PHY memo or ``ru_maxrss`` carries over from an earlier
run.  The last line of standard output is one JSON object.

The timed phase is the workload's ``Simulator.run`` call.  Usage::

    python3 perfbench/op.py WORKLOAD SEED SPAWNED_AT MODE

``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before it
started this process (the clock is system-wide); ``MODE`` is ``run``,
``trace`` or ``setup`` (stop at the first simulated event).
"""

from __future__ import annotations

import functools
import hashlib
import json
import resource
import sys
import time
from time import perf_counter
from typing import Dict, List, Optional


def host_cpu_s() -> float:
    """CPU seconds of this process plus its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class SetupDone(Exception):
    """Raised at the first simulated event of a ``setup`` operation."""


class Probe:
    """Marks the timed phase and keeps every Testbed built."""

    def __init__(self, spawned_at: float, ledger=None, setup_only: bool = False):
        self.spawned_at = spawned_at
        self.ledger = ledger
        self.setup_only = setup_only
        self.testbeds: List = []
        self.build_s = 0.0
        self.setup_s: Optional[float] = None
        self.cpu_s = 0.0
        self.wall_s = 0.0
        self.traced_s = 0.0

    def install(self) -> None:
        from repro.scenarios.testbed import Testbed
        from repro.sim.engine import Simulator

        probe = self
        init = Testbed.__init__

        @functools.wraps(init)
        def init_kept(testbed, config):
            started = time.monotonic()
            init(testbed, config)
            probe.build_s += time.monotonic() - started
            probe.testbeds.append(testbed)

        Testbed.__init__ = init_kept
        run = Simulator.run

        @functools.wraps(run)
        def run_timed(sim, until_us=None):
            if probe.setup_s is None:
                probe.setup_s = time.monotonic() - probe.spawned_at
            if probe.setup_only:
                raise SetupDone
            cpu = host_cpu_s()
            wall = time.monotonic()
            traced = perf_counter()
            if probe.ledger is not None:
                probe.ledger.phase_enter()
            try:
                return run(sim, until_us)
            finally:
                if probe.ledger is not None:
                    probe.ledger.phase_exit()
                probe.traced_s += perf_counter() - traced
                probe.wall_s += time.monotonic() - wall
                probe.cpu_s += host_cpu_s() - cpu

        Simulator.run = run_timed


def digest(payload: Dict) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv: List[str]) -> int:
    workload_name, seed, spawned_at, mode = argv
    from workloads import WORKLOADS

    ledger = None
    if mode == "trace":
        from counters import install_tracking
        from ledger import Ledger

        ledger = Ledger()
        ledger.install()
        install_tracking(ledger)
    probe = Probe(float(spawned_at), ledger, setup_only=mode == "setup")
    probe.install()
    try:
        out = WORKLOADS[workload_name](int(seed), probe.testbeds)
    except SetupDone:
        print(json.dumps({"setup_s": probe.setup_s}))
        return 0
    record = {
        "setup_s": probe.setup_s,
        "build_s": probe.build_s,
        "cpu_s": probe.cpu_s,
        "wall_s": probe.wall_s,
        "sim_s": out["sim_seconds"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "goodput_mbps": out["goodput_mbps"],
        "switch_durations_us": out["switch_durations_us"],
        "checks": out["checks"],
        "digest": digest(out["digest_payload"]),
    }
    if ledger is not None:
        from counters import layer_record

        record.update(layer_record(ledger, probe, out))
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
