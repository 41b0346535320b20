"""Long-horizon soak run on the streaming observation pipeline.

Runs a workload ~100x the smoke-cell size with periodic transient bursts,
retaining no history: counters, the history digest and the stabilization
report all stream off the run.  Then replays a smaller, history-retaining
run through the offline checkers to show the verdicts agree.

Run:  PYTHONPATH=src python examples/soak_streaming.py
"""

import time

from repro.checkers.stabilization import stabilization_report
from repro.workloads.scenarios import INITIAL
from repro.workloads.spec import run_scenario


def main() -> None:
    started = time.perf_counter()
    result = run_scenario("soak", kind="atomic", seed=7,
                          num_writes=1000, num_reads=1000,
                          fault_bursts=3, fault_period=5.0)
    elapsed = time.perf_counter() - started
    summary = result.summarize()
    tracker = result.extra["tracker"]
    print(f"soak: {summary.ops} ops in {elapsed:.2f}s wall "
          f"({result.cluster.scheduler.events_processed} events)")
    print(f"  history retained: {result.history is not None}")
    print(f"  stable={summary.stable}  tau_stab={summary.tau_stab}  "
          f"dirty={summary.dirty_reads}/{summary.total_reads}")
    print(f"  checker windows exact: {tracker.exact}")
    print(f"  digest: {summary.history_digest}")

    # cross-check on a history-retaining run: online == offline verdicts
    small = run_scenario("soak", kind="atomic", seed=7, num_writes=100,
                         num_reads=100, fault_bursts=3,
                         fault_period=5.0, keep_history=True)
    offline = stabilization_report(small.history, mode="atomic",
                                   initial=INITIAL,
                                   tau_no_tr=small.tau_no_tr)
    online = small.report
    print("\ncross-check (100+100 ops, history retained):")
    print(f"  offline: tau_stab={offline.tau_stab} "
          f"dirty={offline.dirty_reads} stable={offline.stable}")
    print(f"  online:  tau_stab={online.tau_stab} "
          f"dirty={online.dirty_reads} stable={online.stable}")
    assert (offline.tau_stab, offline.dirty_reads, offline.stable) == \
        (online.tau_stab, online.dirty_reads, online.stable)
    print("  verdicts agree.")


if __name__ == "__main__":
    main()
