"""Record any run to one trace format, then prove it reproduces.

Tour of ``repro.capture``:

1. record a sharded-KV scenario to a JSON-lines trace and replay it in
   both modes (re-simulate the whole run; re-check the recorded ops
   through fresh online checkers — no simulator);
2. show the format is wall-clock-free: re-recording the same spec
   yields byte-identical files;
3. record live service traffic (request/response frames in execution
   order) and re-drive it through a fresh ``KVService``;
4. run a soak with live metrics snapshots and the fire-once
   ``alert_on_violation`` hook.

Run:  PYTHONPATH=src python examples/capture_and_replay.py
"""

import filecmp
import json
import os
import tempfile

from repro.api import (ScenarioSpec, record_scenario, replay_capture,
                       run_loopback_load, verify_capture)


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="repro-capture-")

    # 1. record a scenario, replay it both ways -------------------------
    trace = os.path.join(workdir, "kv.jsonl")
    result = record_scenario("kv", trace, shard_count=2, num_keys=2,
                             rounds=1, seed=3, corruption_times=[2.0])
    info = verify_capture(trace)
    print(f"recorded kv scenario: {info['events']} events "
          f"{info['kinds']}  digest {info['history_digest']}")
    assert info["history_digest"] == result.summarize().history_digest

    resim = replay_capture(trace, mode="resimulate")
    recheck = replay_capture(trace, mode="recheck")
    print(f"  re-simulate: ok={resim.ok}  re-check: ok={recheck.ok}")

    # the parallel runner must land on the same bytes
    workers = replay_capture(trace, mode="resimulate", workers=2)
    assert workers.history_digest == resim.history_digest
    print(f"  2-worker re-simulate: ok={workers.ok} (same digest)")

    # 2. no wall-clock anywhere: re-recording is byte-identical ---------
    again = os.path.join(workdir, "kv-again.jsonl")
    record_scenario("kv", again, shard_count=2, num_keys=2,
                    rounds=1, seed=3, corruption_times=[2.0])
    assert filecmp.cmp(trace, again, shallow=False)
    print("  re-recorded trace is byte-identical")

    # 3. live service traffic records and re-drives ---------------------
    svc_trace = os.path.join(workdir, "service.jsonl")
    live = run_loopback_load(shards=2, clients=2, rounds=1, seed=9,
                             capture=svc_trace)
    replayed = replay_capture(svc_trace)
    print(f"service: {verify_capture(svc_trace)['events']} events, "
          f"replay ok={replayed.ok}")
    assert replayed.history_digest == live.history_digest
    assert replayed.summary["response_digest"] == live.response_digest

    # 4. soak with live metrics + the fire-once alert hook --------------
    metrics = os.path.join(workdir, "metrics.jsonl")
    spec = ScenarioSpec("soak",
                        dict(seed=3, num_writes=120, num_reads=120,
                             write_window=8, read_window=8,
                             max_records=8),
                        metrics_every=30.0, metrics_out=metrics)
    soak = spec.run()
    emitter = soak.extra["metrics"]
    with open(metrics) as lines:
        snaps = [json.loads(line) for line in lines]
    print(f"soak metrics: {len(snaps)} snapshots, "
          f"alerts fired: {emitter.alerts}")
    final = snaps[-1]
    print(f"  final: t={final['t']:.0f} ops={final['ops']} "
          f"violations={final['violations']} window={final['window']}")
    assert emitter.alerts == 0 and final["final"]

    print(f"\ntraces under {workdir} — try: "
          f"repro-capture check {trace}")


if __name__ == "__main__":
    main()
