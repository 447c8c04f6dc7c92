"""The catdistort benchmark: one command, four workloads.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace {0,1}

with WORKLOAD one of verify-chain, word-problem, verify-paper, ball-growth.

BENCHMARK.json lists the first two; the others run by hand.  Each
workload is a closed loop driven by one client in this one process.
It sets up several times (the workload's SETUP_REPEATS), then runs whole
passes (rounds) of its operations until ``--seconds`` have gone by,
checking every output against an independent computation outside the
timed calls.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``
(which also writes every span to ``perfbench/out/``).  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import harness

WORKLOADS = ("verify-chain", "word-problem", "verify-paper", "ball-growth")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric and its unit, as BENCHMARK.json declares
    them.  A workload reports the layers it exercises; the others read 0
    (no work of that layer ran)."""
    doc = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer"]}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    cd = harness.use_source_tree()
    import_s = time.perf_counter() - t0
    if args.workload.startswith("verify-"):
        import verify

        run_workload = functools.partial(verify.run, verify.INSTANCES[args.workload])
    elif args.workload == "word-problem":
        from word_problem import run as run_workload
    else:
        from ball_growth import run as run_workload
    tracer = harness.Tracer(bool(args.trace))
    ops, setup_times, notes, layers = run_workload(cd, args.seed, args.seconds, tracer)

    e2e = harness.summarize(ops, setup_times, import_s)
    what, _ = harness.tail([o for o in ops if o.error is None])
    failed = [o for o in ops if not o.ok]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print(line)
    print(f"set-up seconds: {', '.join(f'{s:.3f}' for s in setup_times)} "
          f"(+{import_s:.3f} import)")
    print(f"query_tail_ms is {what}")
    kinds: dict[str, list[float]] = {}
    for o in ops:
        kinds.setdefault(f"{o.kind}/{o.group}", []).append(o.seconds)
    for k, xs in sorted(kinds.items()):
        print(f"  {k}: {len(xs)} ops, p50 {harness.p50_ms(xs):.3f} ms, "
              f"max {1e3 * max(xs):.3f} ms")
    for o in failed[:10]:
        print(f"FAILED {o.kind}/{o.group} pass {o.pass_index}: "
              f"{o.error or 'output check failed'}")

    if args.trace:
        units = per_layer_units()
        unknown = set(layers) - set(units)
        if unknown:
            raise SystemExit(f"perfbench: undeclared per-layer metrics {sorted(unknown)}")
        metrics = {k: {"value": layers.get(k, 0), "unit": u} for k, u in units.items()}
        tracer.write(harness.OUT_DIR / f"trace-{args.workload}-{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed,
                      "end_to_end": {k: v for k, (v, _) in e2e.items()}})
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    result = {
        # a wrong output is incorrect; a call that raised only failed
        "correct": all(o.ok for o in ops if o.error is None),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
