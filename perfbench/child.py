"""One workload in one interpreter: set up, run passes, print one JSON line.

Started by `run.py`, never by hand:

    python3 perfbench/child.py --workload W --seed N --mode setup
    python3 perfbench/child.py --workload W --seed N --mode run --seconds S
    python3 perfbench/child.py --workload W --seed N --mode trace --passes P

`setup` stops once the inputs exist; `run` repeats whole passes until S
seconds and `--min-passes` passes are done, with the speed probe sampling
the host (speed.py) every 20 ms; `trace` runs exactly P passes with
every layer wrapped and the probe only between checks, and reports the
per-layer breakdown of one pass.
The output carries `ready`, the `time.monotonic()` reading at the end of
set-up, from which the parent computes set-up time. `latencies` and
`walls` are wall times net of the probes, `scaled` each check's time at
reference speed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()) \
        .hexdigest()[:16]


def run_passes(checks, known, seconds, min_passes, max_passes, sampler,
               on_check=None):
    """Run whole passes, at least `min_passes` and at most `max_passes`; a
    further pass starts only while it is expected to end within half a
    pass of `seconds`. Return latencies, check times at reference speed,
    pass walls, failing check ids and the exact-count digest of each
    pass."""
    latencies, scaled, walls, failed, digests = [], [], [], [], []
    t_begin = time.perf_counter()
    while len(walls) < max_passes and (
            len(walls) < min_passes
            or time.perf_counter() - t_begin + sum(walls) / len(walls) / 2
            < seconds):
        counts = {}
        t_pass = time.perf_counter()
        pass_mark = sampler.mark()
        for i, check in enumerate(checks):
            if on_check:
                on_check(len(walls) * len(checks) + i)
            if not sampler.periodic:
                sampler.sample()
            mark = sampler.mark()
            t0 = time.perf_counter()
            try:
                verdict, counts[check.id] = check.run()
            except Exception as e:   # a raising check is a failed check
                verdict = {"raised": f"{type(e).__name__}: {e}"}
            wall, at_reference = sampler.scale(mark,
                                               time.perf_counter() - t0)
            latencies.append(wall)
            scaled.append(at_reference)
            if verdict != known.get(check.id):
                failed.append({"id": check.id, "verdict": verdict,
                               "expected": known.get(check.id)})
        if on_check:
            on_check(-1)
        walls.append(sampler.scale(pass_mark,
                                   time.perf_counter() - t_pass)[0])
        digests.append(_digest(counts))
    return latencies, scaled, walls, failed, digests


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"),
                    required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-passes", type=int, default=1)
    ap.add_argument("--passes", type=int, default=0)
    ap.add_argument("--limit", type=int, default=0,
                    help="run only the first N checks of a pass")
    ap.add_argument("--spans", help="write the spans to this file")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import speed
    import workloads
    tracer = None
    if args.mode == "trace":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install([workloads])
    workload = workloads.build(args.workload, args.seed)
    checks = workload.checks[:args.limit or None]
    known = workloads.load_known_answers()
    ready = time.monotonic()
    out = {"ready": ready, "inputs_digest": workload.inputs_digest,
           "ids": [c.id for c in checks]}
    if args.mode != "setup":
        on_check = None
        if tracer:
            def on_check(i):
                tracer.check_id = i
        max_passes = args.passes or sys.maxsize
        with speed.Sampler(periodic=not tracer) as sampler:
            latencies, scaled, walls, failed, digests = run_passes(
                checks, known, args.seconds, args.passes or args.min_passes,
                max_passes, sampler, on_check)
        out.update(latencies=latencies, scaled=scaled, walls=walls,
                   failed=failed, digests=digests)
        out["probe_s"] = statistics.median(sampler.samples)
        if tracer:
            out["restored"] = tracer.uninstall()
            out["layers"] = layer_report(tracer, len(walls),
                                         len(checks))
            if args.spans:
                tracer.dump(args.spans)
    out["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


def layer_report(tracer, passes, pass_checks):
    """Calls, self time and counts per span name over all passes and over
    set-up (the parser figures), and one exact-count digest per pass."""
    per_pass = [[] for _ in range(passes)]
    for (c, name), (calls, vals) in tracer.per_check_counts().items():
        per_pass[c // pass_checks].append([c % pass_checks, name, calls,
                                           vals])
    return {"passes": passes, "checks": tracer.summary(setup=False),
            "setup": tracer.summary(setup=True),
            "bisim_pairs": tracer.bisim_pairs(),
            "count_digests": [_digest(sorted(p)) for p in per_pass]}


if __name__ == "__main__":
    main()
