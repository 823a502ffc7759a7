"""eagerpi benchmark: time to a correct verdict on the CLI checks.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Workloads: correspond, spi-corpus, bisim and lambda (see workloads.py),
or `all` for each in turn. Run it from the repository root.
Each workload runs in fresh `sys.executable` children, one at a time, with
an explicit PYTHONHASHSEED, so set-up time and peak memory belong to that
workload alone. This process only starts the children and reads their JSON.

--trace 0 gives the end-to-end metrics: the median set-up time over
several fresh interpreters, then whole passes over the workload's checks
for S seconds (at least MIN_PASSES passes). Every time is scaled to the
reference host speed with the probe of speed.py; the wall figures and the
host's speed are printed beside them. --trace 1 runs the passes
untraced, then traced with every layer wrapped (tracer.py), then one more
traced pass under a second PYTHONHASHSEED; it reports the per-layer
breakdown of one pass, the tracing overhead, and fails if the exact
counts differ between the two hash seeds.

Every check's verdict is compared with known_answers.json. The last line
of output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402

WORKLOADS = ("correspond", "spi-corpus", "bisim", "lambda")
SETUP_RUNS = 5      # set-up-only interpreters
MIN_PASSES = 3      # fixes each workload's tail percentile (see tail_rank)
CHILD_TIMEOUT = 170


class BenchError(Exception):
    pass


def child(workload, seed, mode, hash_seed, extra=()):
    """Run one workload interpreter; return (its JSON, spawn time)."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src")]
                   + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, *map(str, extra)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode}: no result in "
                         f"{CHILD_TIMEOUT} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def tail_rank(pass_checks):
    """The tail percentile of a workload: the highest one-decimal
    percentile with at least ten samples beyond it at MIN_PASSES passes.
    It depends only on the size of a pass, so runs with more passes report
    the same percentile."""
    n = MIN_PASSES * pass_checks
    return math.floor(1000 * (1 - 10 / n)) / 10 if n > 10 else 50.0


def nearest_rank(sorted_values, pct):
    i = max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)
    return sorted_values[i]


def hash_seed(seed, offset=0):
    return (seed + offset) % 2**32


# ---------------------------------------------------------------------------
# end-to-end run

def end_to_end(workload, seed, seconds):
    hs = hash_seed(seed)
    setups, setup_walls = [], []
    for _ in range(SETUP_RUNS):
        before = speed.probe_median()
        out, spawned = child(workload, seed, "setup", hs)
        wall = out["ready"] - spawned
        probe_s = (before + speed.probe_median()) / 2
        setup_walls.append(wall)
        setups.append(wall * speed.REFERENCE_S / probe_s)
    out, _ = child(workload, seed, "run", hs,
                   ["--seconds", seconds, "--min-passes", MIN_PASSES])

    lat = sorted(out["scaled"])
    walls = sorted(out["latencies"])
    pct = tail_rank(len(out["ids"]))
    attempted = len(lat)
    failed = out["failed"]
    stable = len(set(out["digests"])) == 1
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "checks_per_s": (attempted / sum(lat), "1/s"),
        "check_ms_p50": (1000 * statistics.median(lat), "ms"),
        "check_ms_tail": (1000 * nearest_rank(lat, pct), "ms"),
        "peak_rss_mb": (out["peak_rss_mb"], "MiB"),
    }
    lines = [f"workload {workload}: seed {seed}, PYTHONHASHSEED {hs}, "
             f"{len(out['walls'])} passes of {len(out['ids'])} checks, "
             f"inputs {out['inputs_digest']}"]
    lines += [f"  {name} {value:.6g} {unit}"
              for name, (value, unit) in metrics.items()]
    lines.append(f"  times above are at reference speed; host speed "
                 f"{speed.REFERENCE_S / out['probe_s']:.3f} of it (probe "
                 f"median {1000 * out['probe_s']:.4g} ms); wall figures: "
                 f"setup_s {statistics.median(setup_walls):.6g}, "
                 f"checks_per_s {attempted / sum(walls):.6g}, "
                 f"check_ms_p50 {1000 * statistics.median(walls):.6g}, "
                 f"check_ms_tail {1000 * nearest_rank(walls, pct):.6g}")
    lines.append(f"  check_ms_tail is p{pct} of {attempted} checks "
                 f"({attempted - math.ceil(pct / 100 * attempted)} beyond)")
    lines.append(f"  failed_share {len(failed) / attempted:.6g} ratio "
                 f"({len(failed)}/{attempted})")
    lines += [f"  FAILED {f['id']}: got {f['verdict']}, "
              f"expected {f['expected']}" for f in failed[:20]]
    lines.append(f"  exact-count digest {out['digests'][0]} "
                 f"({'same' if stable else 'DIFFERS'} in every pass)")
    return {"correct": not failed and stable, "attempted": attempted,
            "failed": len(failed), "metrics": metrics, "lines": lines}


# ---------------------------------------------------------------------------
# traced run

LAYER_STATS = {
    "process.scope_normalize": ("calls", "self_s"),
    "process.canonicalize": ("calls", "self_s"),
    "process.term_key": ("calls", "self_s"),
    "process.struct_congruent": ("calls", "self_s"),
    "process.scope_rewrites": ("calls", "self_s"),
    "contexts.decompositions": ("calls", "self_s"),
    "eager.step_all": ("calls", "self_s", "targets"),
    "eager.trace": ("calls", "self_s", "nodes"),
    "equivalence.explore": ("calls", "self_s", "states", "edges",
                            "truncated", "new_ratio"),
    "equivalence.nd_precongruence": ("calls", "self_s", "hit_ratio"),
    "equivalence.succeeds_pi": ("calls", "self_s"),
    "equivalence.bisim_eager": ("calls", "self_s", "pairs"),
    "equivalence.ready_signature": ("calls", "self_s"),
    "translate.translate": ("calls", "self_s"),
    "typecheck.typecheck": ("calls", "self_s"),
    "lam.reachable": ("calls", "self_s", "states"),
    "lam.succeeds": ("calls", "self_s"),
    "lam.step_all": ("calls", "self_s"),
    "lam.expansions": ("calls", "self_s"),
    "lamtypes.check_wf": ("calls", "self_s"),
    "lamtypes.check_wt": ("calls", "self_s"),
    "parser.parse_spi": ("self_s",),
    "parser.parse_lc": ("self_s",),
}
UNITS = {"calls": "count", "self_s": "s", "targets": "count",
         "nodes": "count", "states": "count", "edges": "count",
         "truncated": "count", "pairs": "count", "new_ratio": "ratio",
         "hit_ratio": "ratio"}


def layer_metrics(layers):
    """Per-layer metrics of one pass (parser: of one set-up)."""
    passes = layers["passes"]
    out = {}
    for span, stats in LAYER_STATS.items():
        setup = span.startswith("parser.")
        rec = layers["setup" if setup else "checks"][span]
        per = 1 if setup else passes
        vals = rec["values"] or [0, 0, 0]
        derived = {"calls": rec["calls"], "self_s": rec["self_s"],
                   "targets": vals[0], "nodes": vals[0], "states": vals[0],
                   "edges": vals[1] if len(vals) > 1 else 0,
                   "truncated": vals[2] if len(vals) > 2 else 0,
                   "pairs": layers["bisim_pairs"]}
        for stat in stats:
            if stat == "new_ratio":   # new states per step target keyed
                value = ((vals[0] - rec["calls"]) / vals[1]) if vals[1] \
                    else 0.0
            elif stat == "hit_ratio":
                value = vals[0] / rec["calls"] if rec["calls"] else 0.0
            else:
                value = derived[stat] / per
            out[f"{span}.{stat}"] = (value, UNITS[stat])
    return out


# each workload's stated reason, as its trace should show it
def _calls(m, *prefixes):
    return sum(v for k, (v, _) in m.items()
               if k.endswith(".calls") and k.startswith(prefixes))


REASONS = {
    "correspond": ("process+contexts+eager self time is over half a pass",
                   lambda m: m["perfbench.share.process_contexts_eager"][0]
                   > 0.5),
    "spi-corpus": ("typecheck, eager.trace and struct_congruent all do work",
                   lambda m: all(m[f"{n}.calls"][0] > 0 for n in (
                       "typecheck.typecheck", "eager.trace",
                       "process.struct_congruent"))),
    "bisim": ("the bisim_eager fixpoint (its self time) is over a quarter "
              "of a pass",
              lambda m: m["perfbench.share.bisim_eager"][0] > 0.25),
    "lambda": ("no process, contexts or eager calls",
               lambda m: not _calls(m, "process.", "contexts.", "eager.")),
}


def traced(workload, seed, seconds):
    hs, hs2 = hash_seed(seed), hash_seed(seed, 1)
    plain, _ = child(workload, seed, "run", hs,
                     ["--seconds", seconds / 3, "--min-passes", 1])
    passes = len(plain["walls"])
    spans = ROOT / ".perfbench_out" / f"spans-{workload}-{seed}.jsonl"
    spans.parent.mkdir(exist_ok=True)
    first, _ = child(workload, seed, "trace", hs,
                     ["--passes", passes, "--spans", spans])
    second, _ = child(workload, seed, "trace", hs2, ["--passes", 1])

    layers = first["layers"]
    metrics = layer_metrics(layers)
    wall = sum(first["walls"]) / passes
    overhead = sum(first["scaled"]) / sum(plain["scaled"])
    checks = layers["checks"]

    pce = sum(rec["self_s"] for name, rec in checks.items()
              if name.startswith(("process.", "contexts.", "eager."))) \
        / passes / wall
    fixpoint = checks["equivalence.bisim_eager"]["self_s"] / passes / wall
    metrics["perfbench.trace.overhead"] = (overhead, "ratio")
    metrics["perfbench.share.process_contexts_eager"] = (pce, "ratio")
    metrics["perfbench.share.bisim_eager"] = (fixpoint, "ratio")

    digests = {d for r in (plain, first, second) for d in r["digests"]}
    counts = set(layers["count_digests"]) \
        | set(second["layers"]["count_digests"])
    failed = first["failed"] + plain["failed"] + second["failed"]
    correct = (not failed and first["restored"] and second["restored"]
               and len(digests) == 1 and len(counts) == 1)
    reason, holds = REASONS[workload]
    lines = [f"workload {workload} (traced): seed {seed}, {passes} passes, "
             f"PYTHONHASHSEED {hs} and {hs2}, spans in {spans.name}",
             f"  tracing overhead {overhead:.3f}x (check time per pass at "
             f"reference speed, traced {sum(first['scaled']) / passes:.3f} "
             f"s against untraced {sum(plain['scaled']) / passes:.3f} s)",
             f"  reason: {reason}: "
             f"{'confirmed' if holds(metrics) else 'NOT CONFIRMED'}",
             f"  wrappers restored: {first['restored'] and second['restored']}",
             f"  exact counts across both hash seeds: "
             f"{'same' if len(counts) == 1 else 'DIFFER'} "
             f"({sorted(counts)[0]}); verdict counts "
             f"{'same' if len(digests) == 1 else 'DIFFER'}"]
    if checks["equivalence.bisim_eager"]["calls"]:
        lines.append(f"  bisim_eager self time (fixpoint + witness) is "
                     f"{fixpoint:.1%} of a pass")
    lines += [f"  {name} {value:.6g} {unit}"
              for name, (value, unit) in metrics.items()]
    lines += [f"  FAILED {f['id']}: got {f['verdict']}, "
              f"expected {f['expected']}" for f in failed[:20]]
    attempted = len(first["latencies"])
    return {"correct": correct, "attempted": attempted,
            "failed": len(first["failed"]), "metrics": metrics,
            "lines": lines}


# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in ("src/eagerpi/__init__.py", "corpus/corr.lc",
                           "corpus/generated.spi")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not an eagerpi checkout (missing "
              f"{', '.join(missing)})", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    run = traced if args.trace else end_to_end
    results = {}
    try:
        for name in names:
            results[name] = run(name, args.seed, args.seconds)
            print("\n".join(results[name]["lines"]), flush=True)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    def fmt(metrics, prefix=""):
        return {prefix + k: {"value": v, "unit": u}
                for k, (v, u) in metrics.items()}

    if len(names) == 1:
        metrics = fmt(results[names[0]]["metrics"])
    else:
        metrics = {}
        for name in names:
            metrics.update(fmt(results[name]["metrics"], name + "."))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
