"""Re-measure ROADMAP.md's ad-hoc baseline figures with the benchmark's
own instruments and say whether each is confirmed.

    python3 perfbench/roadmap_check.py

Takes about a minute: it runs the whole criterion-9 set, ex32 `M`
included, which the timed `correspond` workload leaves out.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tracer as tracing  # noqa: E402
import workloads as W  # noqa: E402
from eagerpi.equivalence import _translate_fresh, explore  # noqa: E402


def within(measured, claimed, tolerance=0.25):
    return abs(measured - claimed) <= tolerance * claimed


def main():
    ex32 = W.parse_lc(W._read("ex32.lc"))
    corr = W.parse_lc(W._read("corr.lc"))
    m = ex32.defs["M"][0]
    results = []

    t0 = time.perf_counter()
    nodes, _, truncated = explore(_translate_fresh(m), W.CORRESPOND_BOUND)
    dt = time.perf_counter() - t0
    edges = sum(len(n.succ) for n in nodes.values())
    results.append((f"explore(translate(M), 30) takes {dt:.2f} s "
                    f"({len(nodes)} states, {edges} edges, "
                    f"truncated={truncated})", "about 8.0 s, 213 states, "
                    "459 edges",
                    within(dt, 8.0) and (len(nodes), edges) == (213, 459)))

    terms = [("M", m)] + [(n, corr.defs[n][0]) for n in W.CORRESPOND_TERMS]
    t0 = time.perf_counter()
    for _, term in terms:
        W._correspond_check(term)()
    dt = time.perf_counter() - t0
    results.append((f"criterion 9 (M + {len(terms) - 1} terms, bound 30) "
                    f"takes {dt:.1f} s", "about 45 s", within(dt, 45.0)))

    # the calls per term do not depend on the term, so the cheap ones do
    tr = tracing.Tracer()
    tr.install()
    for i, (_, term) in enumerate(terms[1:]):
        tr.check_id = i
        W._correspond_check(term)()
    restored = tr.uninstall()
    per_term = {}
    explore_id = tracing.SPAN_NAMES.index("equivalence.explore")
    succeeds_id = tracing.SPAN_NAMES.index("equivalence.succeeds_pi")
    for i, nid in enumerate(tr.name):
        rec = per_term.setdefault(tr.check[i], [0, 0])
        if nid == explore_id:
            rec[0] += 1
        elif nid == succeeds_id:
            rec[1] += 1
    explores = sorted({tuple(v) for v in per_term.values()})
    results.append((f"per correspondence term: (explore calls, succeeds_pi "
                    f"calls) = {explores}", "3 explores per term",
                    explores == [(3, 0)]))

    for measured, claimed, ok in results:
        print(f"{'CONFIRMED' if ok else 'NOT CONFIRMED'}: ROADMAP says "
              f"{claimed}; measured: {measured}")
    print(f"wrappers restored: {restored}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
