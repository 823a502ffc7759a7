"""Reference ready-prefix bisimilarity for the differential test.

These are `equivalence.bisim_eager` and its `_witness` as they were before
the two sides shared one step table and complete graphs were decided by
partition refinement, kept verbatim but for one change: each side is
explored on its own, each state signed once per side, and every verdict
comes from the greatest fixed point over all signature-equal pairs. The
one change is that the fixed point eliminates pairs in synchronous
rounds, as the library does, each round against the pairs alive after
the round before; eliminating them in the order of the set made the
witness depend on the hash seed. `test_bisim_oracle.py` checks that the
library gives the same verdict and witness on every case.
"""

from __future__ import annotations

from eagerpi.equivalence import BisimResult, explore, ready_signature
from eagerpi.process import Process


def bisim_eager(p: Process, q: Process, depth: int = 12,
                max_states: int = 6000) -> BisimResult:
    """On-the-fly ready-prefix bisimulation over the eager step graphs.

    Finite graphs get the exact greatest fixed point; when exploration is
    truncated by the depth or state bound and no distinction was found the
    verdict is inconclusive.
    """
    gp, rp, tp = explore(p, depth, max_states)
    gq, rq, tq = explore(q, depth, max_states)
    truncated = tp or tq
    sigs_p = {k: ready_signature(n.state) for k, n in gp.items()}
    sigs_q = {k: ready_signature(n.state) for k, n in gq.items()}

    alive = {(a, b) for a in gp for b in gq if sigs_p[a] == sigs_q[b]}
    reason = {}   # eliminated pair -> the move that eliminated it

    # Eliminations are only sound against a defender whose successor list
    # is complete, i.e. an expanded node; attacking from an unexpanded node
    # is never attempted, which keeps `alive` an over-approximation and
    # makes every "distinguished" verdict valid even on truncated graphs.
    # Each round tests every alive pair against the pairs alive after the
    # round before, so the move that eliminates a pair, and the witness,
    # do not depend on the order of the set.
    while True:
        out = {}
        for pair in alive:
            a, b = pair
            na, nb = gp[a], gq[b]
            why = None
            if nb.expanded:
                for rule, a2 in na.successors:
                    if not any((a2, b2) in alive for _, b2 in nb.successors):
                        why = ("left", rule, a2, b)
                        break
            if why is None and na.expanded:
                for rule, b2 in nb.successors:
                    if not any((a2, b2) in alive for _, a2 in na.successors):
                        why = ("right", rule, b2, a)
                        break
            if why is not None:
                out[pair] = why
        if not out:
            break
        alive.difference_update(out)
        reason.update(out)

    if (rp, rq) in alive:
        if truncated:
            return BisimResult("inconclusive")
        return BisimResult("bisimilar")

    witness = _witness(rp, rq, gp, gq, sigs_p, sigs_q, alive, reason)
    return BisimResult("distinguished", witness)


def _witness(a, b, gp, gq, sigs_p, sigs_q, alive, reason, limit=64):
    from eagerpi.printer import process_text
    steps = []
    for _ in range(limit):
        why = reason.get((a, b))
        if why is None:   # the ready signatures differ
            only_p = sorted(map(str, sigs_p[a] - sigs_q[b]))
            only_q = sorted(map(str, sigs_q[b] - sigs_p[a]))
            steps.append({"kind": "ready-mismatch",
                          "left-only": only_p, "right-only": only_q})
            return steps
        side, rule, tgt, other = why
        if side == "left":
            steps.append({"kind": "move", "side": "left", "rule": rule,
                          "to": process_text(gp[tgt].state, canonical=True)})
            responses = [b2 for _, b2 in gq[other].successors]
            if not responses:
                steps.append({"kind": "no-response", "side": "right"})
                return steps
            a, b = tgt, responses[0]
        else:
            steps.append({"kind": "move", "side": "right", "rule": rule,
                          "to": process_text(gq[tgt].state, canonical=True)})
            responses = [a2 for _, a2 in gp[other].successors]
            if not responses:
                steps.append({"kind": "no-response", "side": "left"})
                return steps
            a, b = responses[0], tgt
    steps.append({"kind": "truncated"})
    return steps
