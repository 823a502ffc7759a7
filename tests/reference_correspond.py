"""Reference correspondence checks for the differential test.

These are `check_loose_completeness`, `check_loose_soundness` and
`check_success_sensitivity` as `eagerpi.equivalence` had them before the
three checks shared one graph of each calculus: each builds its own
translation and graphs, and success sensitivity runs the goal searches
`succeeds_pi` and `lam.succeeds`. They are kept verbatim.
`test_correspond_oracle.py` checks that the shared-graph checks give the
same reports.
"""

from __future__ import annotations

from eagerpi import lam as L
from eagerpi.equivalence import (_reach_closure, _translate_fresh, explore,
                                 nd_precongruence, succeeds_pi)


def check_loose_completeness(m, bound: int = 30, max_states: int = 6000):
    """For every reduction of the source term, search the eager graph of
    its translation for a process below the reduct's translation in the
    branch-count precongruence."""
    base = _translate_fresh(m)
    nodes, _, truncated = explore(base, bound, max_states)
    report = {"reducts": [], "ok": True, "exhausted": False}
    for tag, m2 in L.step_all(m):
        target = _translate_fresh(m2)
        found = any(nd_precongruence(target, node.state)
                    for node in nodes.values())
        entry = {"rule": tag, "found": found,
                 "exhausted": not found and truncated}
        report["reducts"].append(entry)
        report["ok"] = report["ok"] and entry["found"]
        report["exhausted"] = report["exhausted"] or entry["exhausted"]
    return report


def check_loose_soundness(m, bound: int = 30, max_states: int = 6000):
    """For every reachable process of the translation, find a source
    reduct and a continuation of the process below that reduct's
    translation."""
    base = _translate_fresh(m)
    lam_terms, lam_trunc = L.reachable(m, bound, max_states)
    targets = [_translate_fresh(t) for t in lam_terms]
    nodes, _, truncated = explore(base, bound, max_states)
    reach_good = _reach_closure(nodes, {
        k for k, n in nodes.items()
        if any(nd_precongruence(t, n.state) for t in targets)})
    # a node is pending, not failed, when a bound may hide its match: it
    # reaches a node cut off before all its steps were known, or the
    # lambda graph was cut and may miss the reduct it matches
    unknown = set(nodes) if lam_trunc else \
        {k for k, n in nodes.items() if not n.expanded}
    reach_unknown = _reach_closure(nodes, unknown)
    failures = set(nodes) - reach_good - reach_unknown
    pending = set(nodes) - reach_good - failures
    return {"states": len(nodes), "ok": not failures and not pending,
            "failures": len(failures),
            "exhausted": bool(pending) or truncated or lam_trunc}


def check_success_sensitivity(m, bound: int = 30, max_states: int = 6000):
    lam_s, lam_flag = L.succeeds(m, bound, max_states)
    pi_s, pi_flag = succeeds_pi(_translate_fresh(m), bound, max_states)
    return {"lambda": lam_s, "pi": pi_s, "agrees": lam_s == pi_s,
            "exhausted": lam_flag or pi_flag}
