"""Behavioral toolkit: ready prefixes, prefix compatibility, the
branch-count precongruence, ready-prefix bisimilarity for the eager
semantics, success predicates, and the translation-correspondence
harnesses.

Ready prefixes are the prefixes reachable through an ND-context, i.e.
occurring unguarded under parallels, restrictions and sums. Because
structural congruence includes alpha-renaming, a prefix whose subject is a
restricted name is ready at every renaming of that subject; comparisons
between two processes therefore match restricted-subject prefixes by kind
(and label data) rather than by name, while free subjects must agree
exactly.

The precongruence `P >=+ Q` (P has at least as many branches as Q) is
decided on canonical forms by its four rules: reflexivity, projection of a
sum onto a sub-sum, and congruence under parallel and restriction.

Bisimilarity explores the two step graphs through one table of steps and
one of ready signatures, both keyed by state, so a state the graphs share
is stepped and signed once. Complete graphs are decided by partition
refinement over their union; a cut graph keeps the fixpoint over pairs,
because an unexpanded state matches any state with its signature, which
no partition can express. That fixpoint also gives every witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from . import graph
from . import lam as L
from .eager import exploration, step_all
from .names import Name
from .process import (PREFIXED, NDChoice, Par, Process, Restrict, Success,
                      canonicalize, free_names, par_all, par_parts,
                      scope_normalize, sum_parts, term_key)
from .translate import translate


@dataclass(frozen=True)
class Prefix:
    kind: str       # out in sel bra close wait cli srv some none exp
    subject: Name
    extra: tuple = ()


_KINDS = dict(zip(PREFIXED,
                  "out in sel bra close wait cli srv some none exp".split()))


def _prefix_of(p) -> Prefix:
    kind = _KINDS.get(type(p))
    if kind == "sel":
        return Prefix(kind, p.x, (p.label,))
    if kind == "bra":
        return Prefix(kind, p.x, tuple(k for k, _ in p.branches))
    if kind == "exp":
        return Prefix(kind, p.x, tuple(sorted(d.display for d in p.deps)))
    return Prefix(kind, p.x) if kind else None


def _unguarded(p: Process):
    """The parts of p under parallels, sums and restrictions only, left
    to right: each is a prefixed process, a forwarder, inaction or OK."""
    stack = [p]
    while stack:
        q = stack.pop()
        if isinstance(q, (Par, NDChoice, Restrict)):
            stack += (q.right, q.left)
        else:
            yield q


def _ready(cp: Process):
    """The ready prefixes of the canonical form cp, with repeats."""
    return filter(None, map(_prefix_of, _unguarded(cp)))


def ready_prefixes(p: Process) -> frozenset:
    """All prefixes alpha such that p == N[alpha; P'] for an ND-context N."""
    return frozenset(_ready(canonicalize(p)))


def prefix_compatible(a: Prefix, b: Prefix) -> bool:
    """Outputs on one subject match outputs on the same subject regardless
    of payload, likewise inputs; every other prefix only matches itself."""
    if a.kind == b.kind and a.kind in ("out", "in"):
        return a.subject == b.subject
    return a == b


def ready_signature(p: Process):
    """Ready set up to prefix compatibility and alpha-renaming of
    restricted subjects: free-subject prefixes keep their subject, bound
    ones are matched by kind and label data only."""
    cp = canonicalize(p)
    frees = free_names(cp)
    sig = set()
    for pre in _ready(cp):
        extra = pre.extra if pre.kind in ("sel", "bra") else ()
        if pre.subject in frees:
            sig.add(("free", pre.kind, pre.subject.display, extra))
        else:
            sig.add(("bound", pre.kind, extra))
    return frozenset(sig)


def has_unguarded_success(p: Process) -> bool:
    return any(isinstance(q, Success) for q in _unguarded(canonicalize(p)))


# ---------------------------------------------------------------------------
# Branch-count precongruence

def nd_precongruence(p: Process, q: Process) -> bool:
    """P >=+ Q: derivable from reflexivity, sum projection, and congruence
    under parallel and restriction, decided modulo canonical forms.

    A canonical form's key holds its children's keys in the order of its
    children (sum and parallel parts, the two sides of a restriction), so
    the comparison reads every key from the two states' keys and re-keys
    nothing; states that are already canonical cost nothing to prepare."""
    cp, cq = canonicalize(p), canonicalize(q)
    return _prec(cp, term_key(cp), cq, term_key(cq))


def _prec(p, kp, q, kq) -> bool:
    if kp == kq:
        return True
    if isinstance(p, NDChoice):
        if isinstance(q, NDChoice):
            # projection reaches exactly the sub-sums of p
            return set(kq[1]) <= set(kp[1])
        return any(_prec(b, kb, q, kq) for b, kb in zip(sum_parts(p), kp[1]))
    if isinstance(p, Par) and isinstance(q, Par):
        ps = list(zip(par_parts(p), kp[1]))
        qs = list(zip(par_parts(q), kq[1]))
        return len(ps) <= len(qs) and _match_par(ps, qs)
    if isinstance(p, Restrict) and isinstance(q, Restrict):
        _, kpl, kpr = kp
        _, kql, kqr = kq
        return ((_prec(p.left, kpl, q.left, kql)
                 and _prec(p.right, kpr, q.right, kqr))
                or (_prec(p.left, kpl, q.right, kqr)
                    and _prec(p.right, kpr, q.left, kql)))
    return False


def _match_par(ps, qs) -> bool:
    """Partition the flattened right components among the left ones: a sum
    on the left may project onto a parallel of several right components,
    every other component covers exactly one. Components are (process,
    key) pairs."""
    if not ps:
        return not qs
    (p0, k0), rest = ps[0], ps[1:]
    if not isinstance(p0, NDChoice):
        for i, (q0, kq0) in enumerate(qs):
            if _prec(p0, k0, q0, kq0) and \
                    _match_par(rest, qs[:i] + qs[i + 1:]):
                return True
        return False
    n = len(qs)
    max_take = n - len(rest)
    for size in range(1, max_take + 1):
        for subset in combinations(range(n), size):
            chosen = [qs[i] for i in subset]
            remaining = [qs[i] for i in range(n) if i not in subset]
            if len(chosen) == 1:
                target, kt = chosen[0]
            else:
                target = par_all([c for c, _ in chosen])
                kt = ("par", tuple(k for _, k in chosen))
            if _prec(p0, k0, target, kt) and _match_par(rest, remaining):
                return True
    return False


# ---------------------------------------------------------------------------
# State-graph exploration

def _steps(p: Process):
    return [(st.redex.rule, st.target) for st in step_all(p)]


@exploration()
def _graph(p: Process, depth: int, max_states: int, goal=None, step=_steps):
    """The eager reduction graph of p (see `graph.explore`)."""
    return graph.explore(scope_normalize(p), step, term_key, depth,
                         max_states, goal)


def explore(p: Process, depth: int, max_states: int = 6000, step=_steps):
    """Canonical state graph to the given depth; returns (nodes by key,
    root key, truncated flag). `step` gives a state's [(rule, target)]."""
    g = _graph(p, depth, max_states, step=step)
    return g.nodes, g.root, g.truncated


def _cause(nodes, root, truncated, max_states) -> str:
    """The bound that cut a graph from `explore`: the state cap stops a
    search just after an expansion, and the root is expanded first."""
    capped = len(nodes) > max_states and nodes[root].expanded
    return "states" if capped else "depth" if truncated else "none"


# ---------------------------------------------------------------------------
# Ready-prefix bisimilarity (eager)

@dataclass(eq=False)
class BisimResult:
    verdict: str               # bisimilar | distinguished | inconclusive
    witness: list = None
    cause: str = "none"        # none | depth | states; p's graph first

    @property
    def bisimilar(self):
        return self.verdict == "bisimilar"


@exploration()
def bisim_eager(p: Process, q: Process, depth: int = 12,
                max_states: int = 6000) -> BisimResult:
    """Ready-prefix bisimulation over the eager step graphs of p and q.

    Both graphs are explored through one table of steps by state key and
    signed through one table of ready signatures, so each state is stepped
    and signed once. Complete graphs are decided by partition refinement
    over their union. In a cut graph an unexpanded state matches any state
    with its signature, a relation that is not transitive, so no partition
    expresses it: the greatest fixed point over the signature-equal pairs
    reachable from the roots' pair decides there, and finds the witness
    when the roots' blocks differ.
    """
    table, seen = {}, {}   # steps by key; one target object per key

    def step(s):
        k = term_key(s)
        if k not in table:
            table[k] = [(rule, seen.setdefault(term_key(t), t))
                        for rule, t in _steps(s)]
        return table[k]

    gp, rp, tp = explore(p, depth, max_states, step)
    gq, rq, tq = explore(q, depth, max_states, step)
    cause = _cause(gp, rp, tp, max_states) if tp else \
        _cause(gq, rq, tq, max_states)
    union = {**gq, **gp}
    sigs = {k: ready_signature(n.state) for k, n in union.items()}
    if cause == "none":
        block = _refine(union, sigs)
        if block[rp] == block[rq]:
            return BisimResult("bisimilar")

    alive = _pairs(rp, rq, gp, gq, sigs)
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
        return BisimResult("bisimilar" if cause == "none" else "inconclusive",
                           cause=cause)

    witness = _witness(rp, rq, gp, gq, sigs, reason)
    return BisimResult("distinguished", witness, cause)


def _pairs(rp, rq, gp, gq, sigs):
    """The signature-equal pairs reachable from (rp, rq) through pairs of
    successors: whether a pair is eliminated depends only on the pairs of
    its successors, so the fixpoint needs no other pair."""
    alive = {(rp, rq)} if sigs[rp] == sigs[rq] else set()
    todo = list(alive)
    while todo:
        a, b = todo.pop()
        for _, a2 in gp[a].successors:
            for _, b2 in gq[b].successors:
                if sigs[a2] == sigs[b2] and (a2, b2) not in alive:
                    alive.add((a2, b2))
                    todo.append((a2, b2))
    return alive


def _refine(nodes, sigs):
    """Each state's block number in the coarsest partition of the complete
    graph `nodes` that refines the ready signatures and in which the
    states of a block reach one set of blocks in a step, labels ignored
    as in the pair fixpoint. Blocks split until their number is stable."""
    count, ids = 0, {}
    block = {k: ids.setdefault(sigs[k], len(ids)) for k in nodes}
    while len(ids) > count:
        count, ids = len(ids), {}
        block = {k: ids.setdefault((block[k], frozenset(
            block[k2] for _, k2 in n.successors)), len(ids))
            for k, n in nodes.items()}
    return block


def _witness(a, b, gp, gq, sigs, reason, limit=64):
    from .printer import process_text
    steps = []
    for _ in range(limit):
        why = reason.get((a, b))
        if why is None:   # the ready signatures differ
            only_p = sorted(map(str, sigs[a] - sigs[b]))
            only_q = sorted(map(str, sigs[b] - sigs[a]))
            steps.append({"kind": "ready-mismatch",
                          "left-only": only_p, "right-only": only_q})
            return steps
        side, rule, tgt, other = why
        left = side == "left"
        mover, defender = (gp, gq) if left else (gq, gp)
        steps.append({"kind": "move", "side": side, "rule": rule,
                      "to": process_text(mover[tgt].state, canonical=True)})
        responses = [k for _, k in defender[other].successors]
        if not responses:
            steps.append({"kind": "no-response",
                          "side": "right" if left else "left"})
            return steps
        a, b = (tgt, responses[0]) if left else (responses[0], tgt)
    steps.append({"kind": "truncated"})
    return steps


# ---------------------------------------------------------------------------
# Success predicates

def succeeds_pi(p: Process, bound: int = 64, max_states: int = 6000):
    """(success reached, bound exhausted while undecided)."""
    g = _graph(p, bound, max_states, has_unguarded_success)
    return g.goal is not None, g.truncated


# ---------------------------------------------------------------------------
# Correspondence harnesses

def _translate_fresh(m):
    """The scope-normalized translation of m with its linear bags in key
    order (`lam.key_ordered`), so that terms with equal `lam_key`, which
    the lambda graph keeps one of, translate to processes equal up to
    canonical forms."""
    return scope_normalize(translate(L.key_ordered(m))[0])


def _reach_closure(nodes, seeds):
    """The seeds and every node with a path into them: one breadth-first
    search over the reversed edges."""
    preds = {}
    for key, node in nodes.items():
        for _, k2 in node.successors:
            preds.setdefault(k2, []).append(key)
    hit = set(seeds)
    queue = list(hit)
    for key in queue:
        for k2 in preds.get(key, ()):
            if k2 not in hit:
                hit.add(k2)
                queue.append(k2)
    return hit


@lru_cache(maxsize=1)
def _correspondence(m, bound: int, max_states: int):
    """(nodes, truncated) of the eager graph of m's translation,
    (terms, truncated) of m's reduction graph, and `_translate_fresh`
    shared by `lam_key` (the terms of one run share their free variables),
    which the checks below share, and must not change. They run back to
    back on one (term, bound, cap); terms hash by identity and the one
    entry keeps its term alive, so no new term matches it."""
    translations = {}

    def translate(t):
        key = L.lam_key(t)
        if key not in translations:
            translations[key] = _translate_fresh(t)
        return translations[key]

    nodes, _, truncated = explore(translate(m), bound, max_states)
    lam_terms, lam_trunc = L.reachable(m, bound, max_states)
    return nodes, truncated, lam_terms, lam_trunc, translate


def check_loose_completeness(m, bound: int = 30, max_states: int = 6000):
    """For every reduction of the source term, search the eager graph of
    its translation for a process below the reduct's translation in the
    branch-count precongruence."""
    nodes, truncated, _, _, translate = _correspondence(m, bound, max_states)
    report = {"reducts": [], "ok": True, "exhausted": False}
    for tag, m2 in L.step_all(m):
        target = translate(m2)
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
    nodes, truncated, lam_terms, lam_trunc, translate = \
        _correspondence(m, bound, max_states)
    targets = [translate(t) for t in lam_terms]
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
    """Whether the term and its translation agree on reaching success. A
    side that found none in a cut graph is undecided, and so is the check.
    The graphs hold any success that `lam.succeeds` and `succeeds_pi`
    find, since those discover states in the same order."""
    nodes, truncated, lam_terms, lam_trunc, _ = \
        _correspondence(m, bound, max_states)
    lam_s = any(isinstance(L.head(t), L.SuccessT) for t in lam_terms)
    pi_s = any(has_unguarded_success(n.state) for n in nodes.values())
    exhausted = (not lam_s and lam_trunc) or (not pi_s and truncated)
    return {"lambda": lam_s, "pi": pi_s,
            "agrees": lam_s == pi_s and not exhausted,
            "exhausted": exhausted}
