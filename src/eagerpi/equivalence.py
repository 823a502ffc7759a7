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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import lam as L
from .eager import step_all
from .names import Name, NameSupply
from .process import (Branch, Client, Close, Expect, Forward, Inaction,
                      Input, NDChoice, NoneAvail, Output, Par, Process,
                      Restrict, Select, Server, SomeAvail, Success, Wait,
                      canonicalize, free_names, par_all, par_parts,
                      scope_normalize, sum_parts, term_key)
from .translate import Translator


@dataclass(frozen=True)
class Prefix:
    kind: str       # out in sel bra close wait cli srv some none exp
    subject: Name
    extra: tuple = ()

    def describe(self) -> str:
        base = f"{self.kind} {self.subject.display}"
        if self.extra:
            return base + " " + ",".join(str(e) for e in self.extra)
        return base


def _prefix_of(p) -> Prefix:
    match p:
        case Output(x, _, _, _):
            return Prefix("out", x)
        case Input(x, _, _):
            return Prefix("in", x)
        case Select(x, lab, _):
            return Prefix("sel", x, (lab,))
        case Branch(x, brs):
            return Prefix("bra", x, tuple(k for k, _ in brs))
        case Close(x):
            return Prefix("close", x)
        case Wait(x, _):
            return Prefix("wait", x)
        case Client(x, _, _):
            return Prefix("cli", x)
        case Server(x, _, _):
            return Prefix("srv", x)
        case SomeAvail(x, _):
            return Prefix("some", x)
        case NoneAvail(x):
            return Prefix("none", x)
        case Expect(x, deps, _):
            return Prefix("exp", x, tuple(sorted(d.display for d in deps)))
    return None


def ready_prefixes(p: Process) -> frozenset:
    """All prefixes alpha such that p == N[alpha; P'] for an ND-context N."""
    cp = canonicalize(p)
    out = set()

    def scan(q):
        match q:
            case Par(l, r) | NDChoice(l, r):
                scan(l)
                scan(r)
            case Restrict(_, l, r):
                scan(l)
                scan(r)
            case Inaction() | Success() | Forward(_, _):
                pass
            case _:
                pre = _prefix_of(q)
                if pre is not None:
                    out.add(pre)

    scan(cp)
    return frozenset(out)


def prefix_compatible(a: Prefix, b: Prefix) -> bool:
    """Outputs on one subject match outputs on the same subject regardless
    of payload, likewise inputs; every other prefix only matches itself."""
    if a.kind == b.kind == "out":
        return a.subject == b.subject
    if a.kind == b.kind == "in":
        return a.subject == b.subject
    return a == b


def ready_signature(p: Process):
    """Ready set up to prefix compatibility and alpha-renaming of
    restricted subjects: free-subject prefixes keep their subject, bound
    ones are matched by kind and label data only."""
    cp = canonicalize(p)
    frees = free_names(cp)
    sig = set()
    for pre in ready_prefixes(cp):
        if pre.subject in frees:
            extra = pre.extra if pre.kind in ("sel", "bra") else ()
            sig.add(("free", pre.kind, pre.subject.display, extra))
        else:
            extra = pre.extra if pre.kind in ("sel", "bra") else ()
            sig.add(("bound", pre.kind, extra))
    return frozenset(sig)


def has_unguarded_success(p: Process) -> bool:
    cp = canonicalize(p)

    def scan(q):
        match q:
            case Success():
                return True
            case Par(l, r) | NDChoice(l, r) | Restrict(_, l, r):
                return scan(l) or scan(r)
            case _:
                return False

    return scan(cp)


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

@dataclass(eq=False)
class _Node:
    key: tuple
    process: Process
    succ: list
    expanded: bool = False
    has_steps: bool = False


def explore(p: Process, depth: int, max_states: int = 6000):
    """Canonical state graph to the given depth; returns (nodes, root key,
    truncated flag)."""
    cp = scope_normalize(p)
    root = term_key(cp)
    nodes = {root: _Node(root, cp, [])}
    frontier = [root]
    truncated = False
    for _ in range(depth):
        if not frontier:
            break
        nxt = []
        for key in frontier:
            node = nodes[key]
            if node.expanded:
                continue
            node.expanded = True
            for st in step_all(node.process):
                k = term_key(st.target)
                if k not in nodes:
                    nodes[k] = _Node(k, st.target, [])
                    nxt.append(k)
                node.succ.append((st.redex.rule, k))
            node.has_steps = bool(node.succ)
            if len(nodes) > max_states:
                truncated = True
                nxt = []
                break
        frontier = nxt
    for key in frontier:
        node = nodes[key]
        if not node.expanded and step_all(node.process):
            node.has_steps = True
            truncated = True
    return nodes, root, truncated


# ---------------------------------------------------------------------------
# Ready-prefix bisimilarity (eager)

@dataclass(eq=False)
class BisimResult:
    verdict: str               # bisimilar | distinguished | inconclusive
    witness: list = None

    @property
    def bisimilar(self):
        return self.verdict == "bisimilar"


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
    sigs_p = {k: ready_signature(n.process) for k, n in gp.items()}
    sigs_q = {k: ready_signature(n.process) for k, n in gq.items()}

    alive = {(a, b) for a in gp for b in gq if sigs_p[a] == sigs_q[b]}
    reason = {}
    for a in gp:
        for b in gq:
            if (a, b) not in alive:
                reason[(a, b)] = ("ready", a, b)

    # Eliminations are only sound against a defender whose successor list
    # is complete, i.e. an expanded node; attacking from an unexpanded node
    # is never attempted, which keeps `alive` an over-approximation and
    # makes every "distinguished" verdict valid even on truncated graphs.
    changed = True
    while changed:
        changed = False
        for pair in list(alive):
            a, b = pair
            na, nb = gp[a], gq[b]
            why = None
            if nb.expanded:
                for rule, a2 in na.succ:
                    if not any((a2, b2) in alive for _, b2 in nb.succ):
                        why = ("left", rule, a2, b)
                        break
            if why is None and na.expanded:
                for rule, b2 in nb.succ:
                    if not any((a2, b2) in alive for _, a2 in na.succ):
                        why = ("right", rule, b2, a)
                        break
            if why is not None:
                alive.discard(pair)
                reason[pair] = why
                changed = True

    if (rp, rq) in alive:
        if truncated:
            return BisimResult("inconclusive")
        return BisimResult("bisimilar")

    witness = _witness(rp, rq, gp, gq, sigs_p, sigs_q, alive, reason)
    return BisimResult("distinguished", witness)


def _witness(a, b, gp, gq, sigs_p, sigs_q, alive, reason, limit=64):
    from .printer import process_text
    steps = []
    for _ in range(limit):
        why = reason.get((a, b))
        if why is None or why[0] == "ready":
            only_p = sorted(map(str, sigs_p[a] - sigs_q[b]))
            only_q = sorted(map(str, sigs_q[b] - sigs_p[a]))
            steps.append({"kind": "ready-mismatch",
                          "left-only": only_p, "right-only": only_q})
            return steps
        side, rule, tgt, other = why
        if side == "left":
            steps.append({"kind": "move", "side": "left", "rule": rule,
                          "to": process_text(gp[tgt].process, canonical=True)})
            responses = [b2 for _, b2 in gq[other].succ]
            if not responses:
                steps.append({"kind": "no-response", "side": "right"})
                return steps
            a, b = tgt, responses[0]
        else:
            steps.append({"kind": "move", "side": "right", "rule": rule,
                          "to": process_text(gq[tgt].process, canonical=True)})
            responses = [a2 for _, a2 in gp[other].succ]
            if not responses:
                steps.append({"kind": "no-response", "side": "left"})
                return steps
            a, b = responses[0], tgt
    steps.append({"kind": "truncated"})
    return steps


# ---------------------------------------------------------------------------
# Success predicates

def succeeds_pi(p: Process, bound: int = 64, max_states: int = 6000):
    """(success reached, bound exhausted while undecided)."""
    cp = scope_normalize(p)
    seen = {term_key(cp)}
    frontier = [cp]
    for _ in range(bound + 1):
        for t in frontier:
            if has_unguarded_success(t):
                return True, False
        nxt = []
        for t in frontier:
            for st in step_all(t):
                k = term_key(st.target)
                if k not in seen:
                    seen.add(k)
                    nxt.append(st.target)
            if len(seen) > max_states:
                return False, True
        if not nxt:
            return False, False
        frontier = nxt
    return False, True


def succeeds_lambda(m, bound: int = 64):
    return L.succeeds(m, bound)


# ---------------------------------------------------------------------------
# Correspondence harnesses

def _translate_fresh(m, u_display="u"):
    tr = Translator(NameSupply(1))
    u = tr.supply.fresh(u_display)
    return scope_normalize(tr.term(m, u))


def _reach_closure(nodes, seeds):
    """The seeds and every node with a path into them: one breadth-first
    search over the reversed edges."""
    preds = {}
    for key, node in nodes.items():
        for _, k2 in node.succ:
            preds.setdefault(k2, []).append(key)
    hit = set(seeds)
    queue = list(hit)
    for key in queue:
        for k2 in preds.get(key, ()):
            if k2 not in hit:
                hit.add(k2)
                queue.append(k2)
    return hit


def check_loose_completeness(m, bound: int = 30, max_states: int = 6000):
    """For every reduction of the source term, search the eager graph of
    its translation for a process below the reduct's translation in the
    branch-count precongruence."""
    base = _translate_fresh(m)
    nodes, _, truncated = explore(base, bound, max_states)
    report = {"reducts": [], "ok": True, "exhausted": False}
    for tag, m2 in L.step_all(m):
        target = _translate_fresh(m2)
        witness = None
        for key, node in nodes.items():
            if nd_precongruence(target, node.process):
                witness = key
                break
        entry = {"rule": tag, "found": witness is not None,
                 "exhausted": witness is None and truncated}
        report["reducts"].append(entry)
        report["ok"] = report["ok"] and entry["found"]
        report["exhausted"] = report["exhausted"] or entry["exhausted"]
    return report


def check_loose_soundness(m, bound: int = 30, max_states: int = 6000):
    """For every reachable process of the translation, find a source
    reduct and a continuation of the process below that reduct's
    translation."""
    base = _translate_fresh(m)
    lam_terms, lam_trunc = L.reachable(m, bound)
    targets = [_translate_fresh(t) for t in lam_terms]
    nodes, _, truncated = explore(base, bound, max_states)
    good = set()
    for key, node in nodes.items():
        if any(nd_precongruence(t, node.process) for t in targets):
            good.add(key)
    reach_good = _reach_closure(nodes, good)
    unknown = {k for k, n in nodes.items() if not n.expanded and n.has_steps}
    reach_unknown = _reach_closure(nodes, unknown)
    failures = [k for k in nodes if k not in reach_good and k not in reach_unknown]
    pending = [k for k in nodes
               if k not in reach_good and k in reach_unknown]
    return {"states": len(nodes), "ok": not failures and not pending,
            "failures": len(failures),
            "exhausted": bool(pending) or truncated or lam_trunc}


def check_success_sensitivity(m, bound: int = 30, max_states: int = 6000):
    lam_s, lam_flag = succeeds_lambda(m, bound)
    pi_s, pi_flag = succeeds_pi(_translate_fresh(m), bound, max_states)
    return {"lambda": lam_s, "pi": pi_s, "agrees": lam_s == pi_s,
            "exhausted": lam_flag or pi_flag}
