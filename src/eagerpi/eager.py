"""The eager reduction semantics: exhaustive one-step reduction and traces.

Each synchronization rule matches a cut `new x (L | R)` whose two sides
decompose through ND-contexts into prefixed processes on x. The target is
built with the committed contexts, which discards the sum branches not
involved in the step; reductions wholly inside one branch of a sum keep
the other branches (congruence rule for sums).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from .contexts import Hole, commit, decompositions, plug
from .names import Name
from .process import (Branch, Client, Close, Expect, Forward, Inaction, Input,
                      NDChoice, NoneAvail, Output, Par, Process, Restrict,
                      Select, Server, SomeAvail, Wait, branch_map,
                      canonicalize, freshen_binders, par_all, par_parts,
                      scope_normalize, substitute, sum_all, sum_parts,
                      term_key)


@dataclass(eq=False)
class Redex:
    rule: str          # id, close, comm, sel:<label>, repl, some, none
    cut: Name
    left: tuple = None   # (NDContext, prefixed subprocess)
    right: tuple = None  # the partner decomposition; whole side for [Id]


@dataclass(eq=False)
class ReductionStep:
    source: Process
    redex: Redex
    target: Process


def _cut_steps(x: Name, left: Process, right: Process):
    """Axiom instances for the cut `new x (left | right)`."""
    steps = []
    dl = decompositions(left)
    dr = decompositions(right)
    for here, there, dh, dt in ((left, right, dl, dr), (right, left, dr, dl)):
        for n, a in dh:
            # [Id]: the forwarder dissolves the cut and renames the partner
            if isinstance(a, Forward) and x in (a.x, a.y) and a.x != a.y:
                other = a.y if a.x == x else a.x
                tgt = plug(commit(n), substitute(there, other, x))
                steps.append((Redex("id", x, (n, a), (Hole(), there)), tgt))
            for m, b in dt:
                pair = _axiom(x, n, a, m, b)
                if pair is not None:
                    steps.append(pair)
    return steps


def _axiom(x, n, a, m, b):
    """Match one axiom of the eager semantics with `a` under context n and
    `b` under m; returns the redex and the literal right-hand side."""
    match a, b:
        case Close(xa), Wait(xb, q) if xa == x and xb == x:
            tgt = Par(plug(commit(n), Inaction()), plug(commit(m), q))
            return Redex("close", x, (n, a), (m, b)), tgt
        case Output(xa, y, pl, cont), Input(xb, z, r) if xa == x and xb == x:
            recv = plug(commit(m), substitute(r, y, z))
            tgt = plug(commit(n), Restrict(x, cont, Restrict(y, pl, recv)))
            return Redex("comm", x, (n, a), (m, b)), tgt
        case Select(xa, lab, cont), Branch(xb, _) if xa == x and xb == x:
            bm = branch_map(b)
            if lab not in bm:
                return None
            tgt = Restrict(x, plug(commit(n), cont), plug(commit(m), bm[lab]))
            return Redex(f"sel:{lab}", x, (n, a), (m, b)), tgt
        case Client(xa, y, cont), Server(xb, z, q) if xa == x and xb == x:
            replica = freshen_binders(substitute(q, y, z))
            inner = Restrict(x, Restrict(y, plug(commit(n), cont), replica),
                             Server(x, z, q))
            tgt = plug(commit(m), inner)
            return Redex("repl", x, (n, a), (m, b)), tgt
        case SomeAvail(xa, cont), Expect(xb, _, q) if xa == x and xb == x:
            tgt = Restrict(x, plug(commit(n), cont), plug(commit(m), q))
            return Redex("some", x, (n, a), (m, b)), tgt
        case NoneAvail(xa), Expect(xb, deps, _) if xa == x and xb == x:
            fails = par_all([NoneAvail(w) for w in deps])
            tgt = Par(plug(commit(n), Inaction()), plug(commit(m), fails))
            return Redex("none", x, (n, a), (m, b)), tgt
    return None


def _local_steps(p: Process):
    """One-step reducts of p, paired with their redexes (targets are raw,
    not canonicalized)."""
    out = []
    match p:
        case Par(_, _):
            parts = par_parts(p)
            for i, c in enumerate(parts):
                for rdx, tgt in _local_steps(c):
                    out.append((rdx, par_all(parts[:i] + [tgt] + parts[i + 1:])))
        case NDChoice(_, _):
            parts = sum_parts(p)
            for i, c in enumerate(parts):
                for rdx, tgt in _local_steps(c):
                    rebuilt = parts[:i] + [tgt] + parts[i + 1:]
                    out.append((rdx, sum_all(rebuilt)))
        case Restrict(x, l, r):
            for rdx, tgt in _local_steps(l):
                out.append((rdx, Restrict(x, tgt, r)))
            for rdx, tgt in _local_steps(r):
                out.append((rdx, Restrict(x, l, tgt)))
            out.extend(_cut_steps(x, l, r))
        case _:
            pass
    return out


def step_all(p: Process) -> list:
    """The complete set of one-step eager reducts of p. Steps are
    deduplicated by rule tag and target identity modulo structural
    congruence (two redexes yielding congruent targets are the same
    reduction), with the targets kept in scope-normalized form."""
    cp = canonicalize(p)
    seen = {}
    for rdx, tgt in _local_steps(cp):
        ct = scope_normalize(tgt)
        key = (rdx.rule, term_key(ct))
        if key not in seen:
            seen[key] = ReductionStep(cp, rdx, ct)
    return list(seen.values())


def normal_forms(p: Process, bound: int = 64, max_states: int = 20000):
    """All canonical normal forms reachable from p within `bound` steps."""
    tree = trace(p, bound, max_states=max_states)
    return [n.process for n in tree.nodes.values()
            if n.expanded and not n.successors]


@dataclass(eq=False)
class TraceNode:
    node_id: int
    process: Process
    depth: int
    expanded: bool = False
    bound_exhausted: bool = False
    successors: list = field(default_factory=list)  # (rule, child_id)


@dataclass(eq=False)
class Trace:
    root: int
    nodes: dict  # node_id -> TraceNode
    truncated: bool = False

    def leaves(self):
        return [n for n in self.nodes.values()
                if n.expanded and not n.successors]

    def at_depth(self, d: int):
        return [n for n in self.nodes.values() if n.depth == d]

    def maximal_paths(self, limit: int = 100000):
        """Root-to-leaf rule-tag paths (unexpanded frontier nodes count as
        leaves and are flagged)."""
        paths = []

        def go(nid, acc):
            if len(paths) >= limit:
                return
            node = self.nodes[nid]
            if not node.successors:
                paths.append((tuple(acc), node))
                return
            for rule, child in node.successors:
                go(child, acc + [rule])

        go(self.root, [])
        return paths

    def records(self):
        """Line-delimited trace records: (node, parent, rule, cut, text)."""
        from .printer import process_text
        recs = []
        parents = {}
        for n in self.nodes.values():
            for rule, child in n.successors:
                parents.setdefault(child, (n.node_id, rule))
        for nid in sorted(self.nodes):
            n = self.nodes[nid]
            parent, rule = parents.get(nid, (None, ""))
            cut = rule.split("@")[-1] if "@" in rule else ""
            tag = rule.split("@")[0]
            recs.append({"node": nid, "parent": parent, "rule": tag,
                         "cut": cut, "term": process_text(n.process, canonical=True),
                         "depth": n.depth,
                         "bound_exhausted": n.bound_exhausted})
        return recs


def trace(p: Process, bound: int, strategy: str = "exhaustive",
          seed: int = 0, max_states: int = 20000,
          chooser: Optional[Callable] = None) -> Trace:
    """Reduction tree to depth `bound` with nodes deduplicated by canonical
    form. Strategies: exhaustive (full tree, expanded breadth-first, so a
    node's depth is its least distance from the root), random (seeded
    single path), interactive (chooser picks a step index at each node)."""
    cp = scope_normalize(p)
    nodes = {}
    index = {}
    tr = Trace(0, nodes)

    def intern(q, depth):
        """(node id, node, whether it is new)."""
        k = term_key(q)
        if k in index:
            nid = index[k]
            return nid, nodes[nid], False
        nid = len(nodes)
        index[k] = nid
        node = TraceNode(nid, q, depth)
        nodes[nid] = node
        return nid, node, True

    root_id, root, _ = intern(cp, 0)
    if strategy == "exhaustive":
        frontier = deque([root_id])
        while frontier:
            node = nodes[frontier.popleft()]
            if node.depth >= bound:
                node.bound_exhausted = bool(step_all(node.process))
                tr.truncated = tr.truncated or node.bound_exhausted
                continue
            node.expanded = True
            for st in step_all(node.process):
                cid, _, new = intern(st.target, node.depth + 1)
                node.successors.append((f"{st.redex.rule}@{st.redex.cut.display}", cid))
                if new:
                    frontier.append(cid)
            if len(nodes) > max_states:
                tr.truncated = True
                break
    else:
        rng = random.Random(seed)
        nid, node = root_id, root
        for _ in range(bound):
            steps = step_all(node.process)
            if not steps:
                node.expanded = True
                break
            if strategy == "random":
                st = rng.choice(sorted(steps, key=lambda s: (s.redex.rule, term_key(s.target))))
            elif strategy == "interactive":
                st = steps[chooser(node.process, steps) % len(steps)]
            else:
                raise ValueError(f"unknown strategy {strategy!r}")
            node.expanded = True
            cid, child, _ = intern(st.target, node.depth + 1)
            node.successors.append((f"{st.redex.rule}@{st.redex.cut.display}", cid))
            nid, node = cid, child
        else:
            node.bound_exhausted = bool(step_all(node.process))
            tr.truncated = tr.truncated or node.bound_exhausted
    return tr
