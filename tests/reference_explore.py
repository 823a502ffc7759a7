"""Reference explorers for the differential test.

These are the five breadth-first loops that `eagerpi` used before its one
graph builder (`eagerpi.graph`): `equivalence.explore`, the exhaustive
strategy of `eager.trace`, `equivalence.succeeds_pi`, `lam.reachable` and
`lam.succeeds`. They are kept verbatim, with the node records they
returned, except that the lambda loops call `lam.step_all` by the name
`step_all_lam`, because this module also imports the process `step_all`.
`test_explore_oracle.py` checks that the builder discovers the same states
at the same depths with the same edges and verdicts. Each loop has its own
truncation rule; the builder keeps the rule of `succeeds_pi` for all.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from eagerpi import lam as L
from eagerpi.eager import step_all
from eagerpi.equivalence import has_unguarded_success
from eagerpi.lam import SuccessT, head, lam_key
from eagerpi.process import Process, scope_normalize, term_key


# ---------------------------------------------------------------------------
# equivalence.explore

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
# eager.trace

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


# ---------------------------------------------------------------------------
# equivalence.succeeds_pi

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


# ---------------------------------------------------------------------------
# lam.reachable and lam.succeeds

step_all_lam = L.step_all


def reachable(m, bound: int, max_states: int = 20000):
    """Terms reachable within `bound` steps, keyed by alpha class; returns
    (list of terms, truncated flag)."""
    seen = {lam_key(m): m}
    frontier = [m]
    truncated = False
    for _ in range(bound):
        if not frontier:
            break
        nxt = []
        for t in frontier:
            for _, u in step_all_lam(t):
                k = lam_key(u)
                if k not in seen:
                    seen[k] = u
                    nxt.append(u)
            if len(seen) > max_states:
                truncated = True
                nxt = []
                break
        frontier = nxt
    if frontier:
        truncated = truncated or any(step_all_lam(t) for t in frontier)
    return list(seen.values()), truncated


def succeeds(m, bound: int = 64):
    """True iff some reduction sequence within `bound` steps reaches a term
    whose head is the success constant; second component flags bound
    exhaustion while still undecided."""
    seen = {lam_key(m)}
    frontier = [m]
    for _ in range(bound + 1):
        for t in frontier:
            if isinstance(head(t), SuccessT):
                return True, False
        nxt = []
        for t in frontier:
            for _, u in step_all_lam(t):
                k = lam_key(u)
                if k not in seen:
                    seen.add(k)
                    nxt.append(u)
        if not nxt:
            return False, False
        frontier = nxt
    return False, True
