"""The one state-space explorer and the one graph record it returns.

States are keyed by `key`, stepped by `step` (state -> [(label, state)])
and discovered breadth-first, so a node's depth is its least distance from
the root. A node at the depth bound is expanded when all its steps reach
states already in the graph, so a complete graph is never reported as cut.
Every exploration returns a `Graph`: `explore`, the lambda and process
explorers built on it, and `eager.trace`, whose seeded and interactive
walks build the nodes of one path.
"""

from dataclasses import dataclass, field
from typing import NamedTuple


@dataclass(eq=False, slots=True)
class Node:
    key: object
    state: object
    depth: int
    successors: list = field(default_factory=list)  # (label, key)
    expanded: bool = False    # successors holds every step
    has_steps: bool = False   # steps were computed and there is one
    parent: object = None     # (key, label) of the step that first found it

    @property
    def succ(self):
        """`successors`, as readers of `equivalence.explore` name it."""
        return self.successors

    @property
    def process(self):
        """`state`, as `perfbench/workloads._run_check` reads a leaf."""
        return self.state


class Graph(NamedTuple):
    nodes: dict     # key -> Node, in discovery order
    root: object    # the root's key
    cause: str      # none | depth | states: the bound that cut the search
    goal: Node = None   # the goal node that ended the search

    @property
    def truncated(self) -> bool:
        return self.cause != "none"

    def leaves(self):
        """The nodes stepped and found to have no step."""
        return [n for n in self.nodes.values()
                if n.expanded and not n.successors]

    def at_depth(self, d: int):
        return [n for n in self.nodes.values() if n.depth == d]

    def maximal_paths(self, limit: int = 100000):
        """Root-to-leaf label paths, each with its last node (unexpanded
        frontier nodes count as leaves). A path that comes back to a node
        already on it stops there."""
        paths = []
        on_path = set()

        def go(key, acc):
            if len(paths) >= limit:
                return
            node = self.nodes[key]
            if not node.successors or key in on_path:
                paths.append((tuple(acc), node))
                return
            on_path.add(key)
            for label, child in node.successors:
                go(child, acc + [label])
            on_path.discard(key)

        go(self.root, [])
        return paths


def explore(root, step, key, depth: int, max_states: int, goal=None):
    """The graph of `root`, nodes by key in discovery order. The first goal
    state discovered ends the search (cause `none`); more than
    `max_states` nodes after an expansion end it with cause `states`, the
    queued nodes unexpanded; a step out of the depth bound gives `depth`."""
    rk = key(root)
    nodes = {rk: Node(rk, root, 0)}
    if goal is not None and goal(root):
        return Graph(nodes, rk, "none", nodes[rk])
    cause = "none"
    queue = [nodes[rk]]
    for node in queue:
        steps = step(node.state)
        node.has_steps = bool(steps)
        if node.depth >= depth and any(key(t) not in nodes for _, t in steps):
            cause = "depth"
            continue
        for label, t in steps:
            k = key(t)
            if k in nodes:   # keep one copy of each key alive, not one per edge
                k = nodes[k].key
            else:
                nodes[k] = Node(k, t, node.depth + 1, parent=(node.key, label))
                if goal is not None and goal(t):
                    return Graph(nodes, rk, "none", nodes[k])
                queue.append(nodes[k])
            node.successors.append((label, k))
        node.expanded = True
        if len(nodes) > max_states:
            return Graph(nodes, rk, "states")
    return Graph(nodes, rk, cause)
