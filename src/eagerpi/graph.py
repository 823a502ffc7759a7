"""The one state-space explorer and the one graph record it returns.

States are keyed by `key`, stepped by `step` (state -> [(label, state)],
where an edge may stand for several steps) and discovered breadth-first,
depth by depth, so a node's depth is its least distance in steps from the
root. A node at the depth bound is expanded when all its steps reach
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


def explore(root, step, key, depth, max_states, goal=None, room=False):
    """The graph of `root`, nodes by key in discovery order. `step(state)`
    gives a state's steps as (label, target) pairs. With `room` it is
    called as `step(state, room)`, `room` the steps left to the depth
    bound (at least 1), and a step may also be (label, target, length): an
    edge that stands for `length` <= `room` steps, whose inner states are
    no nodes. Depths are counted in steps, and a node gets its least
    depth: the search goes depth by depth, and a long edge waits in each
    depth it passes before its end is keyed a node, in the place where a
    chain of one-step edges would have found it. The first goal state
    discovered ends the search (cause `none`); more than `max_states`
    nodes after an expansion end it with cause `states`, the queued nodes
    unexpanded; a step out of the depth bound gives `depth`. Where the
    search ends early, the end of each waiting edge is made a node, so
    every edge leads to one."""
    rk = key(root)
    nodes = {rk: Node(rk, root, 0)}
    if goal is not None and goal(root):
        return Graph(nodes, rk, "none", nodes[rk])
    cause, d, level = "none", 0, [nodes[rk]]
    while level:
        ahead = []   # the items of depth d + 1: nodes, and long edges
        for i, item in enumerate(level):
            if not isinstance(item, Node):   # (parent, end, its key, depth)
                parent, t, k, at = item
                if at > d + 1:
                    ahead.append(item)
                elif k not in nodes:
                    new = nodes[k] = Node(k, t, at, parent=parent)
                    if goal is not None and goal(t):
                        return _land(nodes, rk, "none", level[i + 1:] + ahead,
                                     new)
                    ahead.append(new)
                continue
            node = item
            steps = step(node.state, max(1, depth - d)) if room \
                else step(node.state)
            node.has_steps = bool(steps)
            if d >= depth and any(key(s[1]) not in nodes for s in steps):
                cause = "depth"
                continue
            for s in steps:
                label, t = s[0], s[1]
                k = key(t)
                if k in nodes:   # keep one copy of each key, not one per edge
                    k = nodes[k].key
                elif len(s) > 2 and s[2] > 1:
                    ahead.append(((node.key, label), t, k, d + s[2]))
                else:
                    new = nodes[k] = Node(k, t, d + 1,
                                          parent=(node.key, label))
                    if goal is not None and goal(t):
                        return _land(nodes, rk, "none", level[i + 1:] + ahead,
                                     new)
                    ahead.append(new)
                node.successors.append((label, k))
            node.expanded = True
            if len(nodes) > max_states:
                return _land(nodes, rk, "states", level[i + 1:] + ahead)
        level, d = ahead, d + 1
    return Graph(nodes, rk, cause)


def _land(nodes, rk, cause, items, goal=None):
    """The graph, once the end of each long edge among the queued `items`
    that is not yet a node is made one, unexpanded."""
    for item in items:
        if not isinstance(item, Node) and item[2] not in nodes:
            parent, t, k, at = item
            nodes[k] = Node(k, t, at, parent=parent)
    return Graph(nodes, rk, cause, goal)
