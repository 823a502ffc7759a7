"""The one state-space explorer: bounded breadth-first reduction graphs.

States are keyed by `key`, stepped by `step` (state -> [(label, state)])
and discovered breadth-first, so a node's depth is its least distance from
the root. A node at the depth bound is expanded when all its steps reach
states already in the graph, so a complete graph is never reported as cut.
"""

from dataclasses import dataclass, field


@dataclass(eq=False, slots=True)
class Node:
    key: object
    state: object
    depth: int
    successors: list = field(default_factory=list)  # (label, key)
    expanded: bool = False    # successors holds every step
    has_steps: bool = False   # steps were computed and there is one

    @property
    def succ(self):
        """`successors`, as readers of `equivalence.explore` name it."""
        return self.successors


def explore(root, step, key, depth: int, max_states: int, goal=None):
    """(nodes by key in discovery order, root key, cause, goal node). The
    first goal state discovered ends the search (cause `none`); more than
    `max_states` nodes after an expansion end it with cause `states`, the
    queued nodes unexpanded; a step out of the depth bound gives `depth`."""
    rk = key(root)
    nodes = {rk: Node(rk, root, 0)}
    if goal is not None and goal(root):
        return nodes, rk, "none", nodes[rk]
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
                nodes[k] = Node(k, t, node.depth + 1)
                if goal is not None and goal(t):
                    return nodes, rk, "none", nodes[k]
                queue.append(nodes[k])
            node.successors.append((label, k))
        node.expanded = True
        if len(nodes) > max_states:
            return nodes, rk, "states", None
    return nodes, rk, cause, None
