"""The eager reduction semantics: exhaustive one-step reduction, and traces
that return the reduction graph (`graph.Graph`).

Each synchronization rule matches a cut `new x (L | R)` whose two sides
decompose through ND-contexts into prefixed processes on x. The target is
built with the committed contexts, which discards the sum branches not
involved in the step; reductions wholly inside one branch of a sum keep
the other branches (congruence rule for sums).

The local steps of a state's subtrees, each a redex and its raw target,
are computed once per `exploration` and kept on the node (`_local_steps`;
the state's own list is not kept, as each state is stepped once). Nodes
are never mutated and a redex holds names, not binder levels, so the
list does not depend on where the node sits: a subtree that a step left
alone gives the same target objects in the next state, whose extrusion
and walk then answer from their memos. The step memos and the
extrusions built in an exploration are dropped when it ends, so
exploring an input again does the same work.

A cut `new x (L | R)` decomposes its sides only into prefixes and
forwarders on x, entering only parts that hold x free. Of adjacent
parallel parts that are alike (`process.alike`: equal keys in their
context and the same free names, with distinct displays) only the first
is searched. Alike parts are congruent, so the others' steps are its
steps up to congruence, which `step_all` would drop as duplicates; being
congruent does not depend on the context, so the pruned list is right
wherever the node is reused. The key that tells alike parts is threaded
down from the state's, since a walked node's key mirrors it.

No step frees a bound name: a step of the cut `new x (L | R)` exists
only where every free name of its target is free in `new x (L | R)`
(`_frees`, on every target `_cut_steps` builds), as in CP's binary
cut (Wadler, ICFP 2012). Typed processes never meet the check.
On untyped input it refuses a close, none or id step that leaves a
second holder of x outside the cut (`new x (([x<->y] | close x) |
wait x. 0)`), and a comm step whose continuation uses the sent name
(`process.BINDING` binds it there, but the target keeps only the payload
and the receiver in its scope).

Exhaustive `trace` follows one order of independent steps (an ample-set
reduction: Peled, CAV 1993; Godefroid, LNCS 1032, 1996). A D-step of a
state is a step with these properties:
- its cut `new x (L | R)` lies on the state's `|`/`new` spine, and on
  each side the redex's context is a D-context none of whose siblings
  holds x (`_alone`): the redex's thread is the one thread on that
  side's spine with x free;
- it is the cut's first step in `_cut_steps` order, and its rule is
  close, comm, sel:<label>, some, none or id; or repl, where x is free
  neither in the client's continuation nor in the server's body.
A state is expanded by its first D-step in `_search` order alone
(`_dstep`), so the choice depends only on the state's form, and by all
its steps where it has none. This is sound for the queries `trace`
serves, which read the normal forms and the bound that cut the search,
and the argument is syntactic, so it holds for untyped input too:
- Independence. Only the D-step's two threads hold x, both are spine
  threads, and no step reduces under a prefix. Another step synchronizes
  on another cut, so it cannot consume a prefix of theirs; it discards
  only the sum branches on its own contexts' paths, which hold neither of
  them nor the cut; and the threads it adds (continuations, a server's
  replica, the `none` failures of an expectation's dependencies) come
  from threads without x free, so none competes for them. It changes the
  two threads at most by renaming, so the D-step still frees no name. So
  the other step leaves the D-step in place, and what is left of it is
  again a D-step (for id, see Forwarders). Taking the two in either
  order reaches congruent states: a one-step diamond. A repl D-step
  leaves its server with no client and copies no x, so scope
  normalization collects the server; a client that requests x again, or
  a server body that holds x, would keep it.
- Forwarders. An id D-step dissolves the cut and puts the partner side,
  renamed to the forwarder's other name y, where the forwarder was. Only
  id steps take a forwarder, each on one of its names. Where the partner
  is a forwarder too, its own id step fuses the same two forwarders. An
  id step of a cut on y exists only where no other part on the
  forwarder's side of that cut holds y, so dissolving that cut and
  renaming its other side to x reaches the D-step's target with x for y,
  up to alpha. Any other step leaves the forwarder in a D-context on the
  spine, at most renaming y or changing the partner side, and these
  diamonds need no more than that, so they hold for what is left of the
  D-step along any path.
- Normal forms. A normal form has no step, so a path to one takes what is
  left of each D-step on it. Moving that step to the front through the
  diamonds keeps the path's length, so, by induction on the length, every
  normal form at depth d of the full graph is at depth d of the reduced
  one, within the same bound. A state that is not normal may sit deeper:
  two branches of a `++` can meet at one state after different numbers of
  steps, and the reduced graph may hold only the longer one, and then be
  cut at a bound where the full graph is complete (`tests/test_dstep.py`
  lists where that happens).
- Cycles. A D-step consumes two prefixes, or a forwarder and its cut, and
  nothing it copies survives, so it shrinks the process (counting its
  prefixes and forwarders, an expectation once more for each name it
  waits on). No cycle consists of D-steps alone, so every cycle of the
  reduced graph passes a state expanded by all its steps (the cycle
  proviso), and no step is put off for ever.
Random and interactive traces, `step_all` and the graphs of
`equivalence` (bisimilarity and the correspondence checks) take every
step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from . import graph, process
from .contexts import Hole, NSum, commit, decompositions, plug
from .names import Name
from .process import (Branch, Client, Close, Expect, Forward, Inaction, Input,
                      NDChoice, NoneAvail, Output, Par, Process, Restrict,
                      Select, Server, SomeAvail, Wait, alike, branch_map,
                      canonicalize, exploration, free_names, freshen_binders,
                      keyed_parts, par_all, scope_normalize, substitute,
                      sum_all, term_key)


@dataclass(eq=False)
class Redex:
    rule: str          # id, close, comm, sel:<label>, repl, some, none
    cut: Name
    left: tuple = None   # (NDContext, prefixed subprocess)
    right: tuple = None  # the partner decomposition; whole side for [Id]


@dataclass(eq=False)
class ReductionStep:
    redex: Redex
    target: Process


def _cut_steps(x: Name, left: Process, right: Process, dl, dr):
    """Axiom instances for the cut `new x (left | right)` from its sides'
    decompositions on x; `_search` and `_dcut` build every step here."""
    steps = []
    for here, there, dh, dt in ((left, right, dl, dr), (right, left, dr, dl)):
        for n, a in dh:
            if isinstance(a, Forward) and a.x != a.y:
                steps.append(_forward(x, n, a, there))
            for m, b in dt:
                pair = _axiom(x, n, a, m, b)
                if pair is not None:
                    steps.append(pair)
    return [st for st in steps if not _frees(x, left, right, st[1])]


def _frees(x: Name, left: Process, right: Process, tgt: Process) -> bool:
    """Whether the target of a step of the cut `new x (left | right)` has
    a name free that the cut has not. Such a step does not exist: no step
    frees a bound name (see the module docstring)."""
    fn = free_names(tgt)
    return x in fn or not fn <= free_names(left) | free_names(right)


def _forward(x, n, a, there):
    """[Id]: the forwarder `a` on x, under context n, dissolves the cut on
    x; the partner side `there`, renamed to the forwarder's other name,
    takes its place."""
    other = a.y if a.x == x else a.x
    tgt = plug(commit(n), substitute(there, other, x))
    return Redex("id", x, (n, a), (Hole(), there)), tgt


def _axiom(x, n, a, m, b):
    """Match one axiom of the eager semantics with `a` under context n and
    `b` under m, both prefixes on x; returns the redex and the literal
    right-hand side."""
    match a, b:
        case Close(), Wait(_, q):
            tgt = Par(plug(commit(n), Inaction()), plug(commit(m), q))
            return Redex("close", x, (n, a), (m, b)), tgt
        case Output(_, y, pl, cont), Input(_, z, r):
            recv = plug(commit(m), substitute(r, y, z))
            tgt = plug(commit(n), Restrict(x, cont, Restrict(y, pl, recv)))
            return Redex("comm", x, (n, a), (m, b)), tgt
        case Select(_, lab, cont), Branch():
            bm = branch_map(b)
            if lab not in bm:
                return None
            tgt = Restrict(x, plug(commit(n), cont), plug(commit(m), bm[lab]))
            return Redex(f"sel:{lab}", x, (n, a), (m, b)), tgt
        case Client(_, y, cont), Server(_, z, q):
            replica = freshen_binders(substitute(q, y, z))
            inner = Restrict(x, Restrict(y, plug(commit(n), cont), replica),
                             Server(x, z, q))
            tgt = plug(commit(m), inner)
            return Redex("repl", x, (n, a), (m, b)), tgt
        case SomeAvail(_, cont), Expect(_, _, q):
            tgt = Restrict(x, plug(commit(n), cont), plug(commit(m), q))
            return Redex("some", x, (n, a), (m, b)), tgt
        case NoneAvail(), Expect(_, deps, _):
            fails = par_all([NoneAvail(w) for w in deps])
            tgt = Par(plug(commit(n), Inaction()), plug(commit(m), fails))
            return Redex("none", x, (n, a), (m, b)), tgt
    return None


def _local_steps(p: Process) -> tuple:
    """One-step reducts of p, paired with their redexes (targets are raw,
    not canonicalized). The lists of p's subtrees are memoised for the
    open `exploration` (or for this call); p's own list is kept only if
    p was met as a subtree: a state is stepped once, and keeping its list
    would hold a whole target per step to the end of the exploration. A
    canonical root's key, if p has one, tells alike parts."""
    if p._steps is not None:
        return p._steps
    with exploration():
        return tuple(_search(p, p._key))


def _memo_steps(p: Process, key) -> tuple:
    steps = p._steps
    if steps is None:
        steps = p._steps = tuple(_search(p, key))
        process._scoped.append(p)
    return steps


def _search(p: Process, key) -> list:
    out = []
    match p:
        case Par(_, _) | NDChoice(_, _):
            join = par_all if isinstance(p, Par) else sum_all
            parts, keys = keyed_parts(p, key)
            for i, c in enumerate(parts):
                if join is par_all and i and alike(parts[i - 1], keys[i - 1],
                                                   c, keys[i]):
                    continue
                for rdx, tgt in _memo_steps(c, keys[i]):
                    out.append((rdx, join(parts[:i] + [tgt] + parts[i + 1:])))
        case Restrict(x, l, r):
            _, (kl, kr) = keyed_parts(p, key)
            for rdx, tgt in _memo_steps(l, kl):
                out.append((rdx, Restrict(x, tgt, r)))
            for rdx, tgt in _memo_steps(r, kr):
                out.append((rdx, Restrict(x, l, tgt)))
            out.extend(_cut_steps(x, l, r, decompositions(l, x, kl),
                                  decompositions(r, x, kr)))
    return out


def step_all(p: Process) -> list:
    """The complete set of one-step eager reducts of p, none of which
    frees a bound name (see the module docstring). Steps are
    deduplicated by rule tag and target identity modulo structural
    congruence (two redexes yielding congruent targets are the same
    reduction), with the targets kept in scope-normalized form."""
    cp = canonicalize(p)
    seen = {}
    for rdx, tgt in _local_steps(cp):
        ct = scope_normalize(tgt)
        key = (rdx.rule, term_key(ct))
        if key not in seen:
            seen[key] = ReductionStep(rdx, ct)
    return list(seen.values())


def _dstep(p: Process, key):
    """The first D-step of p in `_search` order, with its raw target, or
    None (see the module docstring). It walks only p's `|`/`new` spine: a
    step inside a sum is no D-step."""
    match p:
        case Par(_, _):
            parts, keys = keyed_parts(p, key)
            for i, c in enumerate(parts):
                if i and alike(parts[i - 1], keys[i - 1], c, keys[i]):
                    continue
                found = _dstep(c, keys[i])
                if found is not None:
                    rdx, tgt = found
                    return rdx, par_all(parts[:i] + [tgt] + parts[i + 1:])
        case Restrict(x, l, r):
            _, (kl, kr) = keyed_parts(p, key)
            found = _dstep(l, kl)
            if found is not None:
                return found[0], Restrict(x, found[1], r)
            found = _dstep(r, kr)
            if found is not None:
                return found[0], Restrict(x, l, found[1])
            return _dcut(x, l, r, kl, kr)
    return None


def _alone(ctx, x: Name) -> bool:
    """Whether ctx is a D-context none of whose siblings holds x: its hole
    is then its side's one redex position on x, and its thread the one
    thread on that side's spine with x free."""
    while not isinstance(ctx, Hole):
        if isinstance(ctx, NSum) or x in free_names(ctx.rest):
            return False
        ctx = ctx.ctx
    return True


def _dcut(x: Name, left: Process, right: Process, kl, kr):
    """The D-step of the cut `new x (left | right)`, or None: where each
    side's first decomposition stands alone (`_alone`), the cut's first
    step in `_cut_steps` order, unless it is a repl step that leaves x in
    use."""
    dl, dr = decompositions(left, x, kl), decompositions(right, x, kr)
    if not (dl and dr and _alone(dl[0][0], x) and _alone(dr[0][0], x)):
        return None
    steps = _cut_steps(x, left, right, dl, dr)
    if not steps:
        return None
    rdx = steps[0][0]
    if rdx.rule == "repl" and (x in free_names(rdx.left[1].cont)
                               or x in free_names(rdx.right[1].cont)):
        return None
    return steps[0]


def _reduced_steps(q: Process) -> list:
    """The steps of `trace`'s exhaustive search from the scope-normal
    state q: its D-step alone if it has one, else all of its steps."""
    found = _dstep(q, q._key)
    if found is None:
        return [(_label(st.redex), st.target) for st in step_all(q)]
    rdx, tgt = found
    return [(_label(rdx), scope_normalize(tgt))]


def normal_forms(p: Process, bound: int = 64, max_states: int = 20000):
    """All canonical normal forms reachable from p within `bound` steps."""
    return [n.state for n in trace(p, bound, max_states=max_states).leaves()]


def _label(rdx: Redex) -> str:
    return f"{rdx.rule}@{rdx.cut.display}"


@exploration()
def trace(p: Process, bound: int, strategy: str = "exhaustive",
          seed: int = 0, max_states: int = 20000,
          chooser: Optional[Callable] = None) -> graph.Graph:
    """The reduction graph of p to depth `bound`, nodes keyed by
    `term_key` and edges labelled `rule@cut`. Strategies: exhaustive (the
    graph of `graph.explore` in one order of independent steps: a state
    with a D-step is expanded by that step alone, see the module
    docstring; it has every normal form of the full graph within the
    bound, at its depth, but a state that is not normal may sit deeper,
    so `run` may report the bound where the full graph is complete),
    random (seeded single path), interactive (chooser picks a step
    index, 0 to len(steps) - 1, at each node). A path's nodes are
    expanded where it went on, and keep their first depth when it passes
    again; its last node is unexpanded when it stops at the bound."""
    cp = scope_normalize(p)
    if strategy == "exhaustive":
        return graph.explore(cp, _reduced_steps, term_key, bound,
                             max_states)
    root = term_key(cp)
    node = graph.Node(root, cp, 0)
    nodes = {root: node}
    rng = random.Random(seed)
    for _ in range(bound):
        steps = step_all(node.state)
        node.expanded, node.has_steps = True, bool(steps)
        if not steps:
            break
        if strategy == "random":
            st = rng.choice(sorted(steps, key=lambda s: (s.redex.rule, term_key(s.target))))
        elif strategy == "interactive":
            st = steps[chooser(node.state, steps)]
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        k, label = term_key(st.target), _label(st.redex)
        if k not in nodes:
            nodes[k] = graph.Node(k, st.target, node.depth + 1,
                                  parent=(node.key, label))
        node.successors.append((label, k))
        node = nodes[k]
    else:
        node.expanded, node.has_steps = False, bool(step_all(node.state))
    cut = node.has_steps and not node.expanded
    return graph.Graph(nodes, root, "depth" if cut else "none")
