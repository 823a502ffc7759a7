"""Process syntax, free names, substitution, and structural congruence.

The grammar has one constructor per production: inaction, forwarder,
parallel, restriction-over-parallel (connect), non-deterministic choice,
output, input, select, branch, close, wait, client request, server,
availability (some/none), expectation, and the inert success constant OK.

`BINDING` is the one place binding structure lives: for each constructor,
the fields holding free names, the field holding the name it binds in its
subprocesses, and the fields holding those subprocesses. Free names, the
linear/unrestricted split, child access, substitution, simultaneous
renaming and binder freshening are all derived from it. Only the canonical
walk `_walk_node` spells out every constructor, because it fixes the key
format. `SYNTAX` is the one place the concrete syntax of the twelve
constructors with a fixed shape lives: one template each, which the parser
reads and the printer fills.

Structural identity of processes is alpha-invariant: `term_key` is the key
of a process's canonical form, which the canonical walk computes with de
Bruijn levels for bound names and display strings for free names, and
every set-like operation (canonical sorting, reduct deduplication, state
spaces) keys on it. `scope_normalize` adds the scope axioms for state
identity: one unkeyed extrusion pass, then one canonical walk in scope
mode, which takes the least-keyed restriction swap at every restriction.

Nodes are never mutated after construction; rewrites build new nodes and
share unchanged subtrees. Values derived from a node are therefore cached
on it, in slots: its free-name set, whether it holds a restriction,
whether `_extrude` leaves it unchanged, on a canonical form its key at
the root, and the memo of the canonical walk `_walk`. Two more are kept
only for the open `exploration` and dropped when it ends: its local
steps (`eager._local_steps`) and the node `_extrude` built from it, if
any. The walk computes each node's key once, bottom-up, and a parent
sorts, deduplicates and orients its children by the keys they returned.
A node already in canonical form is returned as it is and keeps, for
each context it was walked in (depth, levels of its free names, swap if
it holds a restriction), its key, so a subtree that a step left alone is
not walked again. An entry holds only a context and a key, never a node:
an entry naming its own node would put the node in a reference cycle,
which only the cycle collector frees. Equal contexts and name keys are
one shared tuple, to keep entries small.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from operator import attrgetter, is_, itemgetter
from typing import Iterator, Optional

from .names import Name, NameSupply, fresh_name


_scoped = None   # the nodes holding memos of the open exploration


@contextmanager
def exploration():
    """Share the memos of one exploration among the states it visits,
    which share subtrees: each node's local steps and the node `_extrude`
    built from it. When the outermost exploration ends, those memos are
    dropped: none outlives the exploration that made it, so exploring an
    input again repeats the same work and no input keeps the targets it
    once had."""
    global _scoped
    if _scoped is not None:
        yield
        return
    _scoped = []
    try:
        yield
    finally:
        for p in _scoped:
            p._steps = None
            if p._ext is not True:
                p._ext = None
        _scoped = None


class Process:
    __slots__ = ("_fn", "_key", "_memo", "_ext", "_res", "_steps")

    def __post_init__(self):
        self._fn = self._key = self._memo = self._ext = self._res = None
        self._steps = None


@dataclass(eq=False, slots=True)
class Inaction(Process):
    pass


@dataclass(eq=False, slots=True)
class Success(Process):
    pass


@dataclass(eq=False, slots=True)
class Forward(Process):
    x: Name
    y: Name


@dataclass(eq=False, slots=True)
class Par(Process):
    left: Process
    right: Process


@dataclass(eq=False, slots=True)
class Restrict(Process):
    x: Name
    left: Process
    right: Process


@dataclass(eq=False, slots=True)
class NDChoice(Process):
    left: Process
    right: Process


@dataclass(eq=False, slots=True)
class Output(Process):
    x: Name
    y: Name          # bound in both continuations
    payload: Process  # behavior on y
    cont: Process     # behavior on x


@dataclass(eq=False, slots=True)
class Input(Process):
    x: Name
    y: Name
    cont: Process


@dataclass(eq=False, slots=True)
class Select(Process):
    x: Name
    label: str
    cont: Process


@dataclass(eq=False, slots=True)
class Branch(Process):
    x: Name
    branches: tuple  # ((label, Process), ...) labels distinct, non-empty


@dataclass(eq=False, slots=True)
class Close(Process):
    x: Name


@dataclass(eq=False, slots=True)
class Wait(Process):
    x: Name
    cont: Process


@dataclass(eq=False, slots=True)
class Client(Process):
    x: Name
    y: Name
    cont: Process


@dataclass(eq=False, slots=True)
class Server(Process):
    x: Name
    y: Name
    cont: Process


@dataclass(eq=False, slots=True)
class SomeAvail(Process):
    x: Name
    cont: Process


@dataclass(eq=False, slots=True)
class NoneAvail(Process):
    x: Name


@dataclass(eq=False, slots=True)
class Expect(Process):
    x: Name
    deps: tuple  # names whose sessions are cancelled on failure
    cont: Process


PREFIXED = (Output, Input, Select, Branch, Close, Wait, Client, Server,
            SomeAvail, NoneAvail, Expect)


def branch_map(p: Branch) -> dict:
    return dict(p.branches)


def make_branch(x: Name, items) -> Branch:
    items = tuple(sorted(items, key=lambda kv: kv[0]))
    labels = [k for k, _ in items]
    if not labels or len(set(labels)) != len(labels):
        raise ValueError("branch labels must be non-empty and distinct")
    return Branch(x, items)


def par_all(parts) -> Process:
    """Right-fold a list of processes into a parallel composition."""
    *rest, acc = list(parts) or [Inaction()]
    for p in reversed(rest):
        acc = Par(p, acc)
    return acc


def sum_all(parts) -> Process:
    parts = list(parts)
    if not parts:
        raise ValueError("empty non-deterministic sum")
    acc = parts[-1]
    for p in reversed(parts[:-1]):
        acc = NDChoice(p, acc)
    return acc


def par_parts(p: Process) -> list:
    if isinstance(p, Par):
        return par_parts(p.left) + par_parts(p.right)
    return [p]


def sum_parts(p: Process) -> list:
    if isinstance(p, NDChoice):
        return sum_parts(p.left) + sum_parts(p.right)
    return [p]


# ---------------------------------------------------------------------------
# Binding structure

# One row per constructor: the fields holding free names, the field holding
# the name bound in every subprocess, and the fields holding subprocesses.
# A field declared `tuple` holds several entries: Expect's `deps` is a tuple
# of names, and Branch's subprocesses are the second components of the
# (label, process) pairs in `branches`.
BINDING = {
    Inaction: ((), None, ()),
    Success: ((), None, ()),
    Forward: (("x", "y"), None, ()),
    Par: ((), None, ("left", "right")),
    NDChoice: ((), None, ("left", "right")),
    Restrict: ((), "x", ("left", "right")),
    Output: (("x",), "y", ("payload", "cont")),
    Input: (("x",), "y", ("cont",)),
    Client: (("x",), "y", ("cont",)),
    Server: (("x",), "y", ("cont",)),
    Select: (("x",), None, ("cont",)),
    Branch: (("x",), None, ("branches",)),
    Close: (("x",), None, ()),
    Wait: (("x",), None, ("cont",)),
    SomeAvail: (("x",), None, ("cont",)),
    NoneAvail: (("x",), None, ()),
    Expect: (("x", "deps"), None, ("cont",)),
}


def _reader(cls, fields, entry):
    """A function from a `cls` node to the values of `fields`, as one
    tuple; a field declared `tuple` contributes `entry` of each of its
    entries."""
    several = {f for f in fields
               if cls.__dataclass_fields__[f].type in ("tuple", tuple)}
    if several:
        def read(p):
            out = []
            for f in fields:
                v = getattr(p, f)
                if f in several:
                    out.extend(map(entry, v))
                else:
                    out.append(v)
            return tuple(out)
        return read
    if len(fields) > 1:
        return attrgetter(*fields)
    if fields:
        get = attrgetter(fields[0])
        return lambda p: (get(p),)
    return lambda p: ()


# node -> its own free-name occurrences / its immediate subprocesses
_NAMES = {cls: _reader(cls, names, lambda n: n)
          for cls, (names, _, _) in BINDING.items()}
_SUBS = {cls: _reader(cls, subs, itemgetter(1))
         for cls, (_, _, subs) in BINDING.items()}


def _children(p: Process) -> tuple:
    """The immediate subprocesses of p, in a fixed order."""
    return _SUBS[type(p)](p)


def _with_children(p: Process, kids, changed: Optional[dict] = None):
    """A node like p with the subprocesses `kids` (as ordered by
    `_children`) and the other fields in `changed` replaced."""
    cls = type(p)
    subs = BINDING[cls][2]
    kids = iter(kids)
    args = []
    for f in cls.__dataclass_fields__:
        v = getattr(p, f)
        if f in subs:
            v = (tuple((lab, next(kids)) for lab, _ in v)
                 if isinstance(v, tuple) else next(kids))
        elif changed:
            v = changed.get(f, v)
        args.append(v)
    return cls(*args)


# ---------------------------------------------------------------------------
# Concrete syntax

# The template of each constructor with a fixed shape: the parser reads it
# and the printer fills it. Its holes come in the order of the dataclass
# fields: `x` a free name, `y` the binder, `P` a subprocess, `(P | Q)` the
# two sides of a restriction or output, `L` a label and `W` a list of
# names. Every other token is literal. `0`, `OK`, parentheses, `|`, `++`,
# branches `x&{l: P, ...}` and definition references are written by hand.
SYNTAX = {
    Close: "close x",
    NoneAvail: "none x",
    Wait: "wait x. P",
    SomeAvail: "some x. P",
    Expect: "expect x [W]. P",
    Forward: "[x<->x]",
    Restrict: "new y (P | Q)",
    Client: "?x!(y). P",
    Server: "!x?(y). P",
    Input: "x?(y). P",
    Output: "x!(y)(P | Q)",
    Select: "x#L. P",
}


# ---------------------------------------------------------------------------
# Free names

_NO_NAMES = frozenset()


def free_names(p: Process) -> frozenset:
    """All free names of a process (cached on the node)."""
    fn = p._fn
    if fn is not None:
        return fn
    cls = type(p)
    fn = _NO_NAMES.union(*map(free_names, _SUBS[cls](p)))
    binder = BINDING[cls][1]
    if binder is not None:
        fn = fn - {getattr(p, binder)}
    fn = fn.union(_NAMES[cls](p))
    p._fn = fn
    return fn


def free_name_split(p: Process):
    """Free names partitioned as (all, linear, unrestricted).

    A free name is unrestricted when every occurrence is the subject of a
    server or client-request prefix; all other occurrences are linear.
    """
    linear: set = set()
    persistent: set = set()

    def walk(q, bound):
        cls = type(q)
        bucket = persistent if cls in (Client, Server) else linear
        bucket.update(n for n in _NAMES[cls](q) if n not in bound)
        binder = BINDING[cls][1]
        if binder is not None:
            bound = bound | {getattr(q, binder)}
        for k in _SUBS[cls](q):
            walk(k, bound)

    walk(p, _NO_NAMES)
    return linear | persistent, linear, persistent - linear


# ---------------------------------------------------------------------------
# Renaming: substitution and binder freshening

def _rename(p: Process, env: dict, fresh=None) -> Process:
    """p with every free name n in `env` replaced by env[n], all at once.
    With `fresh`, every binder b is also renamed to fresh(b), a binder
    before its subprocesses and those in order. Subtrees in which no name
    changes are shared."""
    if fresh is None and env.keys().isdisjoint(free_names(p)):
        return p
    cls = type(p)
    names, binder, _ = BINDING[cls]
    changed = {}
    inner = env
    if binder is not None:
        b = getattr(p, binder)
        if fresh is not None:
            changed[binder] = fresh(b)
            inner = {**env, b: changed[binder]}
        elif b in env:
            inner = {n: m for n, m in env.items() if n != b}
    for f in names:
        v = getattr(p, f)
        new = (tuple(env.get(n, n) for n in v) if isinstance(v, tuple)
               else env.get(v, v))
        if new != v:
            changed[f] = new
    kids = _SUBS[cls](p)
    new_kids = tuple(_rename(q, inner, fresh) for q in kids)
    if not changed and all(a is b for a, b in zip(kids, new_kids)):
        return p
    return _with_children(p, new_kids, changed)


def substitute(p: Process, new: Name, old: Name) -> Process:
    """Capture-avoiding substitution of `new` for free occurrences of `old`;
    p itself when `old` is not free in it.

    Binder ids are globally unique, so capture cannot arise; shadowing is
    still respected defensively.
    """
    if new == old:
        return p
    return _rename(p, {old: new})


def rename_free(p: Process, mapping: dict) -> Process:
    """Simultaneous substitution of mapping[n] for each free name n."""
    return _rename(p, mapping)


def freshen_binders(p: Process, supply: Optional[NameSupply] = None) -> Process:
    """Rename every binder in `p` to a fresh name (used when a rule copies
    a subprocess, e.g. server replication)."""
    fresh = supply.variant if supply else (lambda n: fresh_name(n.display))
    return _rename(p, {}, fresh)


# ---------------------------------------------------------------------------
# Alpha-invariant structural keys

_SHARED = {}  # one tuple per distinct name key and walk context


def name_key(n: Name, env: dict):
    lvl = env.get(n)
    k = ("b", lvl) if lvl is not None else ("f", n.display)
    return _SHARED.setdefault(k, k)


def term_key(p: Process):
    """The key of p's canonical form, invariant under alpha-renaming and
    under the AC/unit fragment of structural congruence that
    `canonicalize` decides.

    Bound names appear as their binder's de Bruijn level, free names as
    their display string. Two processes get equal keys iff their canonical
    forms are equal up to alpha, so on a raw process the key is coarser
    than its syntax: `P | 0` and `P` share one, as do a process with and
    without an unused server, and `Expect` prefixes that differ only in
    repeated deps. The key is stored on the canonical form only, never on
    a raw p: `_walk` takes a node with a key for canonical and returns it
    unwalked.
    """
    return p._key if p._key is not None else _canonical(p)[1]


def keyed_parts(p: Process, key):
    """The parallel parts, sum parts or restriction sides of p (as
    `par_parts`, `sum_parts` and (left, right) list them) and their keys.
    A walk returns a node with a key that mirrors it: ("par", keys),
    ("sum", keys) or ("res", kl, kr). Given that key, each part's key is
    read off it, in the context the walk saw the part in; else each is
    None."""
    if isinstance(p, Par):
        parts, tag = par_parts(p), "par"
    elif isinstance(p, NDChoice):
        parts, tag = sum_parts(p), "sum"
    else:
        parts, tag = [p.left, p.right], "res"
    keys = None
    if key is not None and key[0] == tag:
        keys = key[1:] if tag == "res" else key[1]
    if keys is None or len(keys) != len(parts):
        keys = (None,) * len(parts)
    return parts, keys


def alike(p: Process, kp, q: Process, kq) -> bool:
    """Whether siblings p and q, keyed kp and kq in their shared context,
    are congruent, and so interchangeable in every context: equal keys,
    and the same free names with distinct displays. A key spells a name
    free in its context by the display alone, so without both conditions
    equal keys can hide different names."""
    if kp is None or kp != kq:
        return False
    fn = free_names(p)
    return fn == free_names(q) and len({n.display for n in fn}) == len(fn)


# ---------------------------------------------------------------------------
# Canonical forms

def canonicalize(p: Process) -> Process:
    """Canonical representative of the AC/unit fragment of structural
    congruence: parallel and sums flattened, sorted and (for sums)
    deduplicated; `P | 0` units dropped; forwarders oriented; restriction
    argument order normalized; unused servers garbage-collected.

    The two scope-rearrangement axioms are *not* applied here; they are
    explored by the bounded search in `struct_congruent`. Sorting keys are
    computed relative to the enclosing binders, so same-display bound
    names keep their identity.
    """
    return _canonical(p)[0]


def _canonical(p: Process):
    c, k = _walk(p, {}, 0, False)
    c._key = k
    return c, k


_TAGS = {Input: "in", Client: "cli", Server: "srv", Wait: "wait",
         SomeAvail: "psome"}


def _walk(p: Process, env: dict, depth: int, swap: bool):
    """(canonical form of p, its key), with the binders of `env` open at
    levels below `depth`. The key serializes the form with each bound name
    as its binder's level and each free name as its display string;
    `tests/reference_canon.term_key` spells the format out and checks it.

    A parent sorts, deduplicates and orients its children by the keys they
    returned, so no subtree is keyed twice. With `swap` (scope mode) p must
    be extruded, and every restriction also takes the least-keyed instance
    of the swap axiom. A winning candidate, or a restriction whose side lost
    a use of its name to a collected server, is extruded and walked again
    in scope mode, so the result needs no further pass. A node already in
    its form is returned as it is, and its key is memoised on it for the
    context it was walked in.
    """
    if depth == 0 and not swap and p._key is not None:
        return p, p._key
    ctx = (depth, swap and _has_restrict(p), *map(env.get, free_names(p)))
    ctx = _SHARED.setdefault(ctx, ctx)
    memo = p._memo or ()
    for i in range(0, len(memo), 2):
        if memo[i] == ctx:
            return p, memo[i + 1]
    node, key = _walk_node(p, env, depth, swap)
    if node is p:
        p._memo = memo + (ctx, key)
    return node, key


def _has_restrict(p: Process) -> bool:
    if p._res is None:
        p._res = isinstance(p, Restrict) or any(map(_has_restrict,
                                                    _children(p)))
    return p._res


def _is_chain(p: Process, cls, parts) -> bool:
    """Whether p is the right-nested `cls` chain of `parts`, node by node."""
    for c in parts[:-1]:
        if type(p) is not cls or p.left is not c:
            return False
        p = p.right
    return p is parts[-1]


def _walk_node(p: Process, env: dict, depth: int, swap: bool):
    # cases in order of frequency in translated states
    match p:
        case Wait(x, c) | SomeAvail(x, c):
            cc, kc = _walk(c, env, depth, swap)
            node = p if cc is c else type(p)(x, cc)
            return node, (_TAGS[type(p)], name_key(x, env), kc)
        case Expect(x, deps, c):
            cc, kc = _walk(c, env, depth, swap)
            deps2 = deps if len(deps) < 2 else tuple(
                sorted(set(deps), key=lambda n: name_key(n, env)))
            node = p if cc is c and deps2 == deps else Expect(x, deps2, cc)
            return node, ("exp", name_key(x, env),
                          tuple(name_key(n, env) for n in deps2), kc)
        case Input(x, y, c) | Client(x, y, c) | Server(x, y, c):
            cc, kc = _walk(c, {**env, y: depth}, depth + 1, swap)
            node = p if cc is c else type(p)(x, y, cc)
            return node, (_TAGS[type(p)], name_key(x, env), kc)
        case NoneAvail(x):
            return p, ("pnone", name_key(x, env))
        case Restrict(x, l, r):
            env2 = {**env, x: depth}
            cl, kl = _walk(l, env2, depth + 1, swap)
            cr, kr = _walk(r, env2, depth + 1, swap)
            # an unused server is garbage; the survivor moves up one level
            for srv, other in ((cl, cr), (cr, cl)):
                if isinstance(srv, Server) and srv.x == x \
                        and x not in free_names(other):
                    return _walk(other, env, depth, swap)
            # a server collected in a side took a part's last use of x: the
            # part moves out (once: walked parts hold no more garbage)
            if swap and (cl is not l or cr is not r) and any(
                    x not in free_names(c) and not isinstance(c, Inaction)
                    for side in (cl, cr) for c in par_parts(side)):
                return _walk(_extrude(Restrict(x, cl, cr)), env, depth, True)
            if kr < kl:
                cl, kl, cr, kr = cr, kr, cl, kl
            node = p if cl is l and cr is r else Restrict(x, cl, cr)
            key = ("res", kl, kr)
            if swap:
                best = None
                for cand in _swap_candidates(node):
                    c, k = _walk(cand, env, depth, False)
                    if k < key:
                        best, key = c, k
                if best is not None:
                    # Memoised subtrees come back unwalked, so this keys
                    # only the spine the swap built. It stops: it starts on
                    # a strict key decrease, and on every oracle input it
                    # returned a key no higher than best's, so keys here
                    # fall over finitely many scope arrangements.
                    return _walk(_extrude(best), env, depth, True)
            return node, key
        case Output(x, y, pl, c):
            env2 = {**env, y: depth}
            cpl, kpl = _walk(pl, env2, depth + 1, swap)
            cc, kc = _walk(c, env2, depth + 1, swap)
            node = p if cpl is pl and cc is c else Output(x, y, cpl, cc)
            return node, ("out", name_key(x, env), kpl, kc)
        case Forward(x, y):
            kx, ky = name_key(x, env), name_key(y, env)
            if ky < kx:
                return Forward(y, x), ("fwd", ky, kx)
            return p, ("fwd", kx, ky)
        case Par(_, _):
            items = []
            for q in par_parts(p):
                cq, kq = _walk(q, env, depth, swap)
                if isinstance(cq, Par):   # a survivor or an extruded swap
                    items.extend(zip(par_parts(cq), kq[1]))
                elif not isinstance(cq, Inaction):
                    items.append((cq, kq))
            items.sort(key=itemgetter(1))
            if len(items) < 2:
                return items[0] if items else (Inaction(), ("0",))
            forms = [c for c, _ in items]
            return (p if _is_chain(p, Par, forms) else par_all(forms),
                    ("par", tuple(k for _, k in items)))
        case Inaction():
            return p, ("0",)
        case Close(x):
            return p, ("close", name_key(x, env))
        case Success():
            return p, ("ok",)
        case NDChoice(_, _):
            # one part per congruence class: a key spells a free name by
            # its display, so a part merges only into an alike one
            seen = {}
            for q in sum_parts(p):
                cq, kq = _walk(q, env, depth, swap)
                pairs = (zip(sum_parts(cq), kq[1])
                         if isinstance(cq, NDChoice) else ((cq, kq),))
                for c, k in pairs:
                    kept = seen.setdefault(k, [])
                    if not any(c is e or alike(c, k, e, k) for e in kept):
                        kept.append(c)
            items = [(c, k) for k in sorted(seen) for c in seen[k]]
            if len(items) == 1:
                return items[0]
            forms = [c for c, _ in items]
            return (p if _is_chain(p, NDChoice, forms) else sum_all(forms),
                    ("sum", tuple(k for _, k in items)))
        case Branch(x, brs):
            ordered = tuple(sorted(brs, key=lambda kv: kv[0]))
            labels = [lab for lab, _ in ordered]
            walked = [_walk(q, env, depth, swap) for _, q in ordered]
            forms = tuple(zip(labels, (c for c, _ in walked)))
            node = p if forms == brs else Branch(x, forms)
            return node, ("bra", name_key(x, env),
                          tuple(zip(labels, (k for _, k in walked))))
        case Select(x, lab, c):
            cc, kc = _walk(c, env, depth, swap)
            node = p if cc is c else Select(x, lab, cc)
            return node, ("sel", name_key(x, env), lab, kc)
    raise TypeError(f"not a process: {p!r}")


def is_inert(p: Process) -> bool:
    """The `P == 0` test of the deadlock-freedom statement: canonical form
    is syntactically inaction."""
    return isinstance(canonicalize(p), Inaction)


# ---------------------------------------------------------------------------
# Scope normalization for state identity

def _extrude(p: Process) -> Process:
    """One bottom-up pass of maximal scope extrusion: every parallel
    component of a restriction's sides that does not mention the bound
    name moves out (instances of the first scope axiom plus units). A
    node the pass leaves unchanged is marked so; a node it rebuilds keeps
    the result for the open `exploration`, so a raw step target that
    later targets share is extruded once. The result is built from p's
    subtrees, never from p, so keeping it makes no reference cycle."""
    ext = p._ext
    if ext is not None:
        return p if ext is True else ext
    kids = _children(p)
    new = tuple(map(_extrude, kids))
    node = p if all(map(is_, kids, new)) else _with_children(p, new)
    if isinstance(node, Restrict):
        x = node.x
        outer, sides = [], []
        for side in (node.left, node.right):
            parts = par_parts(side)
            keep = [c for c in parts if x in free_names(c)]
            if len(keep) < len(parts):
                outer += [c for c in parts if x not in free_names(c)]
                side = par_all(keep)
            sides.append(side)
        if outer:
            node = par_all([Restrict(x, sides[0], sides[1])] + outer)
    if node is p:
        p._ext = True
    elif _scoped is not None:
        p._ext = node
        _scoped.append(p)
    return node


def _swap_candidates(p: Restrict):
    """Applications of the nested-restriction swap axiom at this node:
    new x (new y (P|Q) | R) == new y (new x (P|R) | Q)."""
    x = p.x
    for a, b in ((p.left, p.right), (p.right, p.left)):
        if not isinstance(a, Restrict):
            continue
        y = a.x
        for inner_keep, inner_move in ((a.left, a.right), (a.right, a.left)):
            if x not in free_names(inner_move) and y not in free_names(b):
                yield Restrict(y, Restrict(x, inner_keep, b), inner_move)


def scope_normalize(p: Process) -> Process:
    """Deterministic representative of a process modulo the scope axioms,
    used as state identity in reduction graphs: one extrusion pass, then
    one walk in scope mode. Only structural-congruence axiom instances are
    applied, so equal normal forms imply congruent processes. The result
    is canonical and carries its key. `_extrude` stays an unkeyed pre-pass:
    folded into the keyed walk, it keys each extruded part again at every
    level the part passes through, over ten times slower on a chain of
    nested restrictions."""
    c, k = _walk(_extrude(p), {}, 0, True)
    c._key = k
    return c


# ---------------------------------------------------------------------------
# Scope-rearrangement rewrites and bounded structural congruence

def _scope_rewrites_top(p: Process) -> Iterator[Process]:
    # extrusion: new x ((P|Q) | R) == new x (P|R) | Q  with x not in fn(Q)
    if isinstance(p, Restrict):
        x = p.x
        for l, r in ((p.left, p.right), (p.right, p.left)):
            parts = par_parts(l)
            for i, c in enumerate(parts):
                if x in free_names(c):
                    continue
                rest = parts[:i] + parts[i + 1:]
                inner = par_all(rest) if rest else Inaction()
                yield Par(Restrict(x, inner, r), c)
        yield from _swap_candidates(p)
    # intrusion: new x (P|R) | Q == new x ((P|Q) | R)
    if isinstance(p, Par):
        parts = par_parts(p)
        for i, c in enumerate(parts):
            if not isinstance(c, Restrict):
                continue
            for j, q in enumerate(parts):
                if i == j:
                    continue
                rest = [parts[k] for k in range(len(parts)) if k not in (i, j)]
                for a, b in ((c.left, c.right), (c.right, c.left)):
                    moved = Restrict(c.x, Par(a, q), b)
                    yield par_all(rest + [moved]) if rest else moved


def scope_rewrites(p: Process) -> Iterator[Process]:
    """All single applications of the scope axioms at any position."""
    yield from _scope_rewrites_top(p)
    kids = _children(p)
    for i, q in enumerate(kids):
        for q2 in scope_rewrites(q):
            yield _with_children(p, kids[:i] + (q2,) + kids[i + 1:])


def struct_congruent(p: Process, q: Process, bound: int = 4) -> bool:
    """Decide P == Q by canonicalization plus a bounded bidirectional
    search over the two scope-rearrangement axioms.

    Sound always. Each of the `bound` rounds takes both frontiers one
    rewrite further and the two searches meet from both ends, so it is
    complete on terms whose scope-rewrite distance is within 2·`bound`.
    """
    cp, cq = scope_normalize(p), scope_normalize(q)
    kp, kq = term_key(cp), term_key(cq)
    if kp == kq:
        return True
    seen_p = {kp: cp}
    seen_q = {kq: cq}
    frontier_p, frontier_q = [cp], [cq]
    for _ in range(bound):
        if not frontier_p and not frontier_q:
            break
        # each round expands both frontiers by one rewrite step, p's first
        for seen, other, frontier in ((seen_p, seen_q, frontier_p),
                                      (seen_q, seen_p, frontier_q)):
            new = []
            for t in frontier:
                for r in scope_rewrites(t):
                    cr = canonicalize(r)
                    k = term_key(cr)
                    if k in other:
                        return True
                    if k not in seen:
                        seen[k] = cr
                        new.append(cr)
            frontier[:] = new
    return False
