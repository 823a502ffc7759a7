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
identity: a walk in scope mode brings each maximal `|`/`new` spine (a
cluster) to a canonical cut tree (`_cluster`). That form is exact: two
processes are congruent iff their scope-normal keys are equal, which is
all `struct_congruent` checks.

Nodes are never mutated after construction; rewrites build new nodes and
share unchanged subtrees. Values derived from a node are therefore cached
on it, in slots: its free-name set, whether it holds a restriction, on a
canonical form its key at the root, and the memo of `_walk`: for each
context it was walked in (depth, levels of its free names, scope mode if
it holds a restriction), its key, so a subtree or a cluster that a step
left alone is not walked again. An entry holds a context and a key, never
a node, which would put the node in a reference cycle. Equal contexts and
name keys are one shared tuple. Two more slots live only for the open
`exploration`: a node's local steps (`eager._local_steps`) and, on a node
not in its form, the form and key its last walk returned (built from its
subtrees, never from the node), so a raw step target that later targets
share is normalized once.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Iterator, Optional

from .names import Name, NameSupply, fresh_name


_scoped = None   # the nodes holding memos of the open exploration


@contextmanager
def exploration():
    """Share the memos of one exploration among the states it visits,
    which share subtrees: each node's local steps and the form of its
    last walk. When the outermost exploration ends, those memos are
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
            p._steps = p._form = None
        _scoped = None


class Process:
    __slots__ = ("_fn", "_key", "_memo", "_res", "_steps", "_form")

    def __post_init__(self):
        self._fn = self._key = self._memo = self._res = self._steps = None
        self._form = None


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

    The two scope-rearrangement axioms are *not* applied here;
    `scope_normalize` adds them. Sorting keys are computed relative to the
    enclosing binders, so same-display bound names keep their identity.
    """
    return _canonical(p)[0]


def _canonical(p: Process):
    c, k = _walk(p, {}, 0, False)
    c._key = k
    return c, k


_TAGS = {Input: "in", Client: "cli", Server: "srv", Wait: "wait",
         SomeAvail: "psome"}


def _walk(p: Process, env: dict, depth: int, scope: bool):
    """(canonical form of p, its key), with the binders of `env` open at
    levels below `depth`. The key serializes the form with each bound name
    as its binder's level and each free name as its display string;
    `tests/reference_canon.term_key` spells the format out and checks it.

    A parent sorts, deduplicates and orients its children by the keys they
    returned, so no subtree is keyed twice. In `scope` mode a restriction
    roots a cluster, which `_cluster` brings to its scope-normal form; a
    cut of two threads that hold its name is walked directly (`_is_cut`).
    A node already in its form is returned as it is, its key memoised.
    """
    if depth == 0 and not scope and p._key is not None:
        return p, p._key
    scope = scope and _has_restrict(p)
    ctx = (depth, scope, *map(env.get, free_names(p)))
    ctx = _SHARED.setdefault(ctx, ctx)
    memo = p._memo or ()
    for i in range(0, len(memo), 2):
        if memo[i] == ctx:
            return p, memo[i + 1]
    if p._form is not None and p._form[0] is ctx:
        return p._form[1]
    if scope and type(p) is Restrict and not _is_cut(p):
        node, key = _cluster(p, env, depth)
    else:
        node, key = _walk_node(p, env, depth, scope)
    if node is p:
        p._memo = memo + (ctx, key)
    elif _scoped is not None:
        p._form = ctx, (node, key)
        _scoped.append(p)
    return node, key


def _is_cut(p: Restrict) -> bool:
    """Whether p is a cluster of one binder, both sides threads that hold
    its name: its walk is its scope-normal form unless a side collects a
    server and loses the name, which sends it to `_cluster`. Each side is
    walked once, in the context the form keys it in; `_cluster` would
    first walk a side that holds a restriction with the binder free."""
    return all(type(s) not in (Par, Restrict, NDChoice)
               and p.x in free_names(s) for s in (p.left, p.right))


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


def _walk_node(p: Process, env: dict, depth: int, scope: bool):
    # cases in order of frequency in translated states
    match p:
        case Wait(x, c) | SomeAvail(x, c):
            cc, kc = _walk(c, env, depth, scope)
            node = p if cc is c else type(p)(x, cc)
            return node, (_TAGS[type(p)], name_key(x, env), kc)
        case Expect(x, deps, c):
            cc, kc = _walk(c, env, depth, scope)
            deps2 = deps if len(deps) < 2 else tuple(
                sorted(set(deps), key=lambda n: name_key(n, env)))
            node = p if cc is c and deps2 == deps else Expect(x, deps2, cc)
            return node, ("exp", name_key(x, env),
                          tuple(name_key(n, env) for n in deps2), kc)
        case Input(x, y, c) | Client(x, y, c) | Server(x, y, c):
            cc, kc = _walk(c, {**env, y: depth}, depth + 1, scope)
            node = p if cc is c else type(p)(x, y, cc)
            return node, (_TAGS[type(p)], name_key(x, env), kc)
        case NoneAvail(x):
            return p, ("pnone", name_key(x, env))
        case Restrict(x, l, r):
            env2 = {**env, x: depth}
            cl, kl = _walk(l, env2, depth + 1, scope)
            cr, kr = _walk(r, env2, depth + 1, scope)
            if scope and (x not in free_names(cl) or x not in free_names(cr)):
                return _cluster(Restrict(x, cl, cr), env, depth)
            # an unused server is garbage; the survivor moves up one level
            for srv, other in ((cl, cr), (cr, cl)):
                if isinstance(srv, Server) and srv.x == x \
                        and x not in free_names(other):
                    return _walk(other, env, depth, scope)
            if kr < kl:
                cl, kl, cr, kr = cr, kr, cl, kl
            node = p if cl is l and cr is r else Restrict(x, cl, cr)
            return node, ("res", kl, kr)
        case Output(x, y, pl, c):
            env2 = {**env, y: depth}
            cpl, kpl = _walk(pl, env2, depth + 1, scope)
            cc, kc = _walk(c, env2, depth + 1, scope)
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
                cq, kq = _walk(q, env, depth, scope)
                if isinstance(cq, Par):   # a survivor of a collected server
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
                cq, kq = _walk(q, env, depth, scope)
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
            walked = [_walk(q, env, depth, scope) for _, q in ordered]
            forms = tuple(zip(labels, (c for c, _ in walked)))
            node = p if forms == brs else Branch(x, forms)
            return node, ("bra", name_key(x, env),
                          tuple(zip(labels, (k for _, k in walked))))
        case Select(x, lab, c):
            cc, kc = _walk(c, env, depth, scope)
            node = p if cc is c else Select(x, lab, cc)
            return node, ("sel", name_key(x, env), lab, kc)
    raise TypeError(f"not a process: {p!r}")


def is_inert(p: Process) -> bool:
    """The `P == 0` test of the deadlock-freedom statement: canonical form
    is syntactically inaction."""
    return isinstance(canonicalize(p), Inaction)


# ---------------------------------------------------------------------------
# Scope normalization for state identity

def _bits(m: int) -> Iterator[int]:
    """The indices of the set bits of m, lowest first."""
    while m:
        b = m & -m
        yield b.bit_length() - 1
        m ^= b


def _flatten(p: Process, env: dict, depth: int):
    """The cluster rooted at p, in input order: its binders (renamed where
    they could capture), their restriction nodes, its threads (maximal
    subterms neither `|` nor `new`, `0` dropped), the mask of binders each
    thread holds, and each binder's holders on its left and right. A sum
    or a thread holding a restriction is walked first, with the binders
    free, for the names its form holds and the part a sum collapses to.
    Then a binder whose one holder is a server on it is collected, with
    that thread, to a fixpoint."""
    names, binders, threads, holds, sides = [], [], [], [], []
    fn = free_names(p)
    todo = [(p, {})]
    while todo:
        q, path = todo.pop()
        cls = type(q)
        if cls is Par:
            todo += ((q.right, path), (q.left, path))
        elif cls is Restrict:
            x = q.x
            if x in fn or x in names:
                y = fresh_name(x.display)
                q = Restrict(y, substitute(q.left, y, x),
                             substitute(q.right, y, x))
                x = y
            names.append(x)
            binders.append(q)
            sides.append([0, 0])
            i = len(names) - 1
            todo += ((q.right, {**path, x: (i, 1)}),
                     (q.left, {**path, x: (i, 0)}))
        elif cls is not Inaction:
            fq = free_names(q)
            if cls is NDChoice or _has_restrict(q):
                c = _walk(q, env, depth, True)[0]
                if type(c) is not cls:
                    todo.append((c, path))
                    continue
                fq = free_names(c)
            bit, held = 1 << len(threads), 0
            threads.append(q)
            for n, (j, side) in path.items():
                if n in fq:
                    held |= 1 << j
                    sides[j][side] |= bit
            holds.append(held)
    live = (1 << len(names)) - 1
    collected = True
    while collected:
        collected = False
        for i in _bits(live):
            h = sides[i][0] | sides[i][1]
            t = h.bit_length() - 1
            if h and h == 1 << t and type(threads[t]) is Server \
                    and threads[t].x == names[i]:
                for j in _bits(holds[t]):
                    sides[j][0] &= ~h
                    sides[j][1] &= ~h
                holds[t] = 0
                threads[t] = None
                live &= ~(1 << i)
                collected = True
    return names, binders, threads, holds, sides, live


def _cluster(p: Process, env: dict, depth: int):
    """(scope-normal form of the cluster rooted at p, its key), with the
    binders of `env` open at levels below `depth`.

    The scope axioms keep a cluster's threads and, for each binder, which
    of its holders sit on which side (`_flatten`). A cut tree nests binary
    restrictions `new x (L | R)` consistently with those sides: choose the
    outermost binder x of each connected component, move the parts that do
    not hold x out of its scope, split the others to its two sides, and
    recurse on each side's components. The binders a component may choose
    are narrowed to those whose cut has the least lower bound of its key
    (exact where a side is one thread; `nd_precongruence` matches two
    forms cut by cut, so this comes first), then to those of least `rank`,
    then, of three or more, to one per orbit (`twins`), and the cut of
    least key among them is kept. Bound, rank and orbit depend only on the congruence class,
    and binders of one orbit root cuts of one least key, so the form is
    exact. Each sub-problem is solved once per depth and levels of its
    outer binders. Ties go to the first binder in input order."""
    names, binders, threads, holds, sides, live = _flatten(p, env, depth)
    holders = [a | b for a, b in sides]
    best = {}
    anon = {**env, **{n: -3 - i for i, n in enumerate(names)}}

    def parts(ts: int, open_: int) -> list:
        """The connected components of the threads `ts`, joined by the
        binders in `open_`, each as (threads, binders), by first thread."""
        out = []
        while ts:
            comp = todo = ts & -ts
            ns = 0
            while todo:
                b = todo & -todo
                todo ^= b
                new = holds[b.bit_length() - 1] & open_ & ~ns
                ns |= new
                for i in _bits(new):
                    todo |= holders[i] & ~comp
                    comp |= holders[i]
            out.append((comp, ns))
            ts &= ~comp
        return out

    def thread(t: int, env: dict, depth: int):
        return _walk(threads[t], env, depth, True)

    def side(i: int, t: int) -> int:
        return sides[i][1] >> t & 1

    def rank(i: int, ns: int, env: dict, depth: int):
        """How the holders of binder i use it: their keys on each side,
        with i at one level, the other open binders `ns` at another and
        the outer ones at their levels in `env`."""
        mark = {**env, **{names[k]: -1 for k in _bits(ns)}, names[i]: -2}
        return sorted(sorted(thread(t, mark, depth)[1] for t in _bits(s))
                      for s in sides[i])

    def twins(i: int, j: int, ns: int) -> bool:
        """Whether a permutation of the binders `ns` that takes i to j,
        keeping or exchanging each one's sides, maps the cluster onto
        itself; a cut on i then has a twin on j of the same key. It is
        built from i, first come first: each holder t of a mapped binder
        goes to a free holder u of its image, and each unmapped binder of
        t to a free binder of u, where they key alike with the binders
        mapped so far at levels of their own (`anon`), the others open
        ones at one level and the one matched at another; that fails
        where t's unmapped binders share out their positions otherwise
        than u's. Each binder must sit on the same sides of both threads
        up to its exchange. A matched pair of threads then keys alike
        with all its binders mapped, with no check left to make: it keyed
        alike with the unmapped binders at one level, and each binder
        matched since holds the same positions in both. A permutation
        this misses has its binders tried each."""
        sigma, flip, image, todo = {i: j}, {}, {}, [i]
        taken, used = 0, 1 << j

        def lab(t: int, img: bool, b=None):
            e = {**anon, **{names[k]: -1 for k in _bits(ns)}}
            e.update((names[m if img else k], anon[names[k]])
                     for k, m in sigma.items())
            if b is not None:
                e[names[b]] = -2
            return thread(t, e, depth)[1]

        while todo:
            b = todo.pop()
            c = sigma[b]
            for t in _bits(holders[b]):
                if t in image:
                    continue
                kt = lab(t, False)
                for u in _bits(holders[c] & ~taken):
                    f = side(b, t) ^ side(c, u)
                    if flip.get(b, f) == f and lab(u, True) == kt:
                        break
                else:
                    return False
                image[t] = u
                taken |= 1 << u
                for k in _bits(holds[t] & ns):
                    if k not in sigma:
                        kt = lab(t, False, k)
                        for m in _bits(holds[u] & ns & ~used):
                            if lab(u, True, m) == kt:
                                break
                        else:
                            return False
                        sigma[k] = m
                        used |= 1 << m
                        todo.append(k)
                    f = side(k, t) ^ side(sigma[k], u)
                    if flip.setdefault(k, f) != f:
                        return False
        return True

    def forest(items, env: dict, depth: int, olds):
        """(form, key) of the parts `items`, reusing a node of `olds`
        that already is that form."""
        out = [cut(c, ns, env, depth) if ns else
               thread(c.bit_length() - 1, env, depth) for c, ns in items]
        out.sort(key=itemgetter(1))
        if len(out) == 1:
            return out[0]
        forms = [c for c, _ in out]
        same = [o for o in olds if (_is_chain(o, Par, forms) if forms
                                    else type(o) is Inaction)]
        node = same[0] if same else par_all(forms) if forms else Inaction()
        return node, ("par", tuple(k for _, k in out)) if out else ("0",)

    def bound(items, env: dict, depth: int):
        """A lower bound of the key of the parts `items`: exact for one
        thread."""
        lows = [thread(c.bit_length() - 1, env, depth)[1] if not ns
                else ("res",) for c, ns in items]
        if len(lows) == 1:
            return lows[0]
        return ("par", (min(lows),)) if lows else ("0",)

    def cut(ts: int, ns: int, env: dict, depth: int):
        """(form, key) of the component `ts` joined by the open binders
        `ns`: its least cut on a binder of least bound, then of least
        rank, trying one binder per orbit."""
        if ns & (ns - 1) == 0:
            # one binder: its holders, each alone, on its two sides
            i = ns.bit_length() - 1
            return least([(i, *([(1 << t, 0) for t in _bits(ts & side)]
                                for side in sides[i]),
                           {**env, names[i]: depth})], ns, depth)
        held = 0
        for t in _bits(ts):
            held |= holds[t]
        k = (ts, ns, depth, *[env[names[i]] for i in _bits(held & ~ns)])
        if k not in best:
            best[k] = least(candidates(ts, ns, env, depth), ns, depth)
        return best[k]

    def candidates(ts: int, ns: int, env: dict, depth: int) -> list:
        """The binders of `ns` that may be outermost in the component `ts`,
        each with the parts on its two sides, narrowed to those of least
        bound, then of least rank."""
        cands = []
        for i in _bits(ns):
            left, right = [], []
            for c, cns in parts(ts, ns & ~(1 << i)):
                if c & sides[i][0] and c & sides[i][1]:
                    break
                (left if c & sides[i][0] else right).append((c, cns))
            else:
                cands.append((i, left, right, {**env, names[i]: depth}))
        for low in (lambda i, left, right, env2: min(
                        bound(left, env2, depth + 1),
                        bound(right, env2, depth + 1)),
                    lambda i, *_: rank(i, ns, env, depth)):
            if len(cands) > 1:
                lows = [low(*c) for c in cands]
                cands = [c for c, b in zip(cands, lows) if b == min(lows)]
        return cands

    def least(cands: list, ns: int, depth: int):
        """(form, key) of the least cut of `cands`. Of three or more, one
        binder is tried per orbit: `twins` walks the threads it maps, which
        costs about what trying a second binder does."""
        choice, tried = None, []
        for i, left, right, env2 in cands:
            if len(cands) > 2 and any(twins(j, i, ns) for j in tried):
                continue
            tried.append(i)
            old = binders[i]
            (l, kl), (r, kr) = (
                forest(side, env2, depth + 1, (old.left, old.right))
                for side in (left, right))
            if kr < kl:
                l, kl, r, kr = r, kr, l, kl
            if choice is None or ("res", kl, kr) < choice[1]:
                node = old if old.left is l and old.right is r \
                    else Restrict(names[i], l, r)
                choice = node, ("res", kl, kr)
        return choice

    everything = sum(1 << t for t, q in enumerate(threads) if q is not None)
    items = parts(everything, live)
    items += [(0, 1 << i) for i in _bits(live) if not holders[i]]
    try:
        return forest(items, env, depth, (p,))
    finally:
        # the recursive helpers close reference cycles through the nodes
        # in these tables; cutting them frees the nodes without the
        # cycle collector
        cut = forest = None


def scope_normalize(p: Process) -> Process:
    """Representative of a process modulo structural congruence, the
    scope axioms included, used as state identity in reduction graphs:
    one canonical walk in scope mode, which brings every cluster to its
    canonical cut tree (`_cluster`). Two processes are congruent iff
    their normal forms have equal keys. The result is canonical and
    carries its key."""
    c, k = _walk(p, {}, 0, True)
    c._key = k
    return c


# ---------------------------------------------------------------------------
# Scope-rearrangement rewrites and structural congruence

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
        # swap: new x (new y (P|Q) | R) == new y (new x (P|R) | Q)
        for a, b in ((p.left, p.right), (p.right, p.left)):
            if not isinstance(a, Restrict):
                continue
            y = a.x
            for keep, move in ((a.left, a.right), (a.right, a.left)):
                if x not in free_names(move) and y not in free_names(b):
                    yield Restrict(y, Restrict(x, keep, b), move)
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


def struct_congruent(p: Process, q: Process) -> bool:
    """Decide P == Q, the scope axioms included: equal scope-normal
    keys."""
    return term_key(scope_normalize(p)) == term_key(scope_normalize(q))
