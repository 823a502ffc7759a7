"""Process syntax, free names, substitution, and structural congruence.

The grammar has one constructor per production: inaction, forwarder,
parallel, restriction-over-parallel (connect), non-deterministic choice,
output, input, select, branch, close, wait, client request, server,
availability (some/none), expectation, and the inert success constant OK.

Structural identity of processes is alpha-invariant: `term_key` serializes
a process with de Bruijn levels for bound names and display strings for
free names, and every set-like operation (canonical sorting, reduct
deduplication, state spaces) keys on it.

Nodes are never mutated after construction; rewrites build new nodes and
share unchanged subtrees. Two derived values are therefore cached on the
nodes themselves: every node's free-name set (built from its children's
sets), and on a canonical form computed at the root, its key. The
canonical walk computes each node's key once, bottom-up, and a parent
sorts, deduplicates and orients its children by the keys they returned, so
`canonicalize` and `term_key` cost O(1) on a state that is already
canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, Optional

from .names import Name, NameSupply, fresh_name


class Process:
    __slots__ = ()
    _fn = None    # cached free-name set
    _key = None   # set on canonical forms only: the key at the root


@dataclass(eq=False)
class Inaction(Process):
    pass


@dataclass(eq=False)
class Success(Process):
    pass


@dataclass(eq=False)
class Forward(Process):
    x: Name
    y: Name


@dataclass(eq=False)
class Par(Process):
    left: Process
    right: Process


@dataclass(eq=False)
class Restrict(Process):
    x: Name
    left: Process
    right: Process


@dataclass(eq=False)
class NDChoice(Process):
    left: Process
    right: Process


@dataclass(eq=False)
class Output(Process):
    x: Name
    y: Name          # bound in both continuations
    payload: Process  # behavior on y
    cont: Process     # behavior on x


@dataclass(eq=False)
class Input(Process):
    x: Name
    y: Name
    cont: Process


@dataclass(eq=False)
class Select(Process):
    x: Name
    label: str
    cont: Process


@dataclass(eq=False)
class Branch(Process):
    x: Name
    branches: tuple  # ((label, Process), ...) labels distinct, non-empty


@dataclass(eq=False)
class Close(Process):
    x: Name


@dataclass(eq=False)
class Wait(Process):
    x: Name
    cont: Process


@dataclass(eq=False)
class Client(Process):
    x: Name
    y: Name
    cont: Process


@dataclass(eq=False)
class Server(Process):
    x: Name
    y: Name
    cont: Process


@dataclass(eq=False)
class SomeAvail(Process):
    x: Name
    cont: Process


@dataclass(eq=False)
class NoneAvail(Process):
    x: Name


@dataclass(eq=False)
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
    parts = [p for p in parts]
    if not parts:
        return Inaction()
    acc = parts[-1]
    for p in reversed(parts[:-1]):
        acc = Par(p, acc)
    return acc


def sum_all(parts) -> Process:
    parts = [p for p in parts]
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
# Free names

_NO_NAMES = frozenset()


def free_names(p: Process) -> frozenset:
    """All free names of a process (cached on the node)."""
    fn = p._fn
    if fn is not None:
        return fn
    match p:
        case Inaction() | Success():
            fn = _NO_NAMES
        case Forward(x, y):
            fn = frozenset((x, y))
        case Par(l, r) | NDChoice(l, r):
            fn = free_names(l) | free_names(r)
        case Restrict(x, l, r):
            fn = (free_names(l) | free_names(r)) - {x}
        case Output(x, y, pl, c):
            fn = (free_names(pl) | free_names(c)) - {y} | {x}
        case Input(x, y, c) | Client(x, y, c) | Server(x, y, c):
            fn = free_names(c) - {y} | {x}
        case Select(x, _, c) | Wait(x, c) | SomeAvail(x, c):
            fn = free_names(c) | {x}
        case Branch(x, brs):
            fn = frozenset({x}).union(*(free_names(q) for _, q in brs))
        case Close(x) | NoneAvail(x):
            fn = frozenset((x,))
        case Expect(x, deps, c):
            fn = free_names(c).union(deps, (x,))
        case _:
            raise TypeError(f"not a process: {p!r}")
    p._fn = fn
    return fn


def free_name_split(p: Process):
    """Free names partitioned as (all, linear, unrestricted).

    A free name is unrestricted when every occurrence is the subject of a
    server or client-request prefix; all other occurrences are linear.
    """
    linear: set = set()
    persistent: set = set()
    _fn_split(p, linear, persistent, frozenset())
    return linear | persistent, linear, persistent - linear


def _mark(n, bound, bucket):
    if n not in bound:
        bucket.add(n)


def _fn_split(p, lin, per, bound):
    match p:
        case Inaction() | Success():
            pass
        case Forward(x, y):
            _mark(x, bound, lin)
            _mark(y, bound, lin)
        case Par(l, r) | NDChoice(l, r):
            _fn_split(l, lin, per, bound)
            _fn_split(r, lin, per, bound)
        case Restrict(x, l, r):
            b = bound | {x}
            _fn_split(l, lin, per, b)
            _fn_split(r, lin, per, b)
        case Output(x, y, pl, c):
            _mark(x, bound, lin)
            b = bound | {y}
            _fn_split(pl, lin, per, b)
            _fn_split(c, lin, per, b)
        case Input(x, y, c):
            _mark(x, bound, lin)
            _fn_split(c, lin, per, bound | {y})
        case Client(x, y, c) | Server(x, y, c):
            _mark(x, bound, per)
            _fn_split(c, lin, per, bound | {y})
        case Select(x, _, c) | Wait(x, c) | SomeAvail(x, c):
            _mark(x, bound, lin)
            _fn_split(c, lin, per, bound)
        case Branch(x, brs):
            _mark(x, bound, lin)
            for _, q in brs:
                _fn_split(q, lin, per, bound)
        case Close(x) | NoneAvail(x):
            _mark(x, bound, lin)
        case Expect(x, deps, c):
            _mark(x, bound, lin)
            for n in deps:
                _mark(n, bound, lin)
            _fn_split(c, lin, per, bound)


# ---------------------------------------------------------------------------
# Substitution and binder freshening

def substitute(p: Process, new: Name, old: Name) -> Process:
    """Capture-avoiding substitution of `new` for free occurrences of `old`.

    Binder ids are globally unique, so capture cannot arise; shadowing is
    still respected defensively.
    """
    if new == old:
        return p
    return _subst(p, new, old)


def _sn(n, new, old):
    return new if n == old else n


def _subst(p, new, old):
    match p:
        case Inaction() | Success():
            return p
        case Forward(x, y):
            return Forward(_sn(x, new, old), _sn(y, new, old))
        case Par(l, r):
            return Par(_subst(l, new, old), _subst(r, new, old))
        case NDChoice(l, r):
            return NDChoice(_subst(l, new, old), _subst(r, new, old))
        case Restrict(x, l, r):
            if x == old:
                return p
            return Restrict(x, _subst(l, new, old), _subst(r, new, old))
        case Output(x, y, pl, c):
            x2 = _sn(x, new, old)
            if y == old:
                return Output(x2, y, pl, c)
            return Output(x2, y, _subst(pl, new, old), _subst(c, new, old))
        case Input(x, y, c):
            x2 = _sn(x, new, old)
            if y == old:
                return Input(x2, y, c)
            return Input(x2, y, _subst(c, new, old))
        case Client(x, y, c):
            x2 = _sn(x, new, old)
            if y == old:
                return Client(x2, y, c)
            return Client(x2, y, _subst(c, new, old))
        case Server(x, y, c):
            x2 = _sn(x, new, old)
            if y == old:
                return Server(x2, y, c)
            return Server(x2, y, _subst(c, new, old))
        case Select(x, lab, c):
            return Select(_sn(x, new, old), lab, _subst(c, new, old))
        case Branch(x, brs):
            return Branch(_sn(x, new, old),
                          tuple((k, _subst(q, new, old)) for k, q in brs))
        case Close(x):
            return Close(_sn(x, new, old))
        case Wait(x, c):
            return Wait(_sn(x, new, old), _subst(c, new, old))
        case SomeAvail(x, c):
            return SomeAvail(_sn(x, new, old), _subst(c, new, old))
        case NoneAvail(x):
            return NoneAvail(_sn(x, new, old))
        case Expect(x, deps, c):
            return Expect(_sn(x, new, old),
                          tuple(_sn(n, new, old) for n in deps),
                          _subst(c, new, old))
    raise TypeError(f"not a process: {p!r}")


def rename_free(p: Process, mapping: dict) -> Process:
    out = p
    for old, new in mapping.items():
        out = substitute(out, new, old)
    return out


def freshen_binders(p: Process, supply: Optional[NameSupply] = None) -> Process:
    """Rename every binder in `p` to a fresh name (used when a rule copies
    a subprocess, e.g. server replication)."""
    fresh = supply.variant if supply else (lambda n: fresh_name(n.display))

    def go(q, env):
        match q:
            case Inaction() | Success():
                return q
            case Forward(x, y):
                return Forward(env.get(x, x), env.get(y, y))
            case Par(l, r):
                return Par(go(l, env), go(r, env))
            case NDChoice(l, r):
                return NDChoice(go(l, env), go(r, env))
            case Restrict(x, l, r):
                x2 = fresh(x)
                env2 = {**env, x: x2}
                return Restrict(x2, go(l, env2), go(r, env2))
            case Output(x, y, pl, c):
                y2 = fresh(y)
                env2 = {**env, y: y2}
                return Output(env.get(x, x), y2, go(pl, env2), go(c, env2))
            case Input(x, y, c):
                y2 = fresh(y)
                return Input(env.get(x, x), y2, go(c, {**env, y: y2}))
            case Client(x, y, c):
                y2 = fresh(y)
                return Client(env.get(x, x), y2, go(c, {**env, y: y2}))
            case Server(x, y, c):
                y2 = fresh(y)
                return Server(env.get(x, x), y2, go(c, {**env, y: y2}))
            case Select(x, lab, c):
                return Select(env.get(x, x), lab, go(c, env))
            case Branch(x, brs):
                return Branch(env.get(x, x),
                              tuple((k, go(b, env)) for k, b in brs))
            case Close(x):
                return Close(env.get(x, x))
            case Wait(x, c):
                return Wait(env.get(x, x), go(c, env))
            case SomeAvail(x, c):
                return SomeAvail(env.get(x, x), go(c, env))
            case NoneAvail(x):
                return NoneAvail(env.get(x, x))
            case Expect(x, deps, c):
                return Expect(env.get(x, x),
                              tuple(env.get(n, n) for n in deps),
                              go(c, env))
        raise TypeError(f"not a process: {q!r}")

    return go(p, {})


# ---------------------------------------------------------------------------
# Alpha-invariant structural keys

def name_key(n: Name, env: dict):
    lvl = env.get(n)
    return ("b", lvl) if lvl is not None else ("f", n.display)


def term_key(p: Process, env: Optional[dict] = None, depth: int = 0):
    """Serialization of a process, invariant under alpha-renaming.

    Bound names appear as their binder's de Bruijn level, free names as
    their display string. Two processes are structurally equal (up to
    alpha) iff their keys are equal.
    """
    if not env and depth == 0 and p._key is not None:
        return p._key
    if env is None:
        env = {}
    match p:
        case Inaction():
            return ("0",)
        case Success():
            return ("ok",)
        case Forward(x, y):
            ks = sorted([name_key(x, env), name_key(y, env)])
            return ("fwd", ks[0], ks[1])
        case Par(_, _):
            return ("par", tuple(sorted(term_key(q, env, depth)
                                        for q in par_parts(p))))
        case NDChoice(_, _):
            return ("sum", tuple(sorted(set(term_key(q, env, depth)
                                            for q in sum_parts(p)))))
        case Restrict(x, l, r):
            env2 = {**env, x: depth}
            ks = sorted([term_key(l, env2, depth + 1),
                         term_key(r, env2, depth + 1)])
            return ("res", ks[0], ks[1])
        case Output(x, y, pl, c):
            env2 = {**env, y: depth}
            return ("out", name_key(x, env), term_key(pl, env2, depth + 1),
                    term_key(c, env2, depth + 1))
        case Input(x, y, c):
            env2 = {**env, y: depth}
            return ("in", name_key(x, env), term_key(c, env2, depth + 1))
        case Client(x, y, c):
            env2 = {**env, y: depth}
            return ("cli", name_key(x, env), term_key(c, env2, depth + 1))
        case Server(x, y, c):
            env2 = {**env, y: depth}
            return ("srv", name_key(x, env), term_key(c, env2, depth + 1))
        case Select(x, lab, c):
            return ("sel", name_key(x, env), lab, term_key(c, env, depth))
        case Branch(x, brs):
            return ("bra", name_key(x, env),
                    tuple((k, term_key(q, env, depth)) for k, q in brs))
        case Close(x):
            return ("close", name_key(x, env))
        case Wait(x, c):
            return ("wait", name_key(x, env), term_key(c, env, depth))
        case SomeAvail(x, c):
            return ("psome", name_key(x, env), term_key(c, env, depth))
        case NoneAvail(x):
            return ("pnone", name_key(x, env))
        case Expect(x, deps, c):
            return ("exp", name_key(x, env),
                    tuple(sorted(name_key(n, env) for n in deps)),
                    term_key(c, env, depth))
    raise TypeError(f"not a process: {p!r}")


def alpha_equal(p: Process, q: Process) -> bool:
    return term_key(p) == term_key(q)


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
    levels below `depth`; the key is `term_key(form, env, depth)`.

    A parent sorts, deduplicates and orients its children by the keys they
    returned, so no subtree is keyed twice. With `swap`, every restriction
    also takes the least-keyed instance of the nested-restriction swap
    axiom. Unchanged nodes other than sums and parallels are returned as
    they are.
    """
    if depth == 0 and not swap and p._key is not None:
        return p, p._key
    # cases in order of frequency in translated states
    match p:
        case Wait(x, c) | SomeAvail(x, c):
            cc, kc = _walk(c, env, depth, swap)
            node = p if cc is c else type(p)(x, cc)
            return node, (_TAGS[type(p)], name_key(x, env), kc)
        case Expect(x, deps, c):
            cc, kc = _walk(c, env, depth, swap)
            if len(deps) > 1:
                deps2 = tuple(sorted(set(deps),
                                     key=lambda n: name_key(n, env)))
            else:
                deps2 = deps
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
                    return _walk(other, env, depth, False)
            if kr < kl:
                cl, kl, cr, kr = cr, kr, cl, kl
            node = p if cl is l and cr is r else Restrict(x, cl, cr)
            key = ("res", kl, kr)
            if swap:
                for cand in _swap_candidates(node):
                    c, k = _walk(cand, env, depth, False)
                    if k < key:
                        node, key = c, k
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
                if isinstance(cq, Par):   # a collected server's survivor
                    items.extend(zip(par_parts(cq), kq[1]))
                elif not isinstance(cq, Inaction):
                    items.append((cq, kq))
            items.sort(key=itemgetter(1))
            if len(items) < 2:
                return items[0] if items else (Inaction(), ("0",))
            return (par_all([c for c, _ in items]),
                    ("par", tuple(k for _, k in items)))
        case Inaction():
            return p, ("0",)
        case Close(x):
            return p, ("close", name_key(x, env))
        case Success():
            return p, ("ok",)
        case NDChoice(_, _):
            seen = {}
            for q in sum_parts(p):
                cq, kq = _walk(q, env, depth, swap)
                pairs = (zip(sum_parts(cq), kq[1])
                         if isinstance(cq, NDChoice) else ((cq, kq),))
                for c, k in pairs:
                    seen.setdefault(k, c)
            keys = sorted(seen)
            if len(keys) == 1:
                return seen[keys[0]], keys[0]
            return sum_all([seen[k] for k in keys]), ("sum", tuple(keys))
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

def _children(p: Process) -> tuple:
    """The immediate subprocesses of p, in a fixed order."""
    match p:
        case Par(l, r) | NDChoice(l, r) | Restrict(_, l, r):
            return (l, r)
        case Output(_, _, pl, c):
            return (pl, c)
        case Input(_, _, c) | Client(_, _, c) | Server(_, _, c) \
                | Select(_, _, c) | Wait(_, c) | SomeAvail(_, c) \
                | Expect(_, _, c):
            return (c,)
        case Branch(_, brs):
            return tuple(q for _, q in brs)
    return ()


def _with_children(p: Process, kids) -> Process:
    """A node like p with the subprocesses `kids` (as ordered by
    `_children`)."""
    if isinstance(p, Branch):
        labels = (k for k, _ in p.branches)
        return Branch(p.x, tuple(zip(labels, kids)))
    # every other node lists its subprocesses last among its fields
    fields = [getattr(p, f) for f in p.__dataclass_fields__]
    return type(p)(*fields[:len(fields) - len(kids)], *kids)


def _map(p: Process, f) -> Process:
    """p with f applied to each immediate subprocess; p itself when f
    returns every subprocess unchanged."""
    kids = _children(p)
    new = tuple(f(q) for q in kids)
    if all(a is b for a, b in zip(kids, new)):
        return p
    return _with_children(p, new)


def _extrude(p: Process) -> Process:
    """One bottom-up pass of maximal scope extrusion: every parallel
    component of a restriction's sides that does not mention the bound
    name moves out (instances of the first scope axiom plus units)."""
    node = _map(p, _extrude)
    if not isinstance(node, Restrict):
        return node
    x = node.x
    outer, sides = [], []
    for side in (node.left, node.right):
        parts = par_parts(side)
        keep = [c for c in parts if x in free_names(c)]
        if len(keep) < len(parts):
            outer += [c for c in parts if x not in free_names(c)]
            side = par_all(keep)
        sides.append(side)
    if not outer:
        return node
    return par_all([Restrict(x, sides[0], sides[1])] + outer)


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


def scope_normalize(p: Process, limit: int = 50) -> Process:
    """Deterministic representative of a process modulo the scope axioms,
    used as state identity in reduction graphs: extrude maximally, then
    reorder permutable nested restrictions towards the least key. Every
    pass applies only structural-congruence axiom instances, so equal
    normal forms imply congruent processes. The result is canonical, and
    each pass's key comes out of its walk, so the fixpoint test is free."""
    p, key = _canonical(p)
    for _ in range(limit):
        p, k = _walk(_extrude(p), {}, 0, True)
        p._key = k
        if k == key:
            break
        key = k
    return p


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

    Sound always; complete on terms whose scope-rewrite distance is
    within `bound`.
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
        # expand the smaller frontier first
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
