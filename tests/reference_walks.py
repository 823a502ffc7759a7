"""Reference binder walks for the differential test.

These are the hand-written walks that `eagerpi.process` and `eagerpi.lam`
used before both modules derived their walks from one binding table per
calculus. They are kept verbatim, except that the process `free_names`
neither reads nor writes the cache on the node (so it cannot answer with,
or seed, the value of the code under test). `test_walk_oracle.py`
checks the table-driven walks against them.
"""

from __future__ import annotations

from typing import Optional

from eagerpi.lam import (Abs, App, Bag, Fail, InterSub, LinSub, LinVar,
                         Sharing, SuccessT, UnrSub, UnrVar)
from eagerpi.names import Name, NameSupply, fresh_name
from eagerpi.process import (Branch, Client, Close, Expect, Forward, Inaction,
                             Input, NDChoice, NoneAvail, Output, Par, Process,
                             Restrict, Select, Server, SomeAvail, Success, Wait)

_NO_NAMES = frozenset()


# ---------------------------------------------------------------------------
# process.py

def free_names(p: Process) -> frozenset:
    """All free names of a process."""
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



# ---------------------------------------------------------------------------
# lam.py

def free_vars(m) -> set:
    out = set()
    _fv(m, out, frozenset())
    return out


def _fv(m, out, bound):
    match m:
        case LinVar(v) | UnrVar(v, _):
            if v not in bound:
                out.add(v)
        case SuccessT():
            pass
        case Fail(vs):
            out.update(v for v in vs if v not in bound)
        case Abs(v, b):
            _fv(b, out, bound | {v})
        case App(f, bg):
            _fv(f, out, bound)
            _fv_bag(bg, out, bound)
        case Sharing(b, als, v):
            _fv(b, out, bound | set(als))
            if v not in bound:
                out.add(v)
        case InterSub(b, bg, v):
            _fv(b, out, bound | {v})
            _fv_bag(bg, out, bound)
        case LinSub(b, items, vs):
            _fv(b, out, bound | set(vs))
            for it in items:
                _fv(it, out, bound)
        case UnrSub(b, slots, v):
            _fv(b, out, bound | {v})
            for s in slots:
                if s is not None:
                    _fv(s, out, bound)
        case Bag():
            _fv_bag(m, out, bound)
        case _:
            raise TypeError(f"not a term: {m!r}")


def _fv_bag(bg, out, bound):
    for it in bg.linear:
        _fv(it, out, bound)
    for s in bg.unr:
        if s is not None:
            _fv(s, out, bound)


def llfv(m) -> frozenset:
    """Free variables with linear occurrences (unrestricted occurrences
    x[i] do not count)."""
    out = set()
    _llfv(m, out, frozenset())
    return frozenset(out)


def _llfv(m, out, bound):
    match m:
        case LinVar(v):
            if v not in bound:
                out.add(v)
        case UnrVar(_, _) | SuccessT():
            pass
        case Fail(vs):
            out.update(v for v in vs if v not in bound)
        case Abs(v, b):
            _llfv(b, out, bound | {v})
        case App(f, bg):
            _llfv(f, out, bound)
            _llfv_bag(bg, out, bound)
        case Sharing(b, als, v):
            _llfv(b, out, bound | set(als))
            if v not in bound:
                out.add(v)
        case InterSub(b, bg, v):
            _llfv(b, out, bound | {v})
            _llfv_bag(bg, out, bound)
        case LinSub(b, items, vs):
            _llfv(b, out, bound | set(vs))
            for it in items:
                _llfv(it, out, bound)
        case UnrSub(b, slots, v):
            _llfv(b, out, bound | {v})
            for s in slots:
                if s is not None:
                    _llfv(s, out, bound)
        case Bag():
            _llfv_bag(m, out, bound)
        case _:
            raise TypeError(f"not a term: {m!r}")


def llfv_bag(bg) -> frozenset:
    out = set()
    _llfv_bag(bg, out, frozenset())
    return frozenset(out)


def _llfv_bag(bg, out, bound):
    for it in bg.linear:
        _llfv(it, out, bound)
    for s in bg.unr:
        if s is not None:
            _llfv(s, out, bound)


def llfv_items(items) -> frozenset:
    out = set()
    for it in items:
        _llfv(it, out, frozenset())
    return frozenset(out)


def freshen_term(m, supply: Optional[NameSupply] = None):
    """Rename every binder (abstraction parameters, aliases, substitution
    variables) to fresh names; used when an unrestricted fetch copies."""
    fresh = supply.variant if supply else (lambda n: fresh_name(n.display))

    def vn(v, env):
        return env.get(v, v)

    def go(m, env):
        match m:
            case LinVar(v):
                return LinVar(vn(v, env))
            case UnrVar(v, i):
                return UnrVar(vn(v, env), i)
            case SuccessT():
                return m
            case Fail(vs):
                return Fail(frozenset(vn(v, env) for v in vs))
            case Abs(v, b):
                v2 = fresh(v)
                return Abs(v2, go(b, {**env, v: v2}))
            case App(f, bg):
                return App(go(f, env), gobag(bg, env))
            case Sharing(b, als, v):
                als2 = tuple(fresh(a) for a in als)
                env2 = {**env, **dict(zip(als, als2))}
                return Sharing(go(b, env2), als2, vn(v, env))
            case InterSub(b, bg, v):
                v2 = fresh(v)
                return InterSub(go(b, {**env, v: v2}), gobag(bg, env), v2)
            case LinSub(b, items, vs):
                vs2 = tuple(fresh(v) for v in vs)
                env2 = {**env, **dict(zip(vs, vs2))}
                return LinSub(go(b, env2), tuple(go(i, env) for i in items), vs2)
            case UnrSub(b, slots, v):
                v2 = fresh(v)
                return UnrSub(go(b, {**env, v: v2}),
                              tuple(None if s is None else go(s, env) for s in slots),
                              v2)
        raise TypeError(f"not a term: {m!r}")

    def gobag(bg, env):
        return Bag(tuple(go(i, env) for i in bg.linear),
                   tuple(None if s is None else go(s, env) for s in bg.unr))

    return go(m, {})


def rename_var(m, new: Name, old: Name):
    """Rename free occurrences of a variable, including its unrestricted
    occurrences and its appearances as a sharing variable or in a failure
    set; shadowing binders stop the renaming."""
    if new == old:
        return m
    match m:
        case LinVar(v):
            return LinVar(new) if v == old else m
        case UnrVar(v, i):
            return UnrVar(new, i) if v == old else m
        case SuccessT():
            return m
        case Fail(vs):
            if old in vs:
                return Fail((vs - {old}) | {new})
            return m
        case Abs(v, b):
            if v == old:
                return m
            return Abs(v, rename_var(b, new, old))
        case App(f, bg):
            return App(rename_var(f, new, old), _rename_bag(bg, new, old))
        case Sharing(b, als, v):
            v2 = new if v == old else v
            b2 = b if old in als else rename_var(b, new, old)
            return Sharing(b2, als, v2)
        case InterSub(b, bg, v):
            b2 = b if v == old else rename_var(b, new, old)
            return InterSub(b2, _rename_bag(bg, new, old), v)
        case LinSub(b, items, vs):
            b2 = b if old in vs else rename_var(b, new, old)
            return LinSub(b2, tuple(rename_var(i, new, old) for i in items), vs)
        case UnrSub(b, slots, v):
            b2 = b if v == old else rename_var(b, new, old)
            return UnrSub(b2, tuple(None if s is None else rename_var(s, new, old)
                                    for s in slots), v)
    raise TypeError(f"not a term: {m!r}")


def _rename_bag(bg, new, old):
    return Bag(tuple(rename_var(i, new, old) for i in bg.linear),
               tuple(None if s is None else rename_var(s, new, old)
                     for s in bg.unr))

