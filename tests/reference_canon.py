"""Reference canonicalizer for the differential test.

This is the two-walk canonicalizer that `eagerpi.process` used before its
keyed single-pass walk: `_canon` sorts children by re-keying them with
`term_key` at every level. It is kept verbatim, with its own free-name and
key functions, so `test_canon_oracle.py` can check that the keyed walk
gives exactly the same keys. Its scope normalization (an extrusion pass
and a swap pass, repeated to a fixpoint) is gone: `reference_scope.py`
keeps the scope mode that replaced it.
"""

from __future__ import annotations

from typing import Optional

from eagerpi.names import Name
from eagerpi.process import (Branch, Client, Close, Expect, Forward, Inaction,
                             Input, NDChoice, NoneAvail, Output, Par, Process,
                             Restrict, Select, Server, SomeAvail, Success, Wait,
                             par_all, par_parts, sum_all, sum_parts)


def free_names(p):
    out = set()
    _fn(p, out, frozenset())
    return out


def _fn(p, out, bound):
    match p:
        case Inaction() | Success():
            pass
        case Forward(x, y):
            out.update(n for n in (x, y) if n not in bound)
        case Par(l, r) | NDChoice(l, r):
            _fn(l, out, bound)
            _fn(r, out, bound)
        case Restrict(x, l, r):
            b = bound | {x}
            _fn(l, out, b)
            _fn(r, out, b)
        case Output(x, y, pl, c):
            if x not in bound:
                out.add(x)
            b = bound | {y}
            _fn(pl, out, b)
            _fn(c, out, b)
        case Input(x, y, c) | Client(x, y, c) | Server(x, y, c):
            if x not in bound:
                out.add(x)
            _fn(c, out, bound | {y})
        case Select(x, _, c) | Wait(x, c) | SomeAvail(x, c):
            if x not in bound:
                out.add(x)
            _fn(c, out, bound)
        case Branch(x, brs):
            if x not in bound:
                out.add(x)
            for _, q in brs:
                _fn(q, out, bound)
        case Close(x) | NoneAvail(x):
            if x not in bound:
                out.add(x)
        case Expect(x, deps, c):
            if x not in bound:
                out.add(x)
            out.update(n for n in deps if n not in bound)
            _fn(c, out, bound)
        case _:
            raise TypeError(f"not a process: {p!r}")



def name_key(n: Name, env: dict):
    lvl = env.get(n)
    return ("b", lvl) if lvl is not None else ("f", n.display)


def term_key(p: Process, env: Optional[dict] = None, depth: int = 0):
    """Serialization of a process, invariant under alpha-renaming.

    Bound names appear as their binder's de Bruijn level, free names as
    their display string. Two processes are structurally equal (up to
    alpha) iff their keys are equal.
    """
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



def canonicalize(p):
    return _canon(p, {}, 0)


def _canon(p: Process, env: dict, depth: int) -> Process:
    match p:
        case Inaction() | Success() | Close(_) | NoneAvail(_):
            return p
        case Forward(x, y):
            if name_key(y, env) < name_key(x, env):
                return Forward(y, x)
            return p
        case Par(_, _):
            parts = []
            for q in par_parts(p):
                cq = _canon(q, env, depth)
                if not isinstance(cq, Inaction):
                    parts.append(cq)
            parts.sort(key=lambda q: term_key(q, env, depth))
            return par_all(parts)
        case NDChoice(_, _):
            seen = {}
            for q in sum_parts(p):
                cq = _canon(q, env, depth)
                seen.setdefault(term_key(cq, env, depth), cq)
            parts = [seen[k] for k in sorted(seen)]
            return sum_all(parts)
        case Restrict(x, l, r):
            env2 = {**env, x: depth}
            cl, cr = _canon(l, env2, depth + 1), _canon(r, env2, depth + 1)
            if isinstance(cl, Server) and cl.x == x and x not in free_names(cr):
                return cr
            if isinstance(cr, Server) and cr.x == x and x not in free_names(cl):
                return cl
            if term_key(cr, env2, depth + 1) < term_key(cl, env2, depth + 1):
                cl, cr = cr, cl
            return Restrict(x, cl, cr)
        case Output(x, y, pl, c):
            env2 = {**env, y: depth}
            return Output(x, y, _canon(pl, env2, depth + 1),
                          _canon(c, env2, depth + 1))
        case Input(x, y, c):
            return Input(x, y, _canon(c, {**env, y: depth}, depth + 1))
        case Client(x, y, c):
            return Client(x, y, _canon(c, {**env, y: depth}, depth + 1))
        case Server(x, y, c):
            return Server(x, y, _canon(c, {**env, y: depth}, depth + 1))
        case Select(x, lab, c):
            return Select(x, lab, _canon(c, env, depth))
        case Branch(x, brs):
            return Branch(x, tuple(sorted(
                ((k, _canon(q, env, depth)) for k, q in brs),
                key=lambda kv: kv[0])))
        case Wait(x, c):
            return Wait(x, _canon(c, env, depth))
        case SomeAvail(x, c):
            return SomeAvail(x, _canon(c, env, depth))
        case Expect(x, deps, c):
            deps2 = tuple(sorted(set(deps),
                                 key=lambda n: name_key(n, env)))
            return Expect(x, deps2, _canon(c, env, depth))
    raise TypeError(f"not a process: {p!r}")
