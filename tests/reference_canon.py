"""Reference canonicalizer for the differential test.

This is the two-walk canonicalizer that `eagerpi.process` used before its
keyed single-pass walk: `_canon` sorts children by re-keying them with
`term_key` at every level, `_swap_pass` re-canonicalizes every candidate of
the restriction-swap axiom, and `scope_normalize` re-keys the whole state
after each pass. It is kept verbatim, with its own free-name and key
functions, so `test_canon_oracle.py` can check that the keyed walk gives
exactly the same keys.
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


def _extrude(p: Process, env: dict, depth: int) -> Process:
    """One bottom-up pass of maximal scope extrusion: every parallel
    component of a restriction's sides that does not mention the bound
    name moves out (instances of the first scope axiom plus units)."""
    match p:
        case Restrict(x, l, r):
            env2 = {**env, x: depth}
            l = _extrude(l, env2, depth + 1)
            r = _extrude(r, env2, depth + 1)
            outer = []
            sides = []
            for side in (l, r):
                keep = []
                for c in par_parts(side):
                    if x in free_names(c):
                        keep.append(c)
                    else:
                        outer.append(c)
                sides.append(par_all(keep))
            core: Process = Restrict(x, sides[0], sides[1])
            if not outer:
                return core
            return par_all([core] + outer)
        case Par(_, _):
            return par_all([_extrude(q, env, depth) for q in par_parts(p)])
        case NDChoice(l, r):
            return NDChoice(_extrude(l, env, depth), _extrude(r, env, depth))
        case Output(x, y, pl, c):
            env2 = {**env, y: depth}
            return Output(x, y, _extrude(pl, env2, depth + 1),
                          _extrude(c, env2, depth + 1))
        case Input(x, y, c):
            return Input(x, y, _extrude(c, {**env, y: depth}, depth + 1))
        case Client(x, y, c):
            return Client(x, y, _extrude(c, {**env, y: depth}, depth + 1))
        case Server(x, y, c):
            return Server(x, y, _extrude(c, {**env, y: depth}, depth + 1))
        case Select(x, lab, c):
            return Select(x, lab, _extrude(c, env, depth))
        case Branch(x, brs):
            return Branch(x, tuple((k, _extrude(q, env, depth)) for k, q in brs))
        case Wait(x, c):
            return Wait(x, _extrude(c, env, depth))
        case SomeAvail(x, c):
            return SomeAvail(x, _extrude(c, env, depth))
        case Expect(x, deps, c):
            return Expect(x, deps, _extrude(c, env, depth))
        case _:
            return p


def _swap_candidates(p: Restrict):
    """Applications of the nested-restriction swap axiom at this node."""
    x = p.x
    for a, b in ((p.left, p.right), (p.right, p.left)):
        if not isinstance(a, Restrict):
            continue
        y = a.x
        for inner_keep, inner_move in ((a.left, a.right), (a.right, a.left)):
            if x not in free_names(inner_move) and y not in free_names(b):
                yield Restrict(y, Restrict(x, inner_keep, b), inner_move)


def _swap_pass(p: Process, env: dict, depth: int) -> Process:
    match p:
        case Restrict(x, l, r):
            env2 = {**env, x: depth}
            l = _swap_pass(l, env2, depth + 1)
            r = _swap_pass(r, env2, depth + 1)
            node = _canon(Restrict(x, l, r), env, depth)
            if isinstance(node, Restrict):
                best = node
                best_key = term_key(node, env, depth)
                for cand in _swap_candidates(node):
                    c = _canon(cand, env, depth)
                    k = term_key(c, env, depth)
                    if k < best_key:
                        best, best_key = c, k
                return best
            return node
        case Par(_, _):
            return par_all([_swap_pass(q, env, depth) for q in par_parts(p)])
        case NDChoice(l, r):
            return NDChoice(_swap_pass(l, env, depth), _swap_pass(r, env, depth))
        case Output(x, y, pl, c):
            env2 = {**env, y: depth}
            return Output(x, y, _swap_pass(pl, env2, depth + 1),
                          _swap_pass(c, env2, depth + 1))
        case Input(x, y, c):
            return Input(x, y, _swap_pass(c, {**env, y: depth}, depth + 1))
        case Client(x, y, c):
            return Client(x, y, _swap_pass(c, {**env, y: depth}, depth + 1))
        case Server(x, y, c):
            return Server(x, y, _swap_pass(c, {**env, y: depth}, depth + 1))
        case Select(x, lab, c):
            return Select(x, lab, _swap_pass(c, env, depth))
        case Branch(x, brs):
            return Branch(x, tuple((k, _swap_pass(q, env, depth)) for k, q in brs))
        case Wait(x, c):
            return Wait(x, _swap_pass(c, env, depth))
        case SomeAvail(x, c):
            return SomeAvail(x, _swap_pass(c, env, depth))
        case Expect(x, deps, c):
            return Expect(x, deps, _swap_pass(c, env, depth))
        case _:
            return p


def scope_normalize(p: Process, limit: int = 50) -> Process:
    """Deterministic representative of a process modulo the scope axioms,
    used as state identity in reduction graphs: extrude maximally, then
    reorder permutable nested restrictions towards the least key. Every
    pass applies only structural-congruence axiom instances, so equal
    normal forms imply congruent processes."""
    p = canonicalize(p)
    prev = None
    for _ in range(limit):
        k = term_key(p)
        if k == prev:
            return p
        prev = k
        p = canonicalize(_extrude(p, {}, 0))
        p = _swap_pass(p, {}, 0)
    return p

