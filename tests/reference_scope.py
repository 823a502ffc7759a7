"""Reference scope normalization for the differential test.

This is the scope mode that `eagerpi.process` used before its exact
scope-normal form: one unkeyed extrusion pass (`_extrude`), then one
canonical walk that takes the least-keyed instance of the restriction-swap
axiom at every restriction (`_swap_candidates`), and `struct_congruent`'s
bounded two-sided search over the scope rewrites. It is kept verbatim,
except that the walk memo and the extrusion results live in this module's
tables, emptied by each `scope_normalize`, rather than in slots on the
nodes (which the code under test uses for its own walk), and that
`scope_normalize` leaves no key on its result. `test_canon_oracle.py`
checks the exact form against it.
"""

from __future__ import annotations

from operator import is_, itemgetter

from eagerpi.process import (Branch, Close, Expect, Forward, Inaction, Input,
                             NDChoice, NoneAvail, Output, Par, Process,
                             Restrict, Select, Server, SomeAvail, Success,
                             Wait, Client, _TAGS, _SHARED, _children,
                             _has_restrict, _is_chain, _with_children, alike,
                             canonicalize, free_names, name_key, par_all,
                             par_parts, scope_rewrites, sum_all, sum_parts,
                             term_key)

_MEMO = {}  # id(node) -> (node, memo of the walk)
_EXT = {}   # id(node) -> (node, result of _extrude)


def _walk(p: Process, env: dict, depth: int, swap: bool):
    if depth == 0 and not swap and p._key is not None:
        return p, p._key
    ctx = (depth, swap and _has_restrict(p), *map(env.get, free_names(p)))
    ctx = _SHARED.setdefault(ctx, ctx)
    memo = _MEMO.get(id(p), (p, ()))[1]
    for i in range(0, len(memo), 2):
        if memo[i] == ctx:
            return p, memo[i + 1]
    node, key = _walk_node(p, env, depth, swap)
    if node is p:
        _MEMO[id(p)] = (p, memo + (ctx, key))
    return node, key


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


def _extrude(p: Process) -> Process:
    """One bottom-up pass of maximal scope extrusion: every parallel
    component of a restriction's sides that does not mention the bound
    name moves out (instances of the first scope axiom plus units)."""
    if id(p) in _EXT:
        return _EXT[id(p)][1]
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
    _EXT[id(p)] = (p, node)
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
    one walk in scope mode."""
    _MEMO.clear()
    _EXT.clear()
    try:
        return _walk(_extrude(p), {}, 0, True)[0]
    finally:
        _MEMO.clear()
        _EXT.clear()


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
