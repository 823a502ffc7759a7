"""Reference one-step reduction for the differential test.

These are `eager._local_steps`, `_cut_steps` and `_axiom`, and
`contexts.decompositions` and `_decompose`, as they were before local
steps were memoised on each node, the redex search looked only at
prefixes on the cut name and alike sibling threads were searched once,
kept verbatim: every subtree is searched again in every state, every
prefix of both sides of a cut is decomposed and paired, and every copy of
a thread gives its own target. `step_all` is the library's deduplication
loop over them. `test_step_oracle.py` checks that the library lists the
same steps in the same order.
"""

from __future__ import annotations

from eagerpi.contexts import Hole, NPar, NRes, NSum, commit, plug
from eagerpi.eager import Redex
from eagerpi.process import (Branch, Client, Close, Expect, Forward, Inaction,
                             Input, NDChoice, NoneAvail, Output, Par, Process,
                             Restrict, Select, Server, SomeAvail, Success,
                             Wait, PREFIXED, branch_map, canonicalize,
                             freshen_binders, par_all, par_parts,
                             scope_normalize, substitute, sum_all, sum_parts,
                             term_key)


def decompositions(p: Process):
    """All ways to write p as N[q] with q a prefixed process, a forwarder,
    or the success constant. Parallel components and both sides of every
    sum are explored (the commutativity axioms make the hole reachable on
    either side)."""
    out = []
    _decompose(p, lambda ctx: ctx, out)
    return out


def _decompose(p: Process, wrap, out: list):
    """Append the decompositions of p to `out`, each context built once by
    `wrap`, which puts it in the enclosing context."""
    if isinstance(p, PREFIXED) or isinstance(p, (Forward, Success)):
        out.append((wrap(Hole()), p))
    elif isinstance(p, Par):
        parts = par_parts(p)
        for i, c in enumerate(parts):
            rest = par_all(parts[:i] + parts[i + 1:])
            _decompose(c, lambda ctx, rest=rest: wrap(NPar(ctx, rest)), out)
    elif isinstance(p, NDChoice):
        parts = sum_parts(p)
        for i, c in enumerate(parts):
            rest = sum_all(parts[:i] + parts[i + 1:])
            _decompose(c, lambda ctx, rest=rest: wrap(NSum(ctx, rest)), out)
    elif isinstance(p, Restrict):
        x = p.x
        for side, other in ((p.left, p.right), (p.right, p.left)):
            _decompose(side, lambda ctx, o=other: wrap(NRes(x, ctx, o)), out)


def _cut_steps(x, left: Process, right: Process):
    """Axiom instances for the cut `new x (left | right)`."""
    steps = []
    dl = decompositions(left)
    dr = decompositions(right)
    for here, there, dh, dt in ((left, right, dl, dr), (right, left, dr, dl)):
        for n, a in dh:
            # [Id]: the forwarder dissolves the cut and renames the partner
            if isinstance(a, Forward) and x in (a.x, a.y) and a.x != a.y:
                other = a.y if a.x == x else a.x
                tgt = plug(commit(n), substitute(there, other, x))
                steps.append((Redex("id", x, (n, a), (Hole(), there)), tgt))
            for m, b in dt:
                pair = _axiom(x, n, a, m, b)
                if pair is not None:
                    steps.append(pair)
    return steps


def _axiom(x, n, a, m, b):
    """Match one axiom of the eager semantics with `a` under context n and
    `b` under m; returns the redex and the literal right-hand side."""
    match a, b:
        case Close(xa), Wait(xb, q) if xa == x and xb == x:
            tgt = Par(plug(commit(n), Inaction()), plug(commit(m), q))
            return Redex("close", x, (n, a), (m, b)), tgt
        case Output(xa, y, pl, cont), Input(xb, z, r) if xa == x and xb == x:
            recv = plug(commit(m), substitute(r, y, z))
            tgt = plug(commit(n), Restrict(x, cont, Restrict(y, pl, recv)))
            return Redex("comm", x, (n, a), (m, b)), tgt
        case Select(xa, lab, cont), Branch(xb, _) if xa == x and xb == x:
            bm = branch_map(b)
            if lab not in bm:
                return None
            tgt = Restrict(x, plug(commit(n), cont), plug(commit(m), bm[lab]))
            return Redex(f"sel:{lab}", x, (n, a), (m, b)), tgt
        case Client(xa, y, cont), Server(xb, z, q) if xa == x and xb == x:
            replica = freshen_binders(substitute(q, y, z))
            inner = Restrict(x, Restrict(y, plug(commit(n), cont), replica),
                             Server(x, z, q))
            tgt = plug(commit(m), inner)
            return Redex("repl", x, (n, a), (m, b)), tgt
        case SomeAvail(xa, cont), Expect(xb, _, q) if xa == x and xb == x:
            tgt = Restrict(x, plug(commit(n), cont), plug(commit(m), q))
            return Redex("some", x, (n, a), (m, b)), tgt
        case NoneAvail(xa), Expect(xb, deps, _) if xa == x and xb == x:
            fails = par_all([NoneAvail(w) for w in deps])
            tgt = Par(plug(commit(n), Inaction()), plug(commit(m), fails))
            return Redex("none", x, (n, a), (m, b)), tgt
    return None


def _local_steps(p: Process):
    """One-step reducts of p, paired with their redexes (targets are raw,
    not canonicalized)."""
    out = []
    match p:
        case Par(_, _):
            parts = par_parts(p)
            for i, c in enumerate(parts):
                for rdx, tgt in _local_steps(c):
                    out.append((rdx, par_all(parts[:i] + [tgt] + parts[i + 1:])))
        case NDChoice(_, _):
            parts = sum_parts(p)
            for i, c in enumerate(parts):
                for rdx, tgt in _local_steps(c):
                    rebuilt = parts[:i] + [tgt] + parts[i + 1:]
                    out.append((rdx, sum_all(rebuilt)))
        case Restrict(x, l, r):
            for rdx, tgt in _local_steps(l):
                out.append((rdx, Restrict(x, tgt, r)))
            for rdx, tgt in _local_steps(r):
                out.append((rdx, Restrict(x, l, tgt)))
            out.extend(_cut_steps(x, l, r))
        case _:
            pass
    return out


def step_all(p: Process) -> list:
    """(rule, cut, target) of each deduplicated step, in the order of
    `eager.step_all`."""
    cp = canonicalize(p)
    seen = {}
    for rdx, tgt in _local_steps(cp):
        ct = scope_normalize(tgt)
        key = (rdx.rule, term_key(ct))
        if key not in seen:
            seen[key] = (rdx.rule, rdx.cut, ct)
    return list(seen.values())
