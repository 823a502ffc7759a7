"""One-hole ND-contexts, their commitment, and redex-position search.

An ND-context has its hole under parallel compositions, restrictions and
non-deterministic sums; a D-context is one with no sum node on the hole's
path. Commitment discards the sum siblings along that path, which is how a
synchronization inside a choice discards the branches not involved in it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .names import Name
from .process import (Forward, NDChoice, Par, Process, Restrict, PREFIXED,
                      alike, free_names, keyed_parts, par_all, sum_all)


class NDContext:
    __slots__ = ()


@dataclass(eq=False)
class Hole(NDContext):
    pass


@dataclass(eq=False)
class NPar(NDContext):
    ctx: NDContext
    rest: Process


@dataclass(eq=False)
class NRes(NDContext):
    x: Name
    ctx: NDContext
    rest: Process


@dataclass(eq=False)
class NSum(NDContext):
    ctx: NDContext
    rest: Process


def plug(ctx: NDContext, p: Process) -> Process:
    match ctx:
        case Hole():
            return p
        case NPar(c, rest):
            return Par(plug(c, p), rest)
        case NRes(x, c, rest):
            return Restrict(x, plug(c, p), rest)
        case NSum(c, rest):
            return NDChoice(plug(c, p), rest)
    raise TypeError(f"not an ND-context: {ctx!r}")


def commit(ctx: NDContext) -> NDContext:
    """Commitment: drop every sum node on the hole's path."""
    match ctx:
        case Hole():
            return ctx
        case NPar(c, rest):
            return NPar(commit(c), rest)
        case NRes(x, c, rest):
            return NRes(x, commit(c), rest)
        case NSum(c, _):
            return commit(c)
    raise TypeError(f"not an ND-context: {ctx!r}")


def decompositions(p: Process, x: Name, key=None):
    """The redex positions of a cut on x in p: the ways to write p as N[q]
    with q a prefix with subject x or a forwarder on x. Parallel
    components and both sides of every sum are explored (the
    commutativity axioms make the hole reachable on either side), but
    only parts that hold x free; a context's siblings are assembled only
    for such a q. With `key`, the key a walk gave p, a parallel part alike
    (`process.alike`) to the part before it is skipped: its steps are
    those of that part, up to congruence."""
    out = []
    _decompose(p, x, key, lambda ctx: ctx, out)
    return out


def _decompose(p: Process, x, key, wrap, out: list):
    """Append the decompositions of p to `out`, each context built once by
    `wrap`, which puts it in the enclosing context."""
    if x not in free_names(p):
        return
    if isinstance(p, Forward) or isinstance(p, PREFIXED) and p.x == x:
        out.append((wrap(Hole()), p))
    elif isinstance(p, (Par, NDChoice)):
        nest, join = (NPar, par_all) if isinstance(p, Par) else (NSum, sum_all)
        parts, keys = keyed_parts(p, key)
        for i, c in enumerate(parts):
            if nest is NPar and i and alike(parts[i - 1], keys[i - 1],
                                            c, keys[i]):
                continue

            def inner(ctx, i=i):
                return wrap(nest(ctx, join(parts[:i] + parts[i + 1:])))
            _decompose(c, x, keys[i], inner, out)
    elif isinstance(p, Restrict):
        (left, right), (kl, kr) = keyed_parts(p, key)
        for side, other, k in ((left, right, kl), (right, left, kr)):
            _decompose(side, x, k,
                       lambda ctx, o=other: wrap(NRes(p.x, ctx, o)), out)
