"""One-hole ND-contexts, their commitment, and redex-position search.

An ND-context has its hole under parallel compositions, restrictions and
non-deterministic sums; a D-context is one with no sum node on the hole's
path. Commitment discards the sum siblings along that path, which is how a
synchronization inside a choice discards the branches not involved in it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .names import Name
from .process import (Forward, NDChoice, Par, Process, Restrict, Success,
                      PREFIXED, par_all, par_parts, sum_all, sum_parts)


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


def is_dcontext(ctx: NDContext) -> bool:
    match ctx:
        case Hole():
            return True
        case NPar(c, _) | NRes(_, c, _):
            return is_dcontext(c)
        case NSum(_, _):
            return False
    raise TypeError(f"not an ND-context: {ctx!r}")


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
