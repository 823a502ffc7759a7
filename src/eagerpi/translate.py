"""Translation of the resource calculus into the session calculus.

Every lambda variable x becomes a pair of channels: a linear one carrying
the sharing protocol of its multiset uses, and a persistent one serving
its indexed unrestricted uses. The name u given to a translation provides
the behavior of the whole term; availability prefixes on u signal whether
the term can produce a result or fails.

Non-determinism enters at exactly two places: a linear substitution
translates to fresh buffers for the bag items composed with a sum over all
injective assignments of items to variables (the displayed two-item case,
generalized by nesting one restriction per item), and a non-empty sharing
offers a sum over which alias receives the next item.

Intersection types translate to session types.
"""

from __future__ import annotations

from itertools import permutations
from math import factorial

from . import lam as L
from .lamtypes import ArrowT, LamTypeError, Mult, UnitT, check_wf
from .names import Name, NameSupply
from .process import (Branch, Client, Close, Expect, Forward, Inaction,
                      Input, NoneAvail, Output, Par, Process, Restrict,
                      Select, Server, SomeAvail, Success, Wait, par_all,
                      substitute, sum_all)
from .sessiontypes import (Bang, Maybe, One, Parr, ExpectT, SessionType,
                           Tensor, With, dual)


# The most sum branches one translation may build (`branch_count`). Every
# term of corr.lc and ex32.lc, and every reduct that `correspond`
# translates, builds at most 21. The benchmark's k-alias fetches build 605
# for k = 5, 4,326 for k = 6 (its correspondence took 77 s) and 35,287 for
# k = 7, whose translation ran out of time or memory.
MAX_BRANCHES = 1_000


class TranslationTooLarge(Exception):
    pass


def branch_count(m) -> int:
    """The sum branches the translation of m builds, read off the term
    before any is built: a linear substitution of k items sums over the k!
    assignments of the items to its body, and a sharing of n aliases
    nests one sum per alias over the others, n! paths to its body."""
    match m:
        case L.Sharing(body, als, _):
            return factorial(len(als)) * branch_count(body)
        case L.LinSub(body, items, _):
            return factorial(len(items)) * branch_count(body) + \
                sum(map(branch_count, items))
        case L.Abs(_, body):
            return branch_count(body)
        case L.App(body, bg) | L.InterSub(body, bg, _):
            return branch_count(body) + sum(map(branch_count, bg.linear)) \
                + sum(branch_count(s) for s in bg.unr if s is not None)
        case L.UnrSub(body, slots, _):
            return branch_count(body) + \
                sum(branch_count(s) for s in slots if s is not None)
    return 1


class Translator:
    """Deterministic translation context over a name supply.

    `channels` maps a lambda variable to its (linear, persistent) channel
    pair; free variables map to themselves plus a derived persistent name,
    so independent translations of related terms agree on free channels.
    """

    def __init__(self, supply: NameSupply):
        self.supply = supply
        self.channels = {}

    def lin(self, v: Name) -> Name:
        return self._pair(v)[0]

    def bang(self, v: Name) -> Name:
        return self._pair(v)[1]

    def _pair(self, v):
        if v not in self.channels:
            self.channels[v] = (v, self.supply.fresh(v.display + "!"))
        return self.channels[v]

    def _bind(self, v):
        xl = self.supply.fresh(v.display + "l")
        xb = self.supply.fresh(v.display + "!")
        self.channels[v] = (xl, xb)
        return xl, xb

    def _lins(self, vars_) -> tuple:
        return tuple(sorted((self.lin(v) for v in vars_),
                            key=lambda n: (n.display, n.id)))

    # -- terms -------------------------------------------------------------

    def term(self, m, u: Name) -> Process:
        match m:
            case L.LinVar(v):
                x = self.lin(v)
                return SomeAvail(x, Forward(x, u))
            case L.UnrVar(v, j):
                xb = self.bang(v)
                xi = self.supply.fresh(v.display)
                return Client(xb, xi, Select(xi, str(j), Forward(xi, u)))
            case L.SuccessT():
                return Success()
            case L.Fail(vs):
                fails = [NoneAvail(u)]
                fails += [NoneAvail(x) for x in self._lins(vs)]
                return par_all(fails)
            case L.Abs(v, body):
                x = self.supply.fresh(v.display)
                xl, xb = self._bind(v)
                inner = Wait(x, self.term(body, u))
                return SomeAvail(u, Input(u, x, SomeAvail(
                    x, Input(x, xl, Input(x, xb, inner)))))
            case L.InterSub(body, bg, v):
                x = self.supply.fresh(v.display)
                xl, xb = self._bind(v)
                recv = SomeAvail(x, Input(x, xl, Input(x, xb, Wait(
                    x, self.term(body, u)))))
                return Restrict(x, recv, self.bag(bg, x))
            case L.App(f, bg):
                v = self.supply.fresh("v")
                x = self.supply.fresh("x")
                deps = (u,) + self._lins(L.llfv_items(bg.linear))
                return Restrict(v, self.term(f, v), Expect(
                    v, deps, Output(v, x, self.bag(bg, x), Forward(v, u))))
            case L.Sharing(body, als, v):
                return self._sharing(body, als, v, u)
            case L.LinSub(body, items, vs):
                return self._linsub(body, items, vs, u)
            case L.UnrSub(body, slots, v):
                _, xb = self._bind(v)
                xi = self.supply.fresh(v.display)
                return Restrict(xb, self.term(body, u),
                                Server(xb, xi, self.ubag(slots, xi)))
        raise TypeError(f"not a term: {m!r}")

    def _sharing(self, body, als, v, u):
        xl = self.lin(v)
        yi = self.supply.fresh("y")
        if not als:
            deps = (u,) + self._lins(L.llfv(body))
            handler = Expect(yi, deps, Wait(yi, self.term(body, u)))
            return SomeAvail(xl, Output(xl, yi, handler, NoneAvail(xl)))
        handler = Expect(yi, (), Wait(yi, Inaction()))
        branches = []
        for a in als:
            rest = tuple(x for x in als if x != a)
            branches.append(Input(xl, self.lin(a),
                                  self._sharing(body, rest, v, u)))
        deps = (u,) + self._lins(L.llfv(body) - set(als))
        inner = SomeAvail(xl, Expect(xl, deps, sum_all(branches)))
        return SomeAvail(xl, Output(xl, yi, handler, inner))

    def _linsub(self, body, items, vs, u):
        if len(items) != len(vs):
            raise LamTypeError("ArityMismatch", "linear substitution with "
                               "mismatched arity has no translation")
        base = self.term(body, u)
        if not items:
            return base
        zs = [self.supply.fresh("z") for _ in items]
        branches = []
        for perm in permutations(vs):
            q = base
            for z, a in zip(zs, perm):
                q = substitute(q, z, self.lin(a))
            branches.append(q)
        core = sum_all(branches)
        for z, item in reversed(list(zip(zs, items))):
            guard = Expect(z, self._lins(L.llfv(item)), self.term(item, z))
            core = Restrict(z, guard, core)
        return core

    # -- bags ---------------------------------------------------------------

    def bag(self, bg: L.Bag, x: Name) -> Process:
        xl = self.supply.fresh("xl")
        xb = self.supply.fresh("x!")
        xi = self.supply.fresh("xi")
        server = Server(xb, xi, self.ubag(bg.unr, xi))
        return Expect(x, self._lins(L.llfv_items(bg.linear)),
                      Output(x, xl, self.linbag(bg.linear, xl),
                             Output(x, xb, server, Close(x))))

    def linbag(self, items: tuple, xl: Name) -> Process:
        if not items:
            yn = self.supply.fresh("y")
            return Expect(xl, (), Input(xl, yn, Par(
                SomeAvail(yn, Close(yn)), Expect(xl, (), NoneAvail(xl)))))
        head, rest = items[0], items[1:]
        yi = self.supply.fresh("y")
        zi = self.supply.fresh("z")
        whole = self._lins(L.llfv_items(items))
        item_p = Expect(zi, self._lins(L.llfv(head)), self.term(head, zi))
        return Expect(xl, whole, Input(xl, yi, Expect(
            xl, (yi,) + whole, SomeAvail(xl, Output(
                xl, zi, item_p, Par(self.linbag(rest, xl), NoneAvail(yi)))))))

    def ubag(self, slots: tuple, x: Name) -> Process:
        branches = []
        for i, s in enumerate(slots):
            body = NoneAvail(x) if s is None else self.term(s, x)
            branches.append((str(i + 1), body))
        return Branch(x, tuple(branches))


# ---------------------------------------------------------------------------
# Type translation

def translate_strict(t) -> SessionType:
    match t:
        case UnitT():
            return Maybe(One())
        case ArrowT(mult, lst, target):
            inner = translate_tuple(mult, lst)
            return Maybe(Parr(dual(inner), translate_strict(target)))
    raise TypeError(f"not a strict type: {t!r}")


def translate_tuple(mult: Mult, lst) -> SessionType:
    return ExpectT(Tensor(translate_multiset(mult),
                          Tensor(translate_list(lst), One())))


def translate_multiset(mult: Mult) -> SessionType:
    if mult.count > 0:
        rest = translate_multiset(Mult(mult.base, mult.count - 1))
        step = Tensor(ExpectT(translate_strict(mult.base)), rest)
        return ExpectT(Parr(Maybe(One()), ExpectT(Maybe(step))))
    return ExpectT(Parr(Maybe(One()), ExpectT(Maybe(One()))))


def translate_list(lst) -> SessionType:
    if not isinstance(lst, tuple):
        raise TypeError(f"not a list type: {lst!r}")
    return Bang(With(tuple((str(i + 1), translate_strict(t))
                           for i, t in enumerate(lst))))


def translate_contexts(gamma: dict, theta: dict,
                       translator: Translator) -> dict:
    """Session typing context for a translated judgment: strict entries
    become may-produce duals, multiset entries the dual of the multiset
    translation, unrestricted entries the dual of the list translation on
    the persistent channel."""
    ctx = {}
    for v, e in gamma.items():
        if isinstance(e, Mult):
            ctx[translator.lin(v)] = dual(translate_multiset(e))
        else:
            ctx[translator.lin(v)] = Maybe(dual(translate_strict(e)))
    for v, eta in theta.items():
        ctx[translator.bang(v)] = dual(translate_list(eta))
    return ctx


def translate(m, judgment=None):
    """The translation of m on a fresh name u and, given a judgment
    (theta, gamma, tau), its context with u at the translation of tau
    (else None); over `MAX_BRANCHES` it raises before building anything.
    Names are drawn above every id in m and the judgment, free or bound,
    so no binder of the translation captures a variable of the term."""
    n = branch_count(m)
    if n > MAX_BRANCHES:
        raise TranslationTooLarge(
            f"translation too large: {n} sum branches, over the bound of "
            f"{MAX_BRANCHES}")
    theta, gamma, tau = judgment or ({}, {}, None)
    top = max(L.ids(m) | {v.id for v in (*theta, *gamma)}, default=0)
    tr = Translator(NameSupply(top + 1))
    u = tr.supply.fresh("u")
    p = tr.term(m, u)
    if judgment is None:
        return p, None
    ctx = translate_contexts(gamma, theta, tr)
    ctx[u] = translate_strict(tau)
    return p, ctx


def check_translation_preservation(theta: dict, gamma: dict, m, tau):
    """Translate a well-formed judgment and run the session checker on the
    translated process against the translated contexts."""
    from .typecheck import typecheck
    check_wf(theta, gamma, m, tau)
    typecheck(*translate(m, (theta, gamma, tau)))
    return True
