"""Intersection types for the resource calculus: well-formedness (failure
and arity mismatches admitted) and the stricter well-typedness (neither).

Multiset types are uniform powers sigma^k with the non-idempotent reading:
the count is part of the type, so a two-element bag never checks at a
one-element multiset. List types type unrestricted bags positionally; the
embraces relation compares a required list against an available one
prefix-wise, with a possibly empty remainder.

Checking is syntax-directed with metavariables for the positions the term
leaves open (arrow components, unrestricted list types); constraints that
need a resolved arrow (applications, embraces) are deferred and solved to
a fixpoint. A forced round then commits the metavariables they still wait
on (arrows, embraced and indexed lists); a constraint left over is an error,
and metavariables nothing constrains stay open.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from . import lam as L


class LamTypeError(Exception):
    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"{code}: {message}")


@dataclass(frozen=True)
class UnitT:
    pass


@dataclass(frozen=True)
class ArrowT:
    mult: "Mult"
    lst: object   # list type: tuple of strict types (or MetaList)
    target: object


@dataclass(frozen=True)
class Mult:
    base: object  # strict type; None when the count is zero (omega)
    count: int

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("negative multiplicity")


OMEGA = Mult(None, 0)

_ids = itertools.count(1)


class MetaS:
    __slots__ = ("id", "ref")

    def __init__(self):
        self.id = next(_ids)
        self.ref = None

    def __repr__(self):
        return f"?s{self.id}"


class MetaList:
    __slots__ = ("id", "ref")

    def __init__(self):
        self.id = next(_ids)
        self.ref = None

    def __repr__(self):
        return f"?l{self.id}"


def resolve(t):
    while isinstance(t, (MetaS, MetaList)) and t.ref is not None:
        t = t.ref
    return t


def unify(t1, t2, where=""):
    """Unify two strict types, two multiplicities or two list types. A
    metavariable is never bound to a type that holds it (occurs check)."""
    t1, t2 = resolve(t1), resolve(t2)
    if t1 is t2:
        return
    for m, t in ((t1, t2), (t2, t1)):
        if isinstance(m, (MetaS, MetaList)):
            if _occurs(m, t):
                metas = {}
                raise LamTypeError("TypeMismatch", f"cyclic type: "
                                   f"{show(m, metas)} occurs in "
                                   f"{show(t, metas)} at {where}")
            m.ref = t
            return
    match t1, t2:
        case (UnitT(), UnitT()):
            return
        case (ArrowT(m1, l1, g1), ArrowT(m2, l2, g2)):
            unify(m1, m2, where)
            unify(l1, l2, where)
            unify(g1, g2, where)
            return
        case (Mult(b1, k1), Mult(b2, k2)):
            if k1 != k2:
                raise LamTypeError("TypeMismatch", f"multiset sizes {k1} "
                                   f"and {k2} differ at {where}")
            if k1 > 0:
                unify(b1, b2, where)
            return
        case (tuple(), tuple()):
            if len(t1) != len(t2):
                raise LamTypeError("TypeMismatch", f"list types of lengths "
                                   f"{len(t1)} and {len(t2)} differ at {where}")
            for a, b in zip(t1, t2):
                unify(a, b, where)
            return
    metas = {}
    raise LamTypeError("TypeMismatch", f"expected {show(t1, metas)}, found "
                       f"{show(t2, metas)} at {where}")


def _occurs(m, t) -> bool:
    """Whether metavariable m occurs in t."""
    t = resolve(t)
    match t:
        case ArrowT(mult, lst, target):
            return _occurs(m, mult) or _occurs(m, lst) or _occurs(m, target)
        case Mult(b, k):
            return k > 0 and _occurs(m, b)
        case tuple():
            return any(_occurs(m, x) for x in t)
    return t is m


def embraces(required, available) -> bool:
    """required ~ available: the available list extends the required one,
    agreeing pointwise on the prefix (the remainder may be empty)."""
    if len(available) < len(required):
        return False
    return all(a == b for a, b in zip(required, available))


def zonk(t):
    """t with every bound metavariable replaced by its binding, for a
    strict type, a multiplicity or a list type."""
    t = resolve(t)
    match t:
        case ArrowT(m, l, g):
            return ArrowT(zonk(m), zonk(l), zonk(g))
        case Mult(b, k):
            return Mult(None if k == 0 else zonk(b), k)
        case tuple():
            return tuple(map(zonk, t))
    return t


def show(t, metas: Optional[dict] = None):
    """t's text; the types of one message share `metas`, so that its
    metavariables are numbered by first appearance in the message."""
    from .printer import ltype_text
    try:
        return ltype_text(zonk(t), metas)
    except TypeError:
        return repr(t)


# ---------------------------------------------------------------------------
# Occurrence pre-pass: linearity is purely structural, read off `L.BINDING`

# the binders whose variables must each occur exactly once in the body
_ONCE = {
    L.Abs: "abstraction parameter {} must be shared exactly once",
    L.Sharing: "shared alias {} must occur exactly once",
    L.InterSub: "substituted variable {} must occur exactly once",
    L.LinSub: "substitution variable {} must occur exactly once",
}
# the subterm fields copied on use (`Bag.unr`, `UnrSub.slots`), whose
# terms may hold no linear variable
_UNRESTRICTED = ("unr", "slots")


def _occ(m, counts):
    """Add the linear occurrences of m's free variables to `counts`: the
    body's first (its bound variables taken out), then the other subterms',
    then m's own, where x[i] does not count."""
    row = L.BINDING.get(type(m))
    if row is None:
        raise TypeError(f"not a term: {m!r}")
    names, binder, subs = row
    if binder:
        inner = {}
        _occ(getattr(m, subs[0]), inner)
        for v in L._entries(getattr(m, binder)):
            if inner.pop(v, 0) != 1 and type(m) in _ONCE:
                raise LamTypeError("LinearityViolation",
                                   _ONCE[type(m)].format(v.display))
        for v, k in inner.items():
            counts[v] = counts.get(v, 0) + k
        subs = subs[1:]
    for f in subs:
        for t in L._entries(getattr(m, f)):
            if t is None:
                continue
            if f not in _UNRESTRICTED:
                _occ(t, counts)
            elif L.llfv(t):
                raise LamTypeError(
                    "LinearityViolation",
                    "unrestricted bag elements may not use linear variables")
    if not isinstance(m, L.UnrVar):
        for f in names:
            for v in L._entries(getattr(m, f)):
                counts[v] = counts.get(v, 0) + 1


def check_linearity(m, domain):
    counts = {}
    _occ(m, counts)
    for v, k in counts.items():
        if k != 1:
            raise LamTypeError("LinearityViolation",
                               f"{v.display} occurs {k} times")
        if v not in domain:
            raise LamTypeError("UnboundVariable",
                               f"{v.display} not in the linear context")
    for v in domain:
        if v not in counts:
            raise LamTypeError("LinearityViolation",
                               f"context entry {v.display} is unused")


# ---------------------------------------------------------------------------
# The checker

class LamChecker:
    def __init__(self, well_typed: bool):
        self.well_typed = well_typed
        self.pending = []  # deferred checks needing a resolved type

    def err(self, code, msg):
        raise LamTypeError(code, msg)

    # entries in gamma: a Mult (multiset assignment) or a strict type
    def check(self, theta: dict, gamma: dict, m, tau):
        check_linearity(m, set(gamma))
        env = {}
        for v, e in gamma.items():
            env[v] = ("mult", e) if isinstance(e, Mult) else ("strict", e)
        self._check(m, tau, env, dict(theta))
        self._solve()

    def _check(self, m, tau, env, theta):
        match m:
            case L.LinVar(v) | L.UnrVar(v, _):
                unify(self._synth(m, env, theta), tau, f"variable {v.display}")
            case L.SuccessT():
                self.err("TypeMismatch", "the success constant is untyped")
            case L.Fail(vs):
                if self.well_typed:
                    self.err("FailForbidden",
                             "failure terms are not well-typed")
                for v in vs:
                    kind, t = env[v]
                    if kind == "mult" and t.count == 0:
                        self.err("CoreDomainMismatch",
                                 f"dangling variable {v.display} has the empty multiset type")
            case L.Abs(v, b):
                if not (isinstance(b, L.Sharing) and b.var == v):
                    self.err("TypeMismatch",
                             "abstraction body must share its parameter")
                k = len(b.aliases)
                t = resolve(tau)
                if isinstance(t, MetaS):
                    arrow = ArrowT(Mult(MetaS(), k), MetaList(), MetaS())
                    unify(t, arrow, "abstraction")
                    t = arrow
                if not isinstance(t, ArrowT):
                    self.err("TypeMismatch",
                             f"abstraction checked at non-arrow {show(t)}")
                if t.mult.count != k:
                    self.err("TypeMismatch",
                             f"abstraction shares {k} aliases but the arrow "
                             f"carries multiplicity {t.mult.count}")
                env2 = dict(env)
                env2[v] = ("mult", t.mult)
                theta2 = dict(theta)
                theta2[v] = t.lst
                self._check(b, t.target, env2, theta2)
            case L.Sharing(b, als, v):
                kind, t = env[v]
                if kind != "mult":
                    self.err("TypeMismatch",
                             f"sharing variable {v.display} must hold a multiset")
                if t.count != len(als):
                    self.err("TypeMismatch",
                             f"sharing of {len(als)} aliases against "
                             f"multiplicity {t.count}")
                env2 = {x: e for x, e in env.items() if x != v}
                for a in als:
                    env2[a] = ("strict", t.base)
                self._check(b, tau, env2, theta)
            case L.App(f, bg):
                tf = self._synth(f, env, theta)
                base, k, eps = self._synth_bag(bg, env, theta)
                self.pending.append(("app", tf, base, k, eps, tau, "application"))
            case L.InterSub(b, bg, v):
                if not (isinstance(b, L.Sharing) and b.var == v):
                    self.err("TypeMismatch",
                             "intermediate substitution must bind a sharing")
                base, k, eps = self._synth_bag(bg, env, theta)
                j = len(b.aliases)
                mult = Mult(base if j > 0 else None, j)
                if self.well_typed and j != k:
                    self.err("ArityMismatch",
                             f"substitution provides {k} resources for {j} aliases")
                eta = MetaList()
                self._embrace(eta, eps, "intermediate substitution")
                env2 = dict(env)
                env2[v] = ("mult", mult)
                theta2 = dict(theta)
                theta2[v] = eta
                self._check(b, tau, env2, theta2)
            case L.LinSub(b, items, vs):
                if len(items) != len(vs):
                    self.err("ArityMismatch",
                             f"linear substitution of {len(items)} resources "
                             f"for {len(vs)} variables")
                base = MetaS()
                for it in items:
                    self._check(it, base, env, theta)
                env2 = dict(env)
                for x in vs:
                    env2[x] = ("strict", base)
                self._check(b, tau, env2, theta)
            case L.UnrSub(b, slots, v):
                eps = self._synth_slots(slots, theta)
                eta = MetaList()
                self._embrace(eta, eps, "unrestricted substitution")
                theta2 = dict(theta)
                theta2[v] = eta
                self._check(b, tau, env, theta2)
            case _:
                raise TypeError(f"not a term: {m!r}")

    def _synth(self, m, env, theta):
        match m:
            case L.LinVar(v):
                kind, t = env[v]
                if kind != "strict":
                    self.err("TypeMismatch",
                             f"{v.display} holds a multiset, found at a linear occurrence")
                return t
            case L.UnrVar(v, i):
                if v not in theta:
                    self.err("UnboundVariable",
                             f"{v.display} not in the unrestricted context")
                out = MetaS()
                self.pending.append(("index", theta[v], i, out, f"{v.display}[{i}]"))
                return out
            case _:
                out = MetaS()
                self._check(m, out, env, theta)
                return out

    def _synth_bag(self, bg, env, theta):
        base = MetaS()
        for it in bg.linear:
            self._check(it, base, env, theta)
        eps = self._synth_slots(bg.unr, theta)
        return base, len(bg.linear), eps

    def _synth_slots(self, slots, theta):
        out = []
        for s in slots:
            if s is None:
                out.append(MetaS())  # the empty slot takes any strict type
            else:
                t = MetaS()
                self._check(s, t, {}, theta)
                out.append(t)
        return tuple(out)

    def _embrace(self, eta, eps, where):
        if self.well_typed:
            self.pending.append(("eqlist", eta, eps, where))
        else:
            self.pending.append(("embrace", eta, eps, where))

    # -- deferred constraint solving ---------------------------------------

    def _run_queue(self, force=False):
        for _ in range(64):
            queue, self.pending = self.pending, []
            later, progressed = [], False
            for c in queue:
                if self._try(c, force=force):
                    progressed = True
                else:
                    later.append(c)
            self.pending.extend(later)
            if not self.pending or not progressed:
                return

    def _solve(self):
        self._run_queue()
        # residual list metas take the whole available list
        for c in list(self.pending):
            if c[0] in ("embrace", "eqlist"):
                eta = resolve(c[1])
                if isinstance(eta, MetaList):
                    unify(eta, tuple(resolve(t) for t in c[2]), c[3])
        # unrestricted contexts only constrained by their indices get the
        # shortest list covering every index used
        need = {}
        for c in self.pending:
            if c[0] == "index":
                lst = resolve(c[1])
                if isinstance(lst, MetaList):
                    entry = need.setdefault(id(lst), [lst, 0])
                    entry[1] = max(entry[1], c[2])
        for lst, n in need.values():
            lst.ref = tuple(MetaS() for _ in range(n))
        self._run_queue()
        self._run_queue(force=True)
        if self.pending:
            self.err("TypeMismatch",
                     f"unresolved constraint at {self.pending[0][-1]}")

    def _try(self, c, force=False):
        kind = c[0]
        if kind == "index":
            _, lst, i, tau, where = c
            lst = resolve(lst)
            if isinstance(lst, MetaList):
                if not force:
                    return False
                lst.ref = tuple(MetaS() for _ in range(i))
                lst = lst.ref
            if not (1 <= i <= len(lst)):
                self.err("TypeMismatch",
                         f"{where}: position {i} outside a list of "
                         f"length {len(lst)}")
            unify(lst[i - 1], tau, where)
            return True
        if kind == "app":
            _, tf, base, k, eps, tau, where = c
            tf = resolve(tf)
            if isinstance(tf, MetaS):
                if not force:
                    return False
                tf.ref = ArrowT(Mult(base if k else None, k), MetaList(), MetaS())
                tf = tf.ref
            if not isinstance(tf, ArrowT):
                self.err("TypeMismatch",
                         f"{where}: function position has non-arrow type {show(tf)}")
            if self.well_typed and tf.mult.count != k:
                self.err("ArityMismatch",
                         f"{where}: bag of {k} against arrow multiplicity "
                         f"{tf.mult.count}")
            if tf.mult.count > 0 and k > 0:
                unify(tf.mult.base, base, where)
            sub = ("eqlist" if self.well_typed else "embrace",
                   tf.lst, eps, where)
            if not self._try(sub, force=force):
                self.pending.append(sub)
            unify(tf.target, tau, where)
            return True
        if kind in ("embrace", "eqlist"):
            _, eta, eps, where = c
            eta = resolve(eta)
            if isinstance(eta, MetaList):
                if not force:
                    return False
                unify(eta, tuple(resolve(t) for t in eps), where)
                return True
            if kind == "eqlist":
                unify(eta, tuple(eps), where)
                return True
            if len(eps) < len(eta):
                self.err("EmbracesFailure",
                         f"{where}: required list of length {len(eta)} "
                         f"exceeds the available {len(eps)}")
            for a, b in zip(eta, eps):
                unify(a, b, where)
            return True
        raise AssertionError(kind)


def check_wf(theta: dict, gamma: dict, m, tau):
    """Well-formedness: failure terms and arity mismatches admitted."""
    LamChecker(well_typed=False).check(theta, gamma, m, tau)
    return True


def check_wt(theta: dict, gamma: dict, m, tau):
    """Well-typedness: no failure rule, exact arities, exact lists."""
    LamChecker(well_typed=True).check(theta, gamma, m, tau)
    return True


def is_wf(theta, gamma, m, tau) -> bool:
    try:
        return check_wf(theta, gamma, m, tau)
    except LamTypeError:
        return False


def is_wt(theta, gamma, m, tau) -> bool:
    try:
        return check_wt(theta, gamma, m, tau)
    except LamTypeError:
        return False
