"""Old forms of `eagerpi.lamtypes`, kept verbatim for differential tests.

The linearity pre-pass as it was before its walk was read off
`lam.BINDING`: `check_linearity` with nine cases of `_occ`, one per
constructor, and the helpers `_occ_bag`, `_closed_linear` and
`_merge_counts`. `test_linearity_oracle.py` checks that the library
raises the same error, or none, on every input.

The checker as it was before one `unify` and one `zonk` covered strict
types, multiplicities and list types: `unify`, `unify_mult`, `unify_list`,
`zonk`, `zonk_mult`, `zonk_list`, `show`, `LamChecker` (whose `_check`
spells out the variable rules of `_synth`), `check_wf` and `check_wt`.
`test_lamtypes_oracle.py` checks that the library gives the same outcome
on every input.
"""

from typing import Optional

from eagerpi import lam as L
from eagerpi.lamtypes import (ArrowT, LamTypeError, MetaList, MetaS, Mult,
                              UnitT, resolve)


def _occ(m, counts):
    match m:
        case L.LinVar(v):
            counts[v] = counts.get(v, 0) + 1
        case L.UnrVar(_, _) | L.SuccessT():
            pass
        case L.Fail(vs):
            for v in vs:
                counts[v] = counts.get(v, 0) + 1
        case L.Abs(v, b):
            inner = {}
            _occ(b, inner)
            if inner.pop(v, 0) != 1:
                raise LamTypeError(
                    "LinearityViolation",
                    f"abstraction parameter {v.display} must be shared exactly once")
            _merge_counts(counts, inner)
        case L.App(f, bg):
            _occ(f, counts)
            _occ_bag(bg, counts)
        case L.Sharing(b, als, v):
            inner = {}
            _occ(b, inner)
            for a in als:
                if inner.pop(a, 0) != 1:
                    raise LamTypeError(
                        "LinearityViolation",
                        f"shared alias {a.display} must occur exactly once")
            _merge_counts(counts, inner)
            counts[v] = counts.get(v, 0) + 1
        case L.InterSub(b, bg, v):
            inner = {}
            _occ(b, inner)
            if inner.pop(v, 0) != 1:
                raise LamTypeError(
                    "LinearityViolation",
                    f"substituted variable {v.display} must occur exactly once")
            _merge_counts(counts, inner)
            _occ_bag(bg, counts)
        case L.LinSub(b, items, vs):
            inner = {}
            _occ(b, inner)
            for x in vs:
                if inner.pop(x, 0) != 1:
                    raise LamTypeError(
                        "LinearityViolation",
                        f"substitution variable {x.display} must occur exactly once")
            _merge_counts(counts, inner)
            for it in items:
                _occ(it, counts)
        case L.UnrSub(b, slots, v):
            inner = {}
            _occ(b, inner)
            inner.pop(v, None)
            _merge_counts(counts, inner)
            for s in slots:
                if s is not None:
                    _closed_linear(s)
        case _:
            raise TypeError(f"not a term: {m!r}")


def _occ_bag(bg, counts):
    for it in bg.linear:
        _occ(it, counts)
    for s in bg.unr:
        if s is not None:
            _closed_linear(s)


def _closed_linear(t):
    if L.llfv(t):
        raise LamTypeError(
            "LinearityViolation",
            "unrestricted bag elements may not use linear variables")


def _merge_counts(counts, inner):
    for v, k in inner.items():
        counts[v] = counts.get(v, 0) + k


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


def unify(t1, t2, where=""):
    t1, t2 = resolve(t1), resolve(t2)
    if t1 is t2:
        return
    if isinstance(t1, (MetaS, MetaList)):
        t1.ref = t2
        return
    if isinstance(t2, (MetaS, MetaList)):
        t2.ref = t1
        return
    match t1, t2:
        case (UnitT(), UnitT()):
            return
        case (ArrowT(m1, l1, g1), ArrowT(m2, l2, g2)):
            unify_mult(m1, m2, where)
            unify_list(l1, l2, where)
            unify(g1, g2, where)
            return
    metas = {}
    raise LamTypeError("TypeMismatch", f"expected {show(t1, metas)}, found "
                       f"{show(t2, metas)} at {where}")


def unify_mult(m1, m2, where=""):
    if m1.count != m2.count:
        raise LamTypeError("TypeMismatch",
                           f"multiset sizes {m1.count} and {m2.count} differ at {where}")
    if m1.count > 0:
        unify(m1.base, m2.base, where)


def unify_list(l1, l2, where=""):
    l1, l2 = resolve(l1), resolve(l2)
    if l1 is l2:
        return
    if isinstance(l1, MetaList):
        l1.ref = l2
        return
    if isinstance(l2, MetaList):
        l2.ref = l1
        return
    if len(l1) != len(l2):
        raise LamTypeError("TypeMismatch",
                           f"list types of lengths {len(l1)} and {len(l2)} differ at {where}")
    for a, b in zip(l1, l2):
        unify(a, b, where)


def zonk(t):
    t = resolve(t)
    match t:
        case ArrowT(m, l, g):
            return ArrowT(zonk_mult(m), zonk_list(l), zonk(g))
    return t


def zonk_mult(m):
    return Mult(None if m.count == 0 else zonk(m.base), m.count)


def zonk_list(l):
    l = resolve(l)
    if isinstance(l, MetaList):
        return l
    return tuple(zonk(t) for t in l)


def show(t, metas: Optional[dict] = None):
    """t's text; the types of one message share `metas`, so that its
    metavariables are numbered by first appearance in the message."""
    from eagerpi.printer import ltype_text
    try:
        return ltype_text(zonk(t), metas)
    except TypeError:
        return repr(t)


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
            case L.LinVar(v):
                kind, t = env[v]
                if kind != "strict":
                    self.err("TypeMismatch",
                             f"{v.display} holds a multiset, found at a linear occurrence")
                unify(t, tau, f"variable {v.display}")
            case L.UnrVar(v, i):
                if v not in theta:
                    self.err("UnboundVariable",
                             f"{v.display} not in the unrestricted context")
                self.pending.append(("index", theta[v], i, tau, f"{v.display}[{i}]"))
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
                    unify_list(eta, tuple(resolve(t) for t in c[2]), c[3])
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
                unify_list(eta, tuple(resolve(t) for t in eps), where)
                return True
            if kind == "eqlist":
                unify_list(eta, tuple(eps), where)
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
