"""Reference session type checker for the differential test.

This is `typecheck.py` as it was while selections left deferred
`contains` constraints, kept verbatim but for its absolute imports:
`_solve` closed one nesting level of selection rows per round, calling
`_occurs` over every pending row each round. `test_typecheck_oracle.py`
checks that the library gives the same verdicts, contexts and error codes.
The module docstring it carried follows.

Algorithmic checker for the session type judgment P |- Gamma.

Linear assignments are threaded by usage: each rule records how the
subject process uses its free names, parallel composition requires the
linear uses to split disjointly, and non-deterministic choice requires all
branches to use identical contexts. Names of query type live in a shared
zone where weakening and contraction are implicit: any number of client
requests, including zero.

Cut types are reconstructed by unification; every metavariable is created
together with its dual partner so that duality constraints stay involutive.
Selections constrain their subject to a labeled sum containing at least
the chosen label; the offered row of the dual branch (or an ascription)
closes the row.
"""

from __future__ import annotations

import itertools

from eagerpi.process import (Branch, Client, Close, Expect, Forward,
                             Inaction, Input, NDChoice, NoneAvail, Output,
                             Par, Process, Restrict, Select, Server,
                             SomeAvail, Success, Wait, is_inert)
from eagerpi.sessiontypes import (Bang, Bot, ExpectT, Maybe, One, Parr, Plus,
                                  Query, SessionType, Tensor, With, dual)


class SessionTypeError(Exception):
    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"{code}: {message}")


_meta_ids = itertools.count(1)


class TMeta(SessionType):
    __slots__ = ("id", "ref", "partner")

    def __init__(self, partner=None):
        self.id = next(_meta_ids)
        self.ref = None
        if partner is None:
            partner = TMeta.__new__(TMeta)
            partner.id = next(_meta_ids)
            partner.ref = None
            partner.partner = self
        self.partner = partner

    def __repr__(self):
        return f"?t{self.id}"


def fresh_meta() -> TMeta:
    return TMeta()


def resolve(t):
    while isinstance(t, TMeta) and t.ref is not None:
        t = t.ref
    return t


def _occurs(m: TMeta, t) -> bool:
    t = resolve(t)
    if t is m or t is m.partner:
        return True
    match t:
        case Tensor(a, b) | Parr(a, b):
            return _occurs(m, a) or _occurs(m, b)
        case Plus(brs) | With(brs):
            return any(_occurs(m, v) for _, v in brs)
        case Query(a) | Bang(a) | Maybe(a) | ExpectT(a):
            return _occurs(m, a)
    return False


def unify(t1, t2, where: str = ""):
    t1, t2 = resolve(t1), resolve(t2)
    if t1 is t2:
        return
    if isinstance(t1, TMeta):
        if _occurs(t1, t2):
            raise SessionTypeError("TypeMismatch", f"cyclic session type at {where}")
        t1.ref = t2
        t1.partner.ref = dual(t2)
        return
    if isinstance(t2, TMeta):
        unify(t2, t1, where)
        return
    match t1, t2:
        case (One(), One()) | (Bot(), Bot()):
            return
        case (Tensor(a1, b1), Tensor(a2, b2)) | (Parr(a1, b1), Parr(a2, b2)):
            unify(a1, a2, where)
            unify(b1, b2, where)
            return
        case (Plus(r1), Plus(r2)) | (With(r1), With(r2)):
            if [k for k, _ in r1] != [k for k, _ in r2]:
                raise SessionTypeError(
                    "TypeMismatch",
                    f"label rows differ at {where}: "
                    f"{[k for k, _ in r1]} vs {[k for k, _ in r2]}")
            for (_, v1), (_, v2) in zip(r1, r2):
                unify(v1, v2, where)
            return
        case (Query(a1), Query(a2)) | (Bang(a1), Bang(a2)) | \
             (Maybe(a1), Maybe(a2)) | (ExpectT(a1), ExpectT(a2)):
            unify(a1, a2, where)
            return
    raise SessionTypeError(
        "TypeMismatch",
        f"expected {_show(t1)}, found {_show(t2)} at {where}")


def zonk(t):
    t = resolve(t)
    match t:
        case Tensor(a, b):
            return Tensor(zonk(a), zonk(b))
        case Parr(a, b):
            return Parr(zonk(a), zonk(b))
        case Plus(brs):
            return Plus(tuple((k, zonk(v)) for k, v in brs))
        case With(brs):
            return With(tuple((k, zonk(v)) for k, v in brs))
        case Query(a):
            return Query(zonk(a))
        case Bang(a):
            return Bang(zonk(a))
        case Maybe(a):
            return Maybe(zonk(a))
        case ExpectT(a):
            return ExpectT(zonk(a))
    return t


def _show(t):
    from eagerpi.printer import type_text
    try:
        return type_text(zonk(t))
    except TypeError:
        return repr(t)


LIN, SHARED = "lin", "shared"


class Checker:
    def __init__(self):
        self.contains = []     # (meta-or-type, label, entry type, where)
        self.maybe_ctx = []    # (type, where)
        self.rules = []

    # -- usage maps -------------------------------------------------------

    def _mix(self, maps, where):
        out = {}
        for m in maps:
            for n, (kind, data) in m.items():
                if n not in out:
                    out[n] = (kind, list(data) if kind == SHARED else data)
                    continue
                okind, odata = out[n]
                if okind == SHARED and kind == SHARED:
                    odata.extend(data)
                elif okind == LIN or kind == LIN:
                    raise SessionTypeError(
                        "LinearNameReused",
                        f"{n.display} used in two parallel components at {where}")
        return out

    def _alt(self, maps, where):
        """Merge the usage maps of alternatives that must check against one
        context. A name linear in every alternative keeps its unified
        linear type; a name weakened or used as a client anywhere must
        carry a query type in all of them."""
        if not maps:
            return {}
        out = {}
        names = set()
        for m in maps:
            names.update(m)
        for n in sorted(names, key=lambda n: (n.display, n.id)):
            entries = [m.get(n) for m in maps]
            try:
                if all(e is not None and e[0] == LIN for e in entries):
                    t = entries[0][1]
                    for e in entries[1:]:
                        unify(t, e[1], where)
                    out[n] = (LIN, t)
                else:
                    payload = fresh_meta()
                    for e in entries:
                        if e is None:
                            continue
                        if e[0] == LIN:
                            unify(e[1], Query(payload), where)
                        else:
                            for p in e[1]:
                                unify(p, payload, where)
                    out[n] = (SHARED, [payload])
            except SessionTypeError as err:
                raise SessionTypeError(
                    "BranchContextMismatch",
                    f"{n.display} is used at incompatible types across the "
                    f"alternatives of {where}: {err}")
        return out

    def _take(self, uses, n, where):
        """Remove n from a usage map, yielding the session type this
        subterm demands for it; an absent name is only weakenable at a
        query type."""
        if n not in uses:
            return Query(fresh_meta())
        kind, data = uses.pop(n)
        if kind == LIN:
            return data
        payload = fresh_meta()
        for p in data:
            unify(payload, p, where)
        return Query(payload)

    # -- synthesis --------------------------------------------------------

    def synth(self, p: Process) -> dict:
        match p:
            case Inaction() | Success():
                return {}
            case Forward(a, b):
                if a == b:
                    raise SessionTypeError("TypeMismatch",
                                           "forwarder endpoints must differ")
                m = fresh_meta()
                return {a: (LIN, m), b: (LIN, m.partner)}
            case Par(l, r):
                return self._mix([self.synth(l), self.synth(r)], "parallel")
            case NDChoice(l, r):
                return self._alt([self.synth(l), self.synth(r)],
                                 "non-deterministic choice")
            case Restrict(x, l, r):
                ul, ur = self.synth(l), self.synth(r)
                self._cut(x, ul, ur)
                return self._mix([ul, ur], "cut")
            case Close(x):
                return {x: (LIN, One())}
            case Wait(x, c):
                u = self.synth(c)
                if x in u:
                    raise SessionTypeError(
                        "LinearNameReused",
                        f"{x.display} used after wait closes it")
                u[x] = (LIN, Bot())
                return u
            case Output(x, y, pl, c):
                up, uc = self.synth(pl), self.synth(c)
                if x in up:
                    raise SessionTypeError(
                        "LinearNameReused",
                        f"output subject {x.display} used in payload component")
                if y in uc:
                    raise SessionTypeError(
                        "LinearNameReused",
                        f"sent name {y.display} used in continuation component")
                a = self._take(up, y, f"output {x.display}")
                b = self._take(uc, x, f"output {x.display}")
                u = self._mix([up, uc], "output")
                u[x] = (LIN, Tensor(a, b))
                return u
            case Input(x, y, c):
                u = self.synth(c)
                a = self._take(u, y, f"input {x.display}")
                b = self._take(u, x, f"input {x.display}")
                u[x] = (LIN, Parr(a, b))
                return u
            case Select(x, lab, c):
                u = self.synth(c)
                b = self._take(u, x, f"select {x.display}#{lab}")
                m = fresh_meta()
                self.contains.append((m, lab, b, f"select {x.display}#{lab}"))
                u[x] = (LIN, m)
                return u
            case Branch(x, brs):
                maps, offered = [], []
                for lab, q in brs:
                    uq = self.synth(q)
                    offered.append((lab, self._take(uq, x, f"branch {lab}")))
                    maps.append(uq)
                u = self._alt(maps, f"branch on {x.display}")
                u[x] = (LIN, With(tuple(offered)))
                return u
            case Client(x, y, c):
                u = self.synth(c)
                a = self._take(u, y, f"client request {x.display}")
                if x in u:
                    kind, data = u[x]
                    if kind == LIN:
                        raise SessionTypeError(
                            "LinearNameReused",
                            f"client subject {x.display} also used linearly")
                    data.append(a)
                else:
                    u[x] = (SHARED, [a])
                return u
            case Server(x, y, c):
                u = self.synth(c)
                a = self._take(u, y, f"server {x.display}")
                extra = [n.display for n, (k, _) in u.items() if k == LIN]
                if extra:
                    raise SessionTypeError(
                        "NonServerContextForBang",
                        f"server body on {x.display} captures linear "
                        f"names {sorted(extra)}")
                if x in u:
                    raise SessionTypeError(
                        "LinearNameReused",
                        f"server subject {x.display} used in its own body")
                u[x] = (LIN, Bang(a))
                return u
            case SomeAvail(x, c):
                u = self.synth(c)
                a = self._take(u, x, f"some {x.display}")
                u[x] = (LIN, Maybe(a))
                return u
            case NoneAvail(x):
                return {x: (LIN, Maybe(fresh_meta()))}
            case Expect(x, deps, c):
                u = self.synth(c)
                a = self._take(u, x, f"expect {x.display}")
                lin_names = {n for n, (k, _) in u.items() if k == LIN}
                if set(deps) != lin_names:
                    raise SessionTypeError(
                        "NonMonadicContextForExpect",
                        f"expect {x.display} lists "
                        f"{sorted(n.display for n in deps)} but the "
                        f"continuation's linear names are "
                        f"{sorted(n.display for n in lin_names)}")
                for n in lin_names:
                    self.maybe_ctx.append((u[n][1], f"expect {x.display} dependency {n.display}"))
                u[x] = (LIN, ExpectT(a))
                return u
        raise TypeError(f"not a process: {p!r}")

    def _cut(self, x, ul, ur):
        have_l, have_r = x in ul, x in ur
        where = f"cut on {x.display}"
        if not have_l and not have_r:
            raise SessionTypeError("UnboundName",
                                   f"restricted name {x.display} is unused")
        tl = ul.pop(x) if have_l else None
        tr = ur.pop(x) if have_r else None
        if tl and tr and tl[0] == LIN and tr[0] == LIN:
            unify(tr[1], dual(tl[1]), where)
        elif tl and tr and SHARED in (tl[0], tr[0]):
            shared, lin = (tl, tr) if tl[0] == SHARED else (tr, tl)
            if lin[0] == SHARED:
                raise SessionTypeError(
                    "TypeMismatch",
                    f"both sides of {where} are client usages")
            body = fresh_meta()
            unify(lin[1], Bang(body), where)
            for payload in shared[1]:
                unify(payload, dual(body), where)
        else:
            (kind, data) = tl or tr
            if kind == SHARED:
                raise SessionTypeError(
                    "TypeMismatch",
                    f"{where}: client usage has no server side")
            unify(data, Bang(fresh_meta()), where)

    # -- deferred constraints ----------------------------------------------

    def _contain_fixpoint(self, pending):
        for _ in range(len(pending) + 2):
            later, progressed = [], False
            for m, lab, entry, where in pending:
                t = resolve(m)
                if isinstance(t, TMeta):
                    later.append((t, lab, entry, where))
                    continue
                if not isinstance(t, Plus):
                    raise SessionTypeError(
                        "TypeMismatch",
                        f"{where}: subject has non-selectable type {_show(t)}")
                row = dict(t.branches)
                if lab not in row:
                    raise SessionTypeError(
                        "TypeMismatch",
                        f"{where}: label {lab} not offered by {_show(t)}")
                unify(row[lab], entry, where)
                progressed = True
            pending = later
            if not later or not progressed:
                break
        return pending

    def _solve(self):
        pending = list(self.contains)
        for _ in range(len(self.contains) + 2):
            pending = self._contain_fixpoint(pending)
            if not pending:
                break
            # close selection rows no partner constrained, outermost first:
            # a row whose metavariable still occurs inside another pending
            # row's entries must wait so duplicate labels merge correctly
            groups = {}
            for m, lab, entry, where in pending:
                root = resolve(m)
                groups.setdefault(id(root), (root, []))[1].append(
                    (lab, entry, where))
            closable = []
            for gid, (root, items) in groups.items():
                if not any(_occurs(root, entry)
                           for oid, (_, others) in groups.items()
                           if oid != gid
                           for _, entry, _ in others):
                    closable.append((root, items))
            if not closable:
                closable = [min(groups.values(), key=lambda g: g[0].id)]
            for root, items in closable:
                if not isinstance(resolve(root), TMeta):
                    continue
                merged = {}
                for lab, entry, where in items:
                    if lab in merged:
                        unify(merged[lab], entry, where)
                    else:
                        merged[lab] = entry
                unify(root, Plus(tuple(sorted(merged.items()))), items[0][2])
        for t, where in self.maybe_ctx:
            z = resolve(t)
            if isinstance(z, TMeta):
                unify(z, Maybe(fresh_meta()), where)
            elif not isinstance(z, Maybe):
                raise SessionTypeError(
                    "NonMonadicContextForExpect",
                    f"{where} has type {_show(z)}, not an availability type")

    # -- entry points -------------------------------------------------------

    def check(self, p: Process, ctx: dict) -> dict:
        uses = self.synth(p)
        for n, (kind, data) in uses.items():
            if n not in ctx:
                raise SessionTypeError(
                    "UnboundName", f"free name {n.display} not in the context")
            if kind == LIN:
                unify(data, ctx[n], f"context entry {n.display}")
            else:
                payload = fresh_meta()
                unify(ctx[n], Query(payload), f"context entry {n.display}")
                for q in data:
                    unify(q, payload, f"context entry {n.display}")
        self._solve()
        for n, t in ctx.items():
            if n not in uses and not isinstance(zonk(t), Query):
                raise SessionTypeError(
                    "LinearNameUnused",
                    f"linear context entry {n.display}: {_show(t)} is unused")
        return {n: _default(zonk(t)) for n, t in ctx.items()}

    def infer(self, p: Process) -> dict:
        uses = self.synth(p)
        self._solve()
        out = {}
        for n, (kind, data) in uses.items():
            if kind == LIN:
                out[n] = _default(zonk(data))
            else:
                payload = fresh_meta()
                for q in data:
                    unify(payload, q, f"context entry {n.display}")
                out[n] = _default(zonk(Query(payload)))
        return out


def _default(t):
    """Ground residual metavariables at the unit type (their duals follow)."""
    match t:
        case TMeta():
            if t.ref is None:
                unify(t, One())
            return _default(zonk(t))
        case Tensor(a, b):
            return Tensor(_default(a), _default(b))
        case Parr(a, b):
            return Parr(_default(a), _default(b))
        case Plus(brs):
            return Plus(tuple((k, _default(v)) for k, v in brs))
        case With(brs):
            return With(tuple((k, _default(v)) for k, v in brs))
        case Query(a):
            return Query(_default(a))
        case Bang(a):
            return Bang(_default(a))
        case Maybe(a):
            return Maybe(_default(a))
        case ExpectT(a):
            return ExpectT(_default(a))
    return t


def typecheck(p: Process, ctx: dict) -> dict:
    """Check P against the context (a Name -> SessionType mapping); returns
    the resolved context or raises SessionTypeError."""
    return Checker().check(p, dict(ctx))


def infer_context(p: Process) -> dict:
    return Checker().infer(p)


def typechecks(p: Process, ctx: dict) -> bool:
    try:
        typecheck(p, ctx)
        return True
    except SessionTypeError:
        return False


def probe_deadlock_freedom(p: Process) -> bool:
    """Executable deadlock-freedom probe: a closed well-typed process either
    is structurally inactive or has an eager step."""
    try:
        typecheck(p, {})
    except SessionTypeError as e:
        raise SessionTypeError(
            "Precondition", f"process is not well-typed at the empty context: {e}")
    if is_inert(p):
        return True
    from eagerpi.eager import step_all
    return bool(step_all(p))
