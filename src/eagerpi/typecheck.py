"""Algorithmic checker for the session type judgment P |- Gamma.

Linear assignments are threaded by usage: each rule records how the
subject process uses its free names, parallel composition requires the
linear uses to split disjointly, and non-deterministic choice requires all
branches to use identical contexts. Names of query type live in a shared
zone where weakening and contraction are implicit: any number of client
requests, including zero.

Cut types are reconstructed by unification; every metavariable is created
together with its dual partner so that duality constraints stay involutive.
A selection types its subject at a metavariable with an open row: a sum
offering at least the chosen label. Rows merge when their metavariables
unify, entries under a shared label unify, and a metavariable bound to a
type makes that type a sum offering every label of its row (Remy's open
records, solved eagerly). The dual branch or an ascription closes a row
this way; the rows still open at the end close to sums of exactly their
labels.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .process import (Branch, Client, Close, Expect, Forward, Inaction, Input,
                      NDChoice, NoneAvail, Output, Par, Process, Restrict,
                      Select, Server, SomeAvail, Success, Wait, is_inert)
from .sessiontypes import (ROWS, Bang, Bot, ExpectT, Maybe, One, Parr, Plus,
                           Query, SessionType, Tensor, With, dual, parts,
                           rebuild)


class SessionTypeError(Exception):
    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"{code}: {message}")


_meta_ids = itertools.count(1)


class TMeta(SessionType):
    """A metavariable, created with its dual partner. An open `row`
    (label -> entry type) says that it stands for a sum offering at least
    those labels, at those entry types."""
    __slots__ = ("id", "ref", "partner", "row")

    def __init__(self, partner=None, row=None):
        self.id = next(_meta_ids)
        self.ref = None
        self.row = row
        self.partner = partner or TMeta(self)

    def __repr__(self):
        return f"?t{self.id}"


def resolve(t):
    while isinstance(t, TMeta) and t.ref is not None:
        t = t.ref
    return t


def _occurs(m: TMeta, t) -> bool:
    t = resolve(t)
    if isinstance(t, TMeta):
        return t is m or t is m.partner
    return _has_meta(t) and any(_occurs(m, c) for c in parts(t))


def _has_meta(t) -> bool:
    """Whether a constructor node holds a metavariable, bound or not;
    kept on the node, as `dual` keeps its dual."""
    has = getattr(t, "_metas", None)
    if has is None:
        has = any(isinstance(c, TMeta) or _has_meta(c) for c in parts(t))
        object.__setattr__(t, "_metas", has)
    return has


def unify(t1, t2, where: str = ""):
    t1, t2 = resolve(t1), resolve(t2)
    if t1 is t2:
        return
    if isinstance(t2, TMeta) and not isinstance(t1, TMeta):
        t1, t2 = t2, t1
    if isinstance(t1, TMeta):
        if _occurs(t1, t2):
            raise SessionTypeError("TypeMismatch", f"cyclic session type at {where}")
        t1.ref = t2
        t1.partner.ref = dual(t2)
        for m in (t1, t1.partner):
            if m.row:
                _offer(m.ref, m.row, where)
        return
    if type(t1) is not type(t2):
        metas = {}
        raise SessionTypeError(
            "TypeMismatch",
            f"expected {_show(t1, metas)}, found {_show(t2, metas)} "
            f"at {where}")
    if type(t1) in ROWS and \
            [k for k, _ in t1.branches] != [k for k, _ in t2.branches]:
        raise SessionTypeError(
            "TypeMismatch",
            f"label rows differ at {where}: "
            f"{[k for k, _ in t1.branches]} vs {[k for k, _ in t2.branches]}")
    for a, b in zip(parts(t1), parts(t2)):
        unify(a, b, where)


def _offer(t, row, where):
    """Make t a sum that offers every label of an open row, at the row's
    entry types: a metavariable's own row takes the labels in, and entries
    under a shared label unify."""
    for lab, entry in row.items():
        t = resolve(t)
        if isinstance(t, TMeta):
            if t.row is None:
                t.row = {}
            if lab in t.row:
                unify(t.row[lab], entry, where)
            else:
                t.row[lab] = entry
        elif not isinstance(t, Plus):
            raise SessionTypeError(
                "TypeMismatch",
                f"{where}: subject has non-selectable type {_show(t)}")
        else:
            offered = dict(t.branches)
            if lab not in offered:
                raise SessionTypeError(
                    "TypeMismatch",
                    f"{where}: label {lab} not offered by {_show(t)}")
            unify(offered[lab], entry, where)


def zonk(t):
    t = resolve(t)
    if isinstance(t, TMeta):
        return t
    return rebuild(t, [zonk(c) for c in parts(t)])


def _show(t, metas: Optional[dict] = None):
    """t's text; the types of one message share `metas`, so that its
    metavariables are numbered by first appearance in the message."""
    from .printer import type_text
    try:
        return type_text(zonk(t), metas)
    except TypeError:
        return repr(t)


LIN, SHARED = "lin", "shared"


class Checker:
    def __init__(self):
        self.selected = []     # (metavariable, where) of each selection
        self.maybe_ctx = []    # (type, where)

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
                    payload = TMeta()
                    for e in filter(None, entries):
                        unify(self._type(e, where), Query(payload), where)
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
        return self._type(uses.pop(n, (SHARED, [])), where)

    def _type(self, entry, where):
        """The session type a usage entry demands: its linear type, or a
        query over the payloads of its client requests."""
        kind, data = entry
        if kind == LIN:
            return data
        payload = TMeta()
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
                m = TMeta()
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
                where = f"select {x.display}#{lab}"
                m = TMeta(row={lab: self._take(u, x, where)})
                self.selected.append((m, where))
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
                return {x: (LIN, Maybe(TMeta()))}
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
            body = TMeta()
            unify(lin[1], Bang(body), where)
            for payload in shared[1]:
                unify(payload, dual(body), where)
        else:
            (kind, data) = tl or tr
            if kind == SHARED:
                raise SessionTypeError(
                    "TypeMismatch",
                    f"{where}: client usage has no server side")
            unify(data, Bang(TMeta()), where)

    # -- closing ------------------------------------------------------------

    def _solve(self):
        # a row still open offers exactly its labels; newest first, so each
        # row closes over rows still open and the occurs checks stay short
        for m, where in reversed(self.selected):
            m = resolve(m)
            if isinstance(m, TMeta):
                unify(m, Plus(tuple(sorted(m.row.items()))), where)
        for t, where in self.maybe_ctx:
            z = resolve(t)
            if isinstance(z, TMeta):
                unify(z, Maybe(TMeta()), where)
            elif not isinstance(z, Maybe):
                raise SessionTypeError(
                    "NonMonadicContextForExpect",
                    f"{where} has type {_show(z)}, not an availability type")

    # -- entry points -------------------------------------------------------

    def check(self, p: Process, ctx: dict) -> dict:
        uses = self.synth(p)
        for n, entry in uses.items():
            if n not in ctx:
                raise SessionTypeError(
                    "UnboundName", f"free name {n.display} not in the context")
            where = f"context entry {n.display}"
            unify(self._type(entry, where), ctx[n], where)
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
        return {n: _default(zonk(self._type(e, f"context entry {n.display}")))
                for n, e in uses.items()}


def _default(t):
    """Ground residual metavariables at the unit type (their duals follow)."""
    if isinstance(t, TMeta):
        if t.ref is None:
            unify(t, One())
        return _default(zonk(t))
    return rebuild(t, [_default(c) for c in parts(t)])


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
    from .eager import step_all
    return bool(step_all(p))
