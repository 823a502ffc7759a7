"""Reference printer for the syntax oracle.

This is `eagerpi.printer` as it was before the process forms moved into the
template table `process.SYNTAX`: `_proc` spells every process form as its
own `match` arm. It is kept verbatim, imports made absolute, so
`test_syntax_oracle.py` can check that the template printer prints the same
text, plain and canonical.
"""

from __future__ import annotations

from eagerpi import lam as L
from eagerpi import lamtypes as LT
from eagerpi import process as P
from eagerpi import sessiontypes as T


class _Namer:
    def __init__(self, term, canonical=False, kind="pi"):
        self.canonical = canonical
        self.names = {}
        self.used = set()
        self.counter = 0
        if kind == "pi":
            frees = P.free_names(term)
        else:
            frees = L.free_vars(term)
        for n in sorted(frees, key=lambda n: (n.display, n.id)):
            text = n.display
            while text in self.used:
                text = f"{text}_{n.id}"
            self.names[n] = text
            self.used.add(text)

    def bind(self, n):
        if self.canonical:
            text = f"b{self.counter}"
            self.counter += 1
        else:
            text = n.display
            while text in self.used:
                self.counter += 1
                text = f"{n.display}_{self.counter}"
        self.names[n] = text
        self.used.add(text)
        return text

    def __getitem__(self, n):
        return self.names.get(n, n.display)


def process_text(p: P.Process, canonical: bool = False) -> str:
    if canonical:
        p = P.canonicalize(p)
    return _proc(p, _Namer(p, canonical, "pi"))


def _group(p, nm):
    # parallels self-parenthesize; sums need explicit grouping
    text = _proc(p, nm)
    if isinstance(p, P.NDChoice):
        return f"({text})"
    return text


def _proc(p, nm):
    match p:
        case P.Inaction():
            return "0"
        case P.Success():
            return "OK"
        case P.Forward(x, y):
            return f"[{nm[x]}<->{nm[y]}]"
        case P.Par(_, _):
            return "(" + " | ".join(_group(q, nm) for q in P.par_parts(p)) + ")"
        case P.NDChoice(_, _):
            return " ++ ".join(_group(q, nm) for q in P.sum_parts(p))
        case P.Restrict(x, l, r):
            b = nm.bind(x)
            return f"new {b} ({_group(l, nm)} | {_group(r, nm)})"
        case P.Output(x, y, pl, c):
            s = nm[x]
            b = nm.bind(y)
            return f"{s}!({b})({_group(pl, nm)} | {_group(c, nm)})"
        case P.Input(x, y, c):
            s = nm[x]
            b = nm.bind(y)
            return f"{s}?({b}). {_group(c, nm)}"
        case P.Client(x, y, c):
            s = nm[x]
            b = nm.bind(y)
            return f"?{s}!({b}). {_group(c, nm)}"
        case P.Server(x, y, c):
            s = nm[x]
            b = nm.bind(y)
            return f"!{s}?({b}). {_group(c, nm)}"
        case P.Select(x, lab, c):
            return f"{nm[x]}#{lab}. {_group(c, nm)}"
        case P.Branch(x, brs):
            inner = ", ".join(f"{k}: {_proc(q, nm)}" for k, q in brs)
            return f"{nm[x]}&{{{inner}}}"
        case P.Close(x):
            return f"close {nm[x]}"
        case P.Wait(x, c):
            return f"wait {nm[x]}. {_group(c, nm)}"
        case P.SomeAvail(x, c):
            return f"some {nm[x]}. {_group(c, nm)}"
        case P.NoneAvail(x):
            return f"none {nm[x]}"
        case P.Expect(x, deps, c):
            ws = ",".join(sorted(nm[w] for w in deps))
            return f"expect {nm[x]} [{ws}]. {_group(c, nm)}"
    raise TypeError(f"not a process: {p!r}")


# ---------------------------------------------------------------------------
# Session types

def type_text(t) -> str:
    return _ty(t, 0)


def _ty(t, prec):
    tok = T.TOKEN.get(type(t))
    if tok is None:
        if t.__class__.__name__ == "TMeta":
            return f"'{id(t) % 9973}"
        raise TypeError(f"not a session type: {t!r}")
    if type(t) in T.ROWS:
        inner = ", ".join(f"{k}: {_ty(v, 0)}" for k, v in t.branches)
        return f"{tok}{{{inner}}}"
    if isinstance(t, (T.Tensor, T.Parr)):
        s = f"{_ty(t.first, 2)} {tok} {_ty(t.rest, 1)}"
        return f"({s})" if prec >= 2 else s
    if not t.__match_args__:
        return tok
    # keywords are spaced from their operand, symbols are not
    return f"{tok}{' ' * tok.isalpha()}{_ty(t.body, 3)}"


def ctx_text(ctx: dict, namer=None) -> str:
    items = []
    for n, ty in ctx.items():
        disp = n.display if namer is None else namer[n]
        items.append(f"{disp}: {type_text(ty)}")
    return ", ".join(items)


# ---------------------------------------------------------------------------
# Lambda terms

def lam_text(m: L.Term, canonical: bool = False) -> str:
    return _lam(m, _Namer(m, canonical, "lam"))


def _lam(m, nm):
    match m:
        case L.LinVar(v):
            return nm[v]
        case L.UnrVar(v, i):
            return f"{nm[v]}[{i}]"
        case L.SuccessT():
            return "OK"
        case L.Fail(vs):
            inner = ",".join(sorted(nm[v] for v in vs))
            return f"fail{{{inner}}}"
        case L.Abs(v, body):
            b = nm.bind(v)
            return f"\\{b}. {_lam(body, nm)}"
        case L.App(f, bag):
            return f"{_lam_postfix(f, nm)} {_bag(bag, nm)}"
        case L.Sharing(body, aliases, v):
            als = ",".join(nm.bind(a) for a in aliases)
            shared = nm[v]
            inner = _lam_postfix(body, nm)
            if als:
                return f"{inner} [{als} <- {shared}]"
            return f"{inner} [<- {shared}]"
        case L.InterSub(body, bag, v):
            b = nm.bind(v)
            return f"{_lam_postfix(body, nm)} {{| {_bag(bag, nm, star=True)} / {b} |}}"
        case L.LinSub(body, items, vs):
            names = ", ".join(nm.bind(v) for v in vs)
            subject = _lam_postfix(body, nm)
            inner = "<" + ", ".join(_lam(i, nm) for i in items) + ">"
            return f"{subject} {{| {inner} / {names} |}}"
        case L.UnrSub(body, slots, v):
            b = nm.bind(v)
            return f"{_lam_postfix(body, nm)} {{! {_slots(slots, nm)} / {b} !}}"
    raise TypeError(f"not a lambda term: {m!r}")


def _lam_postfix(m, nm):
    # function/subject positions: anything that parses back as a postfix chain
    text = _lam(m, nm)
    if isinstance(m, L.Abs):
        return f"({text})"
    return text


def _slots(slots, nm):
    return " . ".join("!1" if s is None else f"!<{_lam(s, nm)}>" for s in slots)


def _bag(bag: L.Bag, nm, star: bool = None) -> str:
    lin = "<" + ", ".join(_lam(m, nm) for m in bag.linear) + ">"
    default_unr = len(bag.unr) == 1 and bag.unr[0] is None
    if star is None:
        star = not default_unr
    if star:
        return f"{lin} * {_slots(bag.unr, nm)}"
    return lin


# ---------------------------------------------------------------------------
# Intersection types

def ltype_text(t) -> str:
    match t:
        case LT.UnitT():
            return "unit"
        case LT.ArrowT(mult, lst, tgt):
            return f"({mult_text(mult)}, {ltype_list_text(lst)}) -> {ltype_text(tgt)}"
    if t.__class__.__name__ == "MetaS":
        return f"'{id(t) % 9973}"
    raise TypeError(f"not a strict type: {t!r}")


def mult_text(m) -> str:
    if m.count == 0:
        return "w"
    inner = ltype_text(m.base)
    if isinstance(m.base, LT.ArrowT):
        inner = f"({inner})"
    return f"{inner} ^ {m.count}"


def ltype_list_text(lst) -> str:
    if isinstance(lst, tuple):
        parts = []
        for t in lst:
            inner = ltype_text(t)
            if isinstance(t, LT.ArrowT):
                inner = f"({inner})"
            parts.append(inner)
        return " . ".join(parts)
    return f"'{id(lst) % 9973}"
