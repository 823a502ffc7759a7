"""Pretty-printers for both calculi and both type languages.

The concrete grammar is the one the parsers accept, so print/parse is an
identity on the syntax tree (up to binder renaming). A process form with a
template in `process.SYNTAX` is printed by filling the template from left
to right, so a binder is named before the subprocesses it scopes; the
templates are split into pieces once, at import. In canonical mode bound
names render positionally, which makes the output a stable key for
alpha-equivalent terms.
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import Optional

from . import lam as L
from . import lamtypes as LT
from . import process as P
from . import sessiontypes as T


class _Namer:
    def __init__(self, frees, canonical=False):
        self.canonical = canonical
        self.names = {}
        self.used = set()
        self.counter = 0
        self.free(frees)

    def free(self, frees):
        """Name the free names not named yet: each by its display, with
        its id appended while that text is taken."""
        for n in sorted(set(frees) - self.names.keys(),
                        key=lambda n: (n.display, n.id)):
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
    return _proc(p, _Namer(P.free_names(p), canonical))


def _group(p, nm):
    # parallels self-parenthesize; sums need explicit grouping
    text = _proc(p, nm)
    if isinstance(p, P.NDChoice):
        return f"({text})"
    return text


# how each hole of a template is filled from its field's value
_FILL = {
    "x": lambda v, nm: nm[v],
    "y": lambda v, nm: nm.bind(v),
    "P": _group,
    "Q": _group,
    "L": lambda v, nm: v,
    "W": lambda v, nm: ",".join(sorted(nm[w] for w in v)),
}


def _pieces(cls, template):
    """The text before the first hole, then (fill, field, text after) for
    each hole, holes matched to the dataclass fields in order."""
    head, *rest = re.split(f"\\b([{''.join(_FILL)}])\\b", template)
    holes = zip(rest[::2], rest[1::2], cls.__dataclass_fields__)
    return head, tuple((_FILL[hole], attrgetter(field), tail)
                       for hole, tail, field in holes)


_PIECES = {cls: _pieces(cls, t) for cls, t in P.SYNTAX.items()}


def _proc(p, nm):
    pieces = _PIECES.get(type(p))
    if pieces is not None:
        text, holes = pieces
        for fill, get, tail in holes:
            text += fill(get(p), nm) + tail
        return text
    match p:
        case P.Inaction():
            return "0"
        case P.Success():
            return "OK"
        case P.Par(_, _):
            return "(" + " | ".join(_group(q, nm) for q in P.par_parts(p)) + ")"
        case P.NDChoice(_, _):
            return " ++ ".join(_group(q, nm) for q in P.sum_parts(p))
        case P.Branch(x, brs):
            inner = ", ".join(f"{k}: {_proc(q, nm)}" for k, q in brs)
            return f"{nm[x]}&{{{inner}}}"
    raise TypeError(f"not a process: {p!r}")


# ---------------------------------------------------------------------------
# Session types

def _meta(t, metas: dict) -> str:
    """A metavariable as `'n`, n its number in order of first appearance
    in `metas`, which one message shares across the types it prints."""
    return f"'{metas.setdefault(id(t), len(metas) + 1)}"


def type_text(t, metas: Optional[dict] = None) -> str:
    return _ty(t, 0, {} if metas is None else metas)


def _ty(t, prec, metas):
    tok = T.TOKEN.get(type(t))
    if tok is None:
        if t.__class__.__name__ == "TMeta":
            return _meta(t, metas)
        raise TypeError(f"not a session type: {t!r}")
    if type(t) in T.ROWS:
        inner = ", ".join(f"{k}: {_ty(v, 0, metas)}" for k, v in t.branches)
        return f"{tok}{{{inner}}}"
    if isinstance(t, (T.Tensor, T.Parr)):
        s = f"{_ty(t.first, 2, metas)} {tok} {_ty(t.rest, 1, metas)}"
        return f"({s})" if prec >= 2 else s
    if not t.__match_args__:
        return tok
    # keywords are spaced from their operand, symbols are not
    return f"{tok}{' ' * tok.isalpha()}{_ty(t.body, 3, metas)}"


def ctx_text(ctx: dict, p: Optional[P.Process] = None) -> str:
    """The entries of a typing context; a name free in p reads as
    `process_text(p)` prints it."""
    nm = _Namer(() if p is None else P.free_names(p))
    nm.free(ctx)
    metas = {}
    return ", ".join(f"{nm[n]}: {type_text(ty, metas)}"
                     for n, ty in ctx.items())


# ---------------------------------------------------------------------------
# Lambda terms

def lam_text(m: L.Term, canonical: bool = False) -> str:
    return _lam(m, _Namer(L.free_vars(m), canonical))


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

def ltype_text(t, metas: Optional[dict] = None) -> str:
    metas = {} if metas is None else metas
    match t:
        case LT.UnitT():
            return "unit"
        case LT.ArrowT(mult, lst, tgt):
            return (f"({mult_text(mult, metas)}, "
                    f"{ltype_list_text(lst, metas)}) -> "
                    f"{ltype_text(tgt, metas)}")
    if t.__class__.__name__ == "MetaS":
        return _meta(t, metas)
    raise TypeError(f"not a strict type: {t!r}")


def mult_text(m, metas: Optional[dict] = None) -> str:
    if m.count == 0:
        return "w"
    inner = ltype_text(m.base, metas)
    if isinstance(m.base, LT.ArrowT):
        inner = f"({inner})"
    return f"{inner} ^ {m.count}"


def ltype_list_text(lst, metas: Optional[dict] = None) -> str:
    metas = {} if metas is None else metas
    if isinstance(lst, tuple):
        parts = []
        for t in lst:
            inner = ltype_text(t, metas)
            if isinstance(t, LT.ArrowT):
                inner = f"({inner})"
            parts.append(inner)
        return " . ".join(parts)
    return _meta(lst, metas)
