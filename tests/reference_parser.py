"""Reference parser for the syntax oracle.

This is `eagerpi.parser` as it was before the process forms moved into the
template table `process.SYNTAX`: `SpiParser._atom` spells every process
form as its own branch, and every comma-separated list has its own loop.
It is kept verbatim, imports made absolute, so `test_syntax_oracle.py` and
`syntax_sweep.py` can check that the table-driven parser builds the same
trees, draws the same name ids and raises the same errors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from eagerpi import lam as L
from eagerpi import lamtypes as LT
from eagerpi import process as P
from eagerpi import sessiontypes as T
from eagerpi.names import Name, NameSupply


# The deepest nesting the parsers accept (prefixes and parentheses around a
# process, constructors around a type, binders and brackets around a lambda
# term); `cli.main` sets the recursion limit that this depth needs.
MAX_NESTING = 1000


class ParseError(Exception):
    def __init__(self, message, line=None, col=None):
        self.line, self.col = line, col
        where = f" at {line}:{col}" if line is not None else ""
        super().__init__(f"{message}{where}")


_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>--[^\n]*)
  | (?P<arrow>->)|(?P<fwd><->)|(?P<bindl><-)
  | (?P<plusplus>\+\+)
  | (?P<osub>\{\|)|(?P<csub>\|\})
  | (?P<ousub>\{!)|(?P<cusub>!\})
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<sym>[()\[\]{}<>|#&?!.,:=\\*^@+/])
""", re.VERBOSE)


@dataclass
class Tok:
    kind: str
    text: str
    line: int
    col: int


def tokenize(text: str):
    toks = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        raw = m.group()
        if kind not in ("ws", "comment"):
            if kind in ("arrow", "fwd", "bindl", "plusplus", "osub", "csub",
                        "ousub", "cusub", "sym"):
                toks.append(Tok(raw, raw, line, col))
            else:
                toks.append(Tok(kind, raw, line, col))
        nl = raw.count("\n")
        if nl:
            line += nl
            col = len(raw) - raw.rfind("\n")
        else:
            col += len(raw)
        pos = m.end()
    toks.append(Tok("eof", "", line, col))
    return toks


class _Cursor:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0
        self.depth = 0

    def peek(self, ahead=0):
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def at(self, kind, text=None, ahead=0):
        t = self.peek(ahead)
        return t.kind == kind and (text is None or t.text == text)

    def take(self, kind, text=None):
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {t.text!r}",
                             t.line, t.col)
        self.pos += 1
        return t

    def try_take(self, kind, text=None):
        if self.at(kind, text):
            return self.take(kind, text)
        return None


def _nesting(parse):
    """Count each call of a recursive parse function, whose first argument
    is the cursor or a parser holding it, as one nesting level."""
    def nested(owner, *args):
        cur = owner if isinstance(owner, _Cursor) else owner.cur
        if cur.depth > MAX_NESTING:
            t = cur.peek()
            raise ParseError(f"input nested deeper than {MAX_NESTING} levels",
                             t.line, t.col)
        cur.depth += 1
        try:
            return parse(owner, *args)
        finally:
            cur.depth -= 1
    return nested


# ---------------------------------------------------------------------------
# Session type syntax

def parse_session_type(cur: _Cursor) -> T.SessionType:
    left = _styp_tensor(cur)
    if cur.try_take("@"):
        return T.Parr(left, parse_session_type(cur))
    return left


def _styp_tensor(cur):
    left = _styp_atom(cur)
    if cur.try_take("*"):
        return T.Tensor(left, _styp_tensor(cur))
    return left


# the constructors written before their components
_STYP_PREFIX = {tok: cls for cls, tok in T.TOKEN.items()
                if cls not in (T.Tensor, T.Parr)}


@_nesting
def _styp_atom(cur):
    cls = _STYP_PREFIX.get(cur.peek().text)
    if cls is not None:
        cur.pos += 1
        if cls in T.ROWS:
            return cls(_styp_row(cur))
        return cls(_styp_atom(cur)) if cls.__match_args__ else cls()
    if cur.try_take("("):
        t = parse_session_type(cur)
        cur.take(")")
        return t
    t = cur.peek()
    raise ParseError(f"expected a session type, found {t.text!r}",
                     t.line, t.col)


def _styp_row(cur):
    cur.take("{")
    items = []
    while True:
        lab = cur.take("ident").text
        cur.take(":")
        items.append((lab, parse_session_type(cur)))
        if not cur.try_take(","):
            break
    cur.take("}")
    return T.row(items)


def session_type_of(text: str) -> T.SessionType:
    cur = _Cursor(tokenize(text))
    t = parse_session_type(cur)
    cur.take("eof")
    return t


# ---------------------------------------------------------------------------
# Intersection type syntax

@_nesting
def parse_strict(cur: _Cursor):
    if cur.at("ident", "unit"):
        cur.take("ident")
        return LT.UnitT()
    if cur.try_take("("):
        if not _arrow_ahead(cur):
            t = parse_strict(cur)
            cur.take(")")
            return t
        mult = parse_mult(cur)
        cur.take(",")
        lst = parse_list_type(cur)
        cur.take(")")
        cur.take("->")
        return LT.ArrowT(mult, lst, parse_strict(cur))
    t = cur.peek()
    raise ParseError(f"expected a strict type, found {t.text!r}",
                     t.line, t.col)


def _arrow_ahead(cur: _Cursor) -> bool:
    """Whether the group after a `(` is an arrow's `(mult, list)`: a `,`
    at depth 0 before the matching `)`. Deciding up front parses each group
    once, where backtracking cost a factor per level of nesting."""
    depth = 0
    for t in cur.toks[cur.pos:]:
        if t.kind == "(":
            depth += 1
        elif t.kind == ")":
            if depth == 0:
                return False
            depth -= 1
        elif t.kind == "," and depth == 0:
            return True
    return False


def parse_mult(cur: _Cursor, bare: bool = False):
    """A multiplicity, `w` or `strict ^ k`. With `bare`, a strict type not
    followed by `^ k` is returned as it is."""
    if cur.at("ident", "w"):
        cur.take("ident")
        return LT.OMEGA
    base = parse_strict(cur)
    if bare and not cur.at("^"):
        return base
    cur.take("^")
    k = int(cur.take("int").text)
    if k == 0:
        return LT.OMEGA
    return LT.Mult(base, k)


def parse_list_type(cur: _Cursor):
    items = [parse_strict(cur)]
    while cur.try_take("."):
        items.append(parse_strict(cur))
    return tuple(items)


def strict_type_of(text: str):
    cur = _Cursor(tokenize(text))
    t = parse_strict(cur)
    cur.take("eof")
    return t


# ---------------------------------------------------------------------------
# Process syntax

class _Scope:
    """Name resolution: binders shadow, free spellings are shared per
    declaration."""

    def __init__(self, supply):
        self.supply = supply
        self.stack = [{}]
        self.free = {}

    def push(self):
        self.stack.append({})

    def pop(self):
        self.stack.pop()

    def bind(self, text) -> Name:
        n = self.supply.fresh(text)
        self.stack[-1][text] = n
        return n

    def resolve(self, text) -> Name:
        for frame in reversed(self.stack):
            if text in frame:
                return frame[text]
        if text not in self.free:
            self.free[text] = self.supply.fresh(text)
        return self.free[text]


_PROC_KEYWORDS = {"new", "close", "wait", "some", "none", "expect", "OK", "def"}


class SpiParser:
    def __init__(self, text, supply=None):
        self.cur = _Cursor(tokenize(text))
        self.supply = supply or NameSupply(1)
        self.defs = {}       # name -> (Process, free map, ctx or None)
        self.order = []

    def parse(self):
        while not self.cur.at("eof"):
            self._decl()
        return self

    def _decl(self):
        self.cur.take("ident", "def")
        name = self.cur.take("ident").text
        if name in self.defs:
            raise ParseError(f"duplicate definition {name!r}")
        ctx_entries = None
        if self.cur.try_take("["):
            ctx_entries = []
            if not self.cur.at("]"):
                while True:
                    n = self.cur.take("ident").text
                    self.cur.take(":")
                    ctx_entries.append((n, parse_session_type(self.cur)))
                    if not self.cur.try_take(","):
                        break
            self.cur.take("]")
        self.cur.take("=")
        scope = _Scope(self.supply)
        proc = self._alt(scope)
        ctx = None
        if ctx_entries is not None:
            ctx = {}
            for text, ty in ctx_entries:
                ctx[scope.resolve(text)] = ty
        self.defs[name] = (proc, scope.free, ctx)
        self.order.append(name)

    # sums loosest, then parallel, then prefixes
    def _alt(self, scope):
        parts = [self._par(scope)]
        while self.cur.try_take("++"):
            parts.append(self._par(scope))
        return P.sum_all(parts)

    def _par(self, scope):
        parts = [self._atom(scope)]
        while self.cur.try_take("|"):
            parts.append(self._atom(scope))
        return P.par_all(parts) if len(parts) > 1 else parts[0]

    def _component(self, scope):
        # one side of a restriction or output: sums of atoms; an inner
        # parallel needs its own parentheses
        parts = [self._atom(scope)]
        while self.cur.try_take("++"):
            parts.append(self._atom(scope))
        return P.sum_all(parts)

    def _two_components(self, scope, what):
        self.cur.take("(")
        first = self._component(scope)
        self.cur.take("|")
        second = self._component(scope)
        if not self.cur.at(")"):
            t = self.cur.peek()
            raise ParseError(f"{what} takes exactly two parallel components",
                             t.line, t.col)
        self.cur.take(")")
        return first, second

    @_nesting
    def _atom(self, scope):
        cur = self.cur
        if cur.at("int", "0"):
            cur.take("int")
            return P.Inaction()
        if cur.at("ident", "OK"):
            cur.take("ident")
            return P.Success()
        if cur.try_take("["):
            x = scope.resolve(cur.take("ident").text)
            cur.take("<->")
            y = scope.resolve(cur.take("ident").text)
            cur.take("]")
            return P.Forward(x, y)
        if cur.at("ident", "new"):
            cur.take("ident")
            x = cur.take("ident").text
            scope.push()
            name = scope.bind(x)
            left, right = self._two_components(scope, "restriction")
            scope.pop()
            return P.Restrict(name, left, right)
        if cur.at("ident", "close"):
            cur.take("ident")
            return P.Close(scope.resolve(cur.take("ident").text))
        if cur.at("ident", "wait"):
            cur.take("ident")
            x = scope.resolve(cur.take("ident").text)
            cur.take(".")
            return P.Wait(x, self._atom(scope))
        if cur.at("ident", "some"):
            cur.take("ident")
            x = scope.resolve(cur.take("ident").text)
            cur.take(".")
            return P.SomeAvail(x, self._atom(scope))
        if cur.at("ident", "none"):
            cur.take("ident")
            return P.NoneAvail(scope.resolve(cur.take("ident").text))
        if cur.at("ident", "expect"):
            cur.take("ident")
            x = scope.resolve(cur.take("ident").text)
            cur.take("[")
            deps = []
            if not cur.at("]"):
                while True:
                    deps.append(scope.resolve(cur.take("ident").text))
                    if not cur.try_take(","):
                        break
            cur.take("]")
            cur.take(".")
            return P.Expect(x, tuple(deps), self._atom(scope))
        if cur.try_take("?"):  # client request: ?x!(y). P
            x = scope.resolve(cur.take("ident").text)
            cur.take("!")
            cur.take("(")
            scope.push()
            y = scope.bind(cur.take("ident").text)
            cur.take(")")
            cur.take(".")
            p = self._atom(scope)
            scope.pop()
            return P.Client(x, y, p)
        if cur.try_take("!"):  # server: !x?(y). P
            x = scope.resolve(cur.take("ident").text)
            cur.take("?")
            cur.take("(")
            scope.push()
            y = scope.bind(cur.take("ident").text)
            cur.take(")")
            cur.take(".")
            p = self._atom(scope)
            scope.pop()
            return P.Server(x, y, p)
        if cur.try_take("("):
            p = self._alt(scope)
            cur.take(")")
            return p
        if cur.at("ident"):
            text = cur.take("ident").text
            # prefixed forms on a channel
            if cur.try_take("!"):  # output x!(y)(P | Q)
                x = scope.resolve(text)
                cur.take("(")
                scope.push()
                y = scope.bind(cur.take("ident").text)
                cur.take(")")
                payload, cont = self._two_components(scope, "output")
                scope.pop()
                return P.Output(x, y, payload, cont)
            if cur.try_take("?"):  # input x?(y). P
                x = scope.resolve(text)
                cur.take("(")
                scope.push()
                y = scope.bind(cur.take("ident").text)
                cur.take(")")
                cur.take(".")
                p = self._atom(scope)
                scope.pop()
                return P.Input(x, y, p)
            if cur.try_take("#"):  # select x#label. P
                x = scope.resolve(text)
                lab = cur.take("ident").text
                cur.take(".")
                return P.Select(x, lab, self._atom(scope))
            if cur.try_take("&"):  # branch x&{l: P, ...}
                x = scope.resolve(text)
                cur.take("{")
                items = []
                while True:
                    lab = cur.take("ident").text
                    cur.take(":")
                    items.append((lab, self._alt(scope)))
                    if not cur.try_take(","):
                        break
                cur.take("}")
                return P.make_branch(x, items)
            # otherwise: reference to an earlier definition
            if text in self.defs:
                return self._inline(text, scope)
            t = cur.peek()
            raise ParseError(f"unknown process reference {text!r}",
                             t.line, t.col)
        t = cur.peek()
        raise ParseError(f"expected a process, found {t.text!r}",
                         t.line, t.col)

    def _inline(self, name, scope):
        proc, freemap, _ = self.defs[name]
        fresh = P.freshen_binders(proc, self.supply)
        mapping = {}
        for text, old in freemap.items():
            mapping[old] = scope.resolve(text)
        return P.rename_free(fresh, mapping)


def parse_spi(text: str, supply=None) -> SpiParser:
    return SpiParser(text, supply).parse()


# ---------------------------------------------------------------------------
# Lambda syntax

_LAM_KEYWORDS = {"def", "wf", "wt", "fail", "OK"}


class LcParser:
    def __init__(self, text, supply=None):
        self.cur = _Cursor(tokenize(text))
        self.supply = supply or NameSupply(1)
        self.defs = {}      # name -> (term, free map)
        self.order = []
        self.judgments = []  # (kind, name, theta, gamma, tau)

    def parse(self):
        while not self.cur.at("eof"):
            if self.cur.at("ident", "def"):
                self._def()
            elif self.cur.at("ident", "wf") or self.cur.at("ident", "wt"):
                self._judgment()
            else:
                t = self.cur.peek()
                raise ParseError(
                    f"expected a declaration, found {t.text!r}", t.line, t.col)
        return self

    def _def(self):
        self.cur.take("ident", "def")
        name = self.cur.take("ident").text
        if name in self.defs:
            raise ParseError(f"duplicate definition {name!r}")
        self.cur.take("=")
        scope = _Scope(self.supply)
        term = self._term(scope)
        self.defs[name] = (term, scope.free)
        self.order.append(name)

    def _judgment(self):
        kind = self.cur.take("ident").text
        name = self.cur.take("ident").text
        if name not in self.defs:
            raise ParseError(f"judgment references unknown term {name!r}")
        _, freemap = self.defs[name]
        theta, gamma = {}, {}
        self.cur.take("[")
        if not self.cur.at("]"):
            while True:
                vtext = self.cur.take("ident").text
                bang = bool(self.cur.try_take("!"))
                self.cur.take(":")
                var = freemap.get(vtext) or self.supply.fresh(vtext)
                if bang:
                    theta[var] = parse_list_type(self.cur)
                else:
                    gamma[var] = parse_mult(self.cur, bare=True)
                if not self.cur.try_take(","):
                    break
        self.cur.take("]")
        self.cur.take(":")
        tau = parse_strict(self.cur)
        self.judgments.append((kind, name, theta, gamma, tau))

    @_nesting
    def _term(self, scope):
        if self.cur.try_take("\\"):
            x = self.cur.take("ident").text
            self.cur.take(".")
            scope.push()
            v = scope.bind(x)
            body = self._term(scope)
            scope.pop()
            return L.Abs(v, body)
        return self._app(scope)

    def _app(self, scope):
        t = self._primary(scope)
        while True:
            if self.cur.at("<"):
                t = L.App(t, self._bag(scope))
            elif self.cur.at("["):
                t = self._sharing(t, scope)
            elif self.cur.at("{|"):
                t = self._sub(t, scope)
            elif self.cur.at("{!"):
                t = self._unrsub(t, scope)
            else:
                return t

    def _primary(self, scope):
        cur = self.cur
        if cur.at("ident", "OK"):
            cur.take("ident")
            return L.SuccessT()
        if cur.at("ident", "fail"):
            cur.take("ident")
            cur.take("{")
            vs = []
            if not cur.at("}"):
                while True:
                    vs.append(scope.resolve(cur.take("ident").text))
                    if not cur.try_take(","):
                        break
            cur.take("}")
            return L.Fail(frozenset(vs))
        if cur.try_take("("):
            t = self._term(scope)
            cur.take(")")
            return t
        if cur.at("ident"):
            text = cur.take("ident").text
            if cur.at("[") and cur.at("int", ahead=1) and cur.at("]", ahead=2):
                cur.take("[")
                i = int(cur.take("int").text)
                cur.take("]")
                return L.UnrVar(scope.resolve(text), i)
            if text in self.defs and not self._scoped(text, scope):
                return self._inline(text, scope)
            return L.LinVar(scope.resolve(text))
        t = cur.peek()
        raise ParseError(f"expected a term, found {t.text!r}", t.line, t.col)

    def _scoped(self, text, scope):
        return any(text in frame for frame in scope.stack) or text in scope.free

    def _inline(self, name, scope):
        term, freemap = self.defs[name]
        fresh = L.freshen_term(term, self.supply)
        return L.rename_vars(fresh, {old: scope.resolve(text)
                                     for text, old in freemap.items()})

    def _bag(self, scope) -> L.Bag:
        self.cur.take("<")
        items = []
        if not self.cur.at(">"):
            while True:
                items.append(self._term(scope))
                if not self.cur.try_take(","):
                    break
        self.cur.take(">")
        slots = (None,)
        if self.cur.try_take("*"):
            slots = self._slots(scope)
        return L.Bag(tuple(items), slots)

    def _slots(self, scope):
        slots = [self._slot(scope)]
        while self.cur.try_take("."):
            slots.append(self._slot(scope))
        return tuple(slots)

    def _slot(self, scope):
        self.cur.take("!")
        if self.cur.try_take("int", "1"):
            return None
        self.cur.take("<")
        t = self._term(scope)
        self.cur.take(">")
        return t

    def _sharing(self, subject, scope):
        self.cur.take("[")
        aliases = []
        if not self.cur.at("<-"):
            while True:
                aliases.append(self.cur.take("ident").text)
                if not self.cur.try_take(","):
                    break
        self.cur.take("<-")
        var = scope.resolve(self.cur.take("ident").text)
        self.cur.take("]")
        fresh_aliases = []
        for text in aliases:
            old = scope.resolve(text)
            new = self.supply.fresh(text)
            subject = L.rename_var(subject, new, old)
            fresh_aliases.append(new)
        return L.Sharing(subject, tuple(fresh_aliases), var)

    def _sub(self, subject, scope):
        self.cur.take("{|")
        self.cur.take("<")
        items = []
        if not self.cur.at(">"):
            while True:
                items.append(self._term(scope))
                if not self.cur.try_take(","):
                    break
        self.cur.take(">")
        if self.cur.try_take("*"):
            slots = self._slots(scope)
            self.cur.take("/")
            var = scope.resolve(self.cur.take("ident").text)
            self.cur.take("|}")
            new = self.supply.fresh(var.display)
            subject = L.rename_var(subject, new, var)
            return L.InterSub(subject, L.Bag(tuple(items), slots), new)
        self.cur.take("/")
        vs = []
        if not self.cur.at("|}"):
            while True:
                vs.append(self.cur.take("ident").text)
                if not self.cur.try_take(","):
                    break
        self.cur.take("|}")
        fresh_vars = []
        for text in vs:
            old = scope.resolve(text)
            new = self.supply.fresh(text)
            subject = L.rename_var(subject, new, old)
            fresh_vars.append(new)
        return L.LinSub(subject, tuple(items), tuple(fresh_vars))

    def _unrsub(self, subject, scope):
        self.cur.take("{!")
        slots = self._slots(scope)
        self.cur.take("/")
        var = scope.resolve(self.cur.take("ident").text)
        self.cur.take("!}")
        new = self.supply.fresh(var.display)
        subject = L.rename_var(subject, new, var)
        return L.UnrSub(subject, slots, new)


def parse_lc(text: str, supply=None) -> LcParser:
    return LcParser(text, supply).parse()
