"""The resource lambda calculus: terms, bags, head forms, and reduction.

Bags have a linear part (a multiset of terms, each consumed exactly once)
and an unrestricted part (an ordered sequence of slots copied on use; a
slot is either a term or empty, and indexing past the end reads as empty).
Reduction is closed under evaluation contexts (`SPINE`): the function
position of an application, the subject of both explicit substitutions,
and the subject of a sharing, but never under an abstraction, inside a
bag, or under an intermediate substitution.

Variables reuse the unique-id Name type; binders are freshened whenever a
rule copies a term, so fetching never captures. `BINDING` declares what
each constructor binds, and free variables, renaming, freshening and the
linearity check of `lamtypes` are derived from it.

State identity is `lam_key`: terms are keyed modulo alpha-renaming and
modulo the order of linear bags and of binder tuples, since a linear bag
is a multiset and each variable of a tuple may take any of its items.
Terms are never mutated, so each term's key is computed once and cached
on it; `step_all` keys each reduct once, at the top.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Optional

from . import graph
from .names import Name, NameSupply, fresh_name


class Term:
    __slots__ = ()
    _key = None   # the key at the root (`lam_key`), set on first use


@dataclass(eq=False)
class LinVar(Term):
    var: Name


@dataclass(eq=False)
class UnrVar(Term):
    var: Name
    index: int  # 1-based position in the unrestricted bag


@dataclass(eq=False)
class Abs(Term):
    var: Name
    body: Term  # well-formed terms share the parameter at the top


@dataclass(eq=False)
class Bag:
    linear: tuple       # terms
    unr: tuple          # slots: Term or None (empty)


@dataclass(eq=False)
class App(Term):
    fn: Term
    bag: Bag


@dataclass(eq=False)
class Fail(Term):
    vars: frozenset  # dangling resources


@dataclass(eq=False)
class Sharing(Term):
    body: Term
    aliases: tuple  # each occurs exactly once in body
    var: Name


@dataclass(eq=False)
class InterSub(Term):
    body: Term
    bag: Bag
    var: Name


@dataclass(eq=False)
class LinSub(Term):
    body: Term
    items: tuple  # linear bag contents
    vars: tuple


@dataclass(eq=False)
class UnrSub(Term):
    body: Term
    slots: tuple
    var: Name


@dataclass(eq=False)
class SuccessT(Term):
    pass


def empty_bag() -> Bag:
    return Bag((), (None,))


def bag(*linear, unr=(None,)) -> Bag:
    return Bag(tuple(linear), tuple(unr))


def slot_at(slots: tuple, i: int):
    """1-based unrestricted lookup; past-the-end positions are empty."""
    if 1 <= i <= len(slots):
        return slots[i - 1]
    return None


# ---------------------------------------------------------------------------
# Binding structure

# One row per constructor: the fields holding free variables, the field
# holding the variables bound in the body (the first subterm field), and
# the subterm fields. A field may hold several variables (a tuple or a
# frozenset) or several subterms (a tuple, whose empty slots are None).
BINDING = {
    LinVar: (("var",), None, ()),
    UnrVar: (("var",), None, ()),
    SuccessT: ((), None, ()),
    Fail: (("vars",), None, ()),
    Abs: ((), "var", ("body",)),
    App: ((), None, ("fn", "bag")),
    Bag: ((), None, ("linear", "unr")),
    Sharing: (("var",), "aliases", ("body",)),
    InterSub: ((), "var", ("body", "bag")),
    LinSub: ((), "vars", ("body", "items")),
    UnrSub: ((), "var", ("body", "slots")),
}


def _entries(v):
    """The entries of a field that holds several (a tuple or a frozenset),
    else the field's one value."""
    return v if isinstance(v, (tuple, frozenset)) else (v,)


def _free(m, out: set, bound, unr: bool):
    """Add the free variables of a term or bag to `out`; with `unr` false,
    unrestricted occurrences x[i] do not count."""
    names, binder, subs = BINDING[type(m)]
    if unr or not isinstance(m, UnrVar):
        for f in names:
            out.update(v for v in _entries(getattr(m, f)) if v not in bound)
    if binder:
        inner = bound.union(_entries(getattr(m, binder)))
        _free(getattr(m, subs[0]), out, inner, unr)
        subs = subs[1:]
    for f in subs:
        for t in _entries(getattr(m, f)):
            if t is not None:
                _free(t, out, bound, unr)


def free_vars(m) -> set:
    out = set()
    _free(m, out, frozenset(), True)
    return out


def llfv(m) -> frozenset:
    """Free variables with linear occurrences (unrestricted occurrences
    x[i] do not count)."""
    out = set()
    _free(m, out, frozenset(), False)
    return frozenset(out)


def ids(m) -> set:
    """The id of every variable of a term or bag, free or bound."""
    names, binder, subs = BINDING[type(m)]
    out = {v.id for f in names + ((binder,) if binder else ())
           for v in _entries(getattr(m, f))}
    for f in subs:
        for t in _entries(getattr(m, f)):
            if t is not None:
                out |= ids(t)
    return out


def llfv_bag(bg) -> frozenset:
    return llfv(bg)


def llfv_items(items) -> frozenset:
    out = set()
    for it in items:
        _free(it, out, frozenset(), False)
    return frozenset(out)


def _rename(m, env: dict, fresh=None):
    """m with every free variable v in `env` replaced by env[v], all at
    once. With `fresh`, every binder b is also renamed to fresh(b): a
    node's binders first, then its body, then its other subterms."""
    if fresh is None and not env:
        return m
    cls = type(m)
    names, binder, subs = BINDING[cls]
    values = {}
    inner = env
    if binder is not None:
        b = getattr(m, binder)
        if fresh is not None:
            new = tuple(fresh(v) for v in _entries(b))
            values[binder] = new if isinstance(b, tuple) else new[0]
            inner = {**env, **dict(zip(_entries(b), new))}
        else:
            inner = {v: w for v, w in env.items() if v not in _entries(b)}
    for f in names:
        v = getattr(m, f)
        values[f] = (type(v)(env.get(n, n) for n in v)
                     if isinstance(v, (tuple, frozenset)) else env.get(v, v))
    for i, f in enumerate(subs):
        v, e = getattr(m, f), (env if i else inner)
        values[f] = (tuple(None if t is None else _rename(t, e, fresh)
                           for t in v)
                     if isinstance(v, tuple) else _rename(v, e, fresh))
    return cls(*(values.get(f, getattr(m, f))
                 for f in cls.__dataclass_fields__))


def freshen_term(m, supply: Optional[NameSupply] = None):
    """Rename every binder (abstraction parameters, aliases, substitution
    variables) to fresh names; used when an unrestricted fetch copies."""
    fresh = supply.variant if supply else (lambda n: fresh_name(n.display))
    return _rename(m, {}, fresh)


def rename_var(m, new: Name, old: Name):
    """Rename free occurrences of a variable, including its unrestricted
    occurrences and its appearances as a sharing variable or in a failure
    set; shadowing binders stop the renaming."""
    if new == old:
        return m
    return _rename(m, {old: new})


def rename_vars(m, mapping: dict):
    """Simultaneous `rename_var` of mapping[v] for each free variable v."""
    return _rename(m, mapping)


# ---------------------------------------------------------------------------
# Keys: alpha-invariant, and invariant under bag and binder permutation

def lam_key(m):
    """The key of m, cached on the node: equal keys mean equal terms up to
    alpha-renaming, the order of every linear bag (`Bag.linear`,
    `LinSub.items`) and the order of every binder tuple (`LinSub.vars`,
    `Sharing.aliases`). Unrestricted slots stay positional.

    A bound variable is keyed by the level of its binder, so the variables
    of one tuple share one token; the binder adds the pattern in which
    they occur, each numbered by its first occurrence in the body. Linear
    items are sorted by key, and the body is read in that sorted order,
    so in a term where each tuple variable occurs at most once the
    pattern is 0, 1, 2, ... whatever order the term was written in.

    Where a tuple variable occurs more than once (the parser accepts
    such aliases) and one occurrence is in a `Fail` set, the variables
    of that set are read in the order of their ids, which alpha-renaming
    may change: such terms may get different keys for one class, so the
    graph only keeps more states than it needs, never fewer."""
    k = m._key
    if k is None:
        k = m._key = _key(m, {}, 0, [])
    return k


def _var(v, env, log):
    """The token of variable v; an occurrence of a tuple-bound variable
    is logged as (token, v) for its binder's pattern."""
    tok = env.get(v)
    if tok is None:
        return ("f", v.display)
    if tok[0] == "t":
        log.append((tok, v))
    return tok


def _key(m, env, depth, log):
    match m:
        case LinVar(v):
            return ("lv", _var(v, env, log))
        case UnrVar(v, i):
            return ("uv", _var(v, env, log), i)
        case SuccessT():
            return ("ok",)
        case Fail(vs):
            order = sorted(vs, key=lambda v: (env.get(v) or ("f", v.display),
                                              v.id, v.display))
            return ("fail", tuple(_var(v, env, log) for v in order))
        case Abs(v, b):
            return ("abs", _key(b, {**env, v: ("b", depth)}, depth + 1, log))
        case App(f, bg):
            return ("app", _key(f, env, depth, log),
                    _bag_key(bg, env, depth, log))
        case Sharing(b, als, v):
            sv = _var(v, env, log)
            body, pattern = _tuple_scope(b, als, env, depth, log)
            return ("shar", sv, len(als), body, pattern)
        case InterSub(b, bg, v):
            return ("isub", _key(b, {**env, v: ("b", depth)}, depth + 1, log),
                    _bag_key(bg, env, depth, log))
        case LinSub(b, items, vs):
            body, pattern = _tuple_scope(b, vs, env, depth, log)
            return ("lsub", len(vs), body, pattern,
                    _multiset_key(items, env, depth, log))
        case UnrSub(b, slots, v):
            return ("usub", _key(b, {**env, v: ("b", depth)}, depth + 1, log),
                    _slots_key(slots, env, depth, log))
    raise TypeError(f"not a term: {m!r}")


def _tuple_scope(b, vs, env, depth, log):
    """The key of body b under the binder tuple vs, and the pattern of
    occurrences of vs in it; the occurrences leave the log."""
    tok = ("t", depth)
    start = len(log)
    body = _key(b, {**env, **dict.fromkeys(vs, tok)}, depth + 1, log)
    if len(log) == start:
        return body, ()
    logged, first = log[start:], {}
    pattern = tuple(first.setdefault(v, len(first))
                    for t, v in logged if t is tok)
    log[start:] = [e for e in logged if e[0] is not tok]
    return body, pattern


def _multiset_key(items, env, depth, log):
    """The item keys, sorted; the log is reordered to match."""
    start = len(log)
    marks, keys = [], []
    for it in items:
        marks.append(len(log))
        keys.append(_key(it, env, depth, log))
    if len(log) == start:
        return tuple(sorted(keys))
    marks.append(len(log))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    logged = log[:]   # marks index the whole log
    log[start:] = [e for i in order for e in logged[marks[i]:marks[i + 1]]]
    return tuple(keys[i] for i in order)


def _slots_key(slots, env, depth, log):
    return tuple(("e",) if s is None else _key(s, env, depth, log)
                 for s in slots)


def _bag_key(bg, env, depth, log):
    return ("bag", _multiset_key(bg.linear, env, depth, log),
            _slots_key(bg.unr, env, depth, log))


def lam_alpha_equal(m, n) -> bool:
    """Equal up to alpha-renaming and bag and binder permutation."""
    return lam_key(m) == lam_key(n)


# the fields holding the items of a linear bag
_LINEAR_ITEMS = {(Bag, "linear"), (LinSub, "items")}


def key_ordered(m):
    """m with the items of every linear bag (`Bag.linear`, `LinSub.items`)
    in the order of their keys in context, ties kept as written. Terms
    with equal `lam_key` then differ only in alpha-renaming, in the order
    of binder tuples, and in the order of items that tie, which differ at
    most in which variable of one tuple they use: the translation sums
    over every assignment to a tuple, so it tells none of these apart up
    to canonical forms. Unchanged subterms are returned as they are."""
    return _ordered(m, {}, 0)


def _ordered(m, env, depth):
    cls = type(m)
    _, binder, subs = BINDING[cls]
    changed = {}
    for i, f in enumerate(subs):
        e, d = env, depth
        if binder is not None and i == 0:
            bound = getattr(m, binder)
            tok = ("t", depth) if isinstance(bound, tuple) else ("b", depth)
            e, d = {**env, **dict.fromkeys(_entries(bound), tok)}, depth + 1
        old = getattr(m, f)
        if isinstance(old, tuple):
            new = tuple(None if t is None else _ordered(t, e, d) for t in old)
            if (cls, f) in _LINEAR_ITEMS:
                new = tuple(sorted(new, key=lambda t: _key(t, e, d, [])))
            if any(t is not u for t, u in zip(new, old)):
                changed[f] = new
        elif (new := _ordered(old, e, d)) is not old:
            changed[f] = new
    if not changed:
        return m
    return cls(*(changed.get(f, getattr(m, f))
                 for f in cls.__dataclass_fields__))


# ---------------------------------------------------------------------------
# Head and head substitution

# The evaluation contexts: the constructors whose first field (the function
# of an application, the subject of an explicit substitution or of a
# sharing) is a reduction position. `_SPLIT` reads a node's fields in
# order, so `head`, `head_substitute`, `_reducts` and `expansions` walk the
# spine through this table alone.
SPINE = (App, LinSub, UnrSub, Sharing)
_SPLIT = {cls: attrgetter(*cls.__match_args__) for cls in SPINE}


def head(m):
    """The head form: the spine end through applications, both explicit
    substitutions, and sharing (redirected to the sharing variable when the
    inner head is a shared alias). An intermediate substitution is its own
    head."""
    split = _SPLIT.get(type(m))
    if split is None:
        if isinstance(m, Term):
            return m
        raise TypeError(f"not a term: {m!r}")
    b, *rest = split(m)
    h = head(b)
    return _shared_head(h, *rest) if isinstance(m, Sharing) else h


def _shared_head(h, als, v):
    """The head of a sharing of `als` as v over a body whose head is h."""
    return LinVar(v) if isinstance(h, LinVar) and h.var in als else h


class HeadMismatch(Exception):
    pass


def head_substitute(m, repl, occ):
    """Replace exactly the head occurrence `occ` (a LinVar or UnrVar node
    value) with `repl`."""
    split = _SPLIT.get(type(m))
    if split is not None:
        b, *rest = split(m)
        return type(m)(head_substitute(b, repl, occ), *rest)
    if isinstance(m, (LinVar, UnrVar)) and type(occ) is type(m) \
            and m.var == occ.var and (isinstance(m, LinVar)
                                      or m.index == occ.index):
        return repl
    raise HeadMismatch(m)


# ---------------------------------------------------------------------------
# Reduction

def _local_steps(m, h):
    """One-step reducts of m at its root; `h` is head(m)."""
    out = []
    match m:
        case App(Abs(_, _) as f, bg):
            out.append(("beta", InterSub(f.body, bg, f.var)))
        case App(Fail(vs), bg):
            out.append(("cons1", Fail(vs | llfv_bag(bg))))
        case InterSub(Sharing(sb, als, sv), bg, v) if sv == v:
            if len(bg.linear) != len(als):
                newset = (llfv(sb) - set(als)) | llfv_items(bg.linear)
                out.append(("fail-lin", Fail(frozenset(newset))))
            elif isinstance(sb, Fail):
                newset = (sb.vars - set(als)) | llfv_items(bg.linear)
                out.append(("cons2", Fail(frozenset(newset))))
            else:
                out.append(("ex-sub",
                            UnrSub(LinSub(sb, bg.linear, als), bg.unr, v)))
        case LinSub(b, items, vs):
            if isinstance(b, Fail):
                if set(vs) <= b.vars:
                    newset = (b.vars - set(vs)) | llfv_items(items)
                    out.append(("cons3", Fail(frozenset(newset))))
            elif isinstance(h, LinVar) and h.var in vs:
                j = vs.index(h.var)
                rest_vars = vs[:j] + vs[j + 1:]
                for i, item in enumerate(items):
                    rest = items[:i] + items[i + 1:]
                    body2 = head_substitute(b, item, h)
                    out.append((f"fetch-lin:{i + 1}",
                                LinSub(body2, rest, rest_vars)))
        case UnrSub(b, slots, v):
            if isinstance(b, Fail):
                out.append(("cons4", b))
            elif isinstance(h, UnrVar) and h.var == v:
                s = slot_at(slots, h.index)
                if s is None:
                    body2 = head_substitute(b, Fail(frozenset()), h)
                    out.append(("fail-unr", UnrSub(body2, slots, v)))
                else:
                    body2 = head_substitute(b, freshen_term(s), h)
                    out.append((f"fetch-unr:{h.index}",
                                UnrSub(body2, slots, v)))
        case _:
            pass
    return out


def _reducts(m):
    """(all one-step reducts (rule tag, term), closed under the evaluation
    contexts, repeats included; head(m)), passing the head up the spine."""
    split = _SPLIT.get(type(m))
    if split is None:
        return _local_steps(m, m), m
    b, *rest = split(m)
    inner, h = _reducts(b)
    if isinstance(m, Sharing):
        h = _shared_head(h, *rest)
    cls = type(m)
    return _local_steps(m, h) + [(tag, cls(t, *rest)) for tag, t in inner], h


def step_all(m) -> list:
    """All one-step reducts (rule tag, term), closed under the evaluation
    contexts, deduplicated by rule and key; the first of equal reducts is
    kept. Each reduct is keyed once, here: wrapping in a fixed context is
    injective on keys, so no context needs to deduplicate."""
    out = []
    seen = set()
    for tag, t in _reducts(m)[0]:
        key = (tag.split(":")[0], lam_key(t))
        if key not in seen:
            seen.add(key)
            out.append((tag, t))
    return out


def reduction_graph(m, bound: int, max_states: int = 20000, goal=None):
    """The reduction graph of m within `bound` steps, keyed by `lam_key`
    (see `graph.explore`)."""
    return graph.explore(m, step_all, lam_key, bound, max_states, goal)


def reachable(m, bound: int, max_states: int = 20000):
    """Terms reachable within `bound` steps, one per `lam_key` class;
    returns (list of terms, truncated flag)."""
    g = reduction_graph(m, bound, max_states)
    return [n.state for n in g.nodes.values()], g.truncated


def succeeds(m, bound: int = 64, max_states: int = 20000):
    """True iff some reduction sequence within `bound` steps reaches a term
    whose head is the success constant; second component flags a bound or
    the state cap exhausted while still undecided."""
    g = reduction_graph(m, bound, max_states,
                        lambda t: isinstance(head(t), SuccessT))
    return g.goal is not None, g.truncated


# ---------------------------------------------------------------------------
# Expansion oracle: invert the beta and substitution-splitting rules

def expansions(m):
    """Single-step predecessors of m obtained by inverting the beta rule
    (an intermediate substitution came from an application of an
    abstraction) and the substitution-splitting rule (a linear-over-
    unrestricted substitution pair came from an intermediate substitution
    over a sharing): those at m's root, then those under each evaluation
    context down the spine."""
    match m:
        case InterSub(b, bg, v):
            preds = [App(Abs(v, b), bg)]
        case UnrSub(LinSub(b, items, vs), slots, v) \
                if len(items) == len(vs) and not isinstance(b, Fail):
            preds = [InterSub(Sharing(b, vs, v), Bag(items, slots), v)]
        case _:
            preds = []
    split = _SPLIT.get(type(m))
    if split is not None:
        b, *rest = split(m)
        preds += [type(m)(r, *rest) for r in expansions(b)]
    return preds
