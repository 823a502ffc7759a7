"""Old forms of `eagerpi.lam`, kept verbatim for differential tests.

The sequence key and the context-by-context reduct deduplication, as they
were before keys became multiset-aware (`test_lam_key_oracle.py`):
`lam_key` keys a linear bag (`Bag.linear`) and `LinSub.items` as
sequences and numbers the binders of `LinSub.vars` and `Sharing.aliases`
by their position in the tuple. `step_all` deduplicates reducts by that
key at every evaluation context it passes through.

The head, head substitution, reduction and expansion walks, as they were
before one table (`lam.SPINE`) listed the evaluation contexts
(`test_lam_spine_oracle.py`): each spells the spine of applications,
explicit substitutions and sharings as its own `match`. `_local_steps`
is kept with them, so that it reads these `head` and `head_substitute`.
"""

from typing import Optional

from eagerpi.lam import (Abs, App, Bag, Fail, HeadMismatch, InterSub, LinSub,
                         LinVar, Sharing, SuccessT, UnrSub, UnrVar,
                         freshen_term, llfv, llfv_bag, llfv_items, slot_at)
from eagerpi.names import NameSupply


def lam_key(m, env=None, depth=0):
    if env is None:
        env = {}

    def nk(v):
        lvl = env.get(v)
        return ("b", lvl) if lvl is not None else ("f", v.display)

    match m:
        case LinVar(v):
            return ("lv", nk(v))
        case UnrVar(v, i):
            return ("uv", nk(v), i)
        case SuccessT():
            return ("ok",)
        case Fail(vs):
            return ("fail", tuple(sorted(nk(v) for v in vs)))
        case Abs(v, b):
            return ("abs", lam_key(b, {**env, v: (depth, 0)}, depth + 1))
        case App(f, bg):
            return ("app", lam_key(f, env, depth), _bag_key(bg, env, depth))
        case Sharing(b, als, v):
            env2 = {**env, **{a: (depth, i) for i, a in enumerate(als)}}
            return ("shar", nk(v), len(als), lam_key(b, env2, depth + 1))
        case InterSub(b, bg, v):
            return ("isub", lam_key(b, {**env, v: (depth, 0)}, depth + 1),
                    _bag_key(bg, env, depth))
        case LinSub(b, items, vs):
            env2 = {**env, **{x: (depth, i) for i, x in enumerate(vs)}}
            return ("lsub", len(vs), lam_key(b, env2, depth + 1),
                    tuple(lam_key(i, env, depth) for i in items))
        case UnrSub(b, slots, v):
            return ("usub", lam_key(b, {**env, v: (depth, 0)}, depth + 1),
                    tuple("e" if s is None else lam_key(s, env, depth)
                          for s in slots))
    raise TypeError(f"not a term: {m!r}")


def _bag_key(bg, env, depth):
    return ("bag", tuple(lam_key(i, env, depth) for i in bg.linear),
            tuple("e" if s is None else lam_key(s, env, depth) for s in bg.unr))


def step_all(m) -> list:
    """All one-step reducts (rule tag, term), closed under the evaluation
    contexts, deduplicated up to alpha."""
    out = []
    seen = set()

    def emit(tag, t):
        key = (tag.split(":")[0], lam_key(t))
        if key not in seen:
            seen.add(key)
            out.append((tag, t))

    for tag, t in _local_steps(m):
        emit(tag, t)
    match m:
        case App(f, bg):
            for tag, t in step_all(f):
                emit(tag, App(t, bg))
        case LinSub(b, items, vs):
            for tag, t in step_all(b):
                emit(tag, LinSub(t, items, vs))
        case UnrSub(b, slots, v):
            for tag, t in step_all(b):
                emit(tag, UnrSub(t, slots, v))
        case Sharing(b, als, v):
            for tag, t in step_all(b):
                emit(tag, Sharing(t, als, v))
        case _:
            pass
    return out


def head(m):
    """The head form: the spine end through applications, both explicit
    substitutions, and sharing (redirected to the sharing variable when the
    inner head is a shared alias). An intermediate substitution is its own
    head."""
    match m:
        case (LinVar(_) | UnrVar(_, _) | Abs(_, _) | Fail(_) | SuccessT()
              | InterSub(_, _, _)):
            return m
        case App(b, _) | LinSub(b, _, _) | UnrSub(b, _, _):
            return head(b)
        case Sharing(b, als, v):
            return _shared_head(head(b), als, v)
    raise TypeError(f"not a term: {m!r}")


def _shared_head(h, als, v):
    """The head of a sharing of `als` as v over a body whose head is h."""
    return LinVar(v) if isinstance(h, LinVar) and h.var in als else h


def head_substitute(m, repl, occ):
    """Replace exactly the head occurrence `occ` (a LinVar or UnrVar node
    value) with `repl`."""
    match m:
        case LinVar(v):
            if isinstance(occ, LinVar) and v == occ.var:
                return repl
            raise HeadMismatch(m)
        case UnrVar(v, i):
            if isinstance(occ, UnrVar) and v == occ.var and i == occ.index:
                return repl
            raise HeadMismatch(m)
        case App(f, bg):
            return App(head_substitute(f, repl, occ), bg)
        case LinSub(b, items, vs):
            return LinSub(head_substitute(b, repl, occ), items, vs)
        case UnrSub(b, slots, v):
            return UnrSub(head_substitute(b, repl, occ), slots, v)
        case Sharing(b, als, v):
            return Sharing(head_substitute(b, repl, occ), als, v)
    raise HeadMismatch(m)


def _local_steps(m, h=None):
    """One-step reducts of m at its root; `h` is head(m) if known."""
    out = []
    match m:
        case App(Abs(_, _) as f, bg):
            out.append(("beta", InterSub(f.body, bg, f.var)))
        case App(Fail(vs), bg):
            out.append(("cons1", Fail(vs | llfv_bag(bg))))
        case InterSub(Sharing(sb, als, sv), bg, v) if sv == v:
            size_ok = len(bg.linear) == len(als)
            if isinstance(sb, Fail):
                if size_ok:
                    newset = (sb.vars - set(als)) | llfv_items(bg.linear)
                    out.append(("cons2", Fail(frozenset(newset))))
                else:
                    newset = (llfv(sb) - set(als)) | llfv_items(bg.linear)
                    out.append(("fail-lin", Fail(frozenset(newset))))
            elif size_ok:
                out.append(("ex-sub",
                            UnrSub(LinSub(sb, bg.linear, als), bg.unr, v)))
            else:
                newset = (llfv(sb) - set(als)) | llfv_items(bg.linear)
                out.append(("fail-lin", Fail(frozenset(newset))))
        case LinSub(b, items, vs):
            if isinstance(b, Fail):
                if set(vs) <= b.vars:
                    newset = (b.vars - set(vs)) | llfv_items(items)
                    out.append(("cons3", Fail(frozenset(newset))))
            else:
                h = head(b) if h is None else h
                if isinstance(h, LinVar) and h.var in vs:
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
            else:
                h = head(b) if h is None else h
                if isinstance(h, UnrVar) and h.var == v:
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
    match m:
        case App(b, bg):
            rest = (bg,)
        case LinSub(b, r1, r2) | UnrSub(b, r1, r2) | Sharing(b, r1, r2):
            rest = (r1, r2)
        case _:
            return _local_steps(m, m), m
    inner, h = _reducts(b)
    if isinstance(m, Sharing):
        h = _shared_head(h, *rest)
    cls = type(m)
    return _local_steps(m, h) + [(tag, cls(t, *rest)) for tag, t in inner], h


def expansions(m, supply: Optional[NameSupply] = None):
    """Single-step predecessors of m obtained by inverting the beta rule
    (an intermediate substitution came from an application of an
    abstraction) and the substitution-splitting rule (a linear-over-
    unrestricted substitution pair came from an intermediate substitution
    over a sharing)."""
    preds = []

    def rebuild_here(t):
        out = []
        match t:
            case InterSub(b, bg, v):
                out.append(App(Abs(v, b), bg))
            case UnrSub(LinSub(b, items, vs), slots, v) \
                    if len(items) == len(vs) and not isinstance(b, Fail):
                sh = Sharing(b, vs, v)
                out.append(InterSub(sh, Bag(items, slots), v))
        return out

    def go(t, wrap):
        for cand in rebuild_here(t):
            preds.append(wrap(cand))
        match t:
            case App(f, bg):
                go(f, lambda r: wrap(App(r, bg)))
            case LinSub(b, items, vs):
                go(b, lambda r: wrap(LinSub(r, items, vs)))
            case UnrSub(b, slots, v):
                go(b, lambda r: wrap(UnrSub(r, slots, v)))
            case Sharing(b, als, v):
                go(b, lambda r: wrap(Sharing(r, als, v)))
            case _:
                pass

    go(m, lambda r: r)
    return preds
