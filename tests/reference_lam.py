"""The sequence key and the context-by-context reduct deduplication of
`eagerpi.lam` as they were before keys became multiset-aware, kept
verbatim for the differential test `test_lam_key_oracle.py`.

`lam_key` keys a linear bag (`Bag.linear`) and `LinSub.items` as
sequences and numbers the binders of `LinSub.vars` and `Sharing.aliases`
by their position in the tuple. `step_all` deduplicates reducts by that
key at every evaluation context it passes through.
"""

from eagerpi.lam import (Abs, App, Fail, InterSub, LinSub, LinVar, Sharing,
                         SuccessT, UnrSub, UnrVar, _local_steps)


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
