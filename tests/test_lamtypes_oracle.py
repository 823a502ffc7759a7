"""Differential test of the intersection-type checker against the checker
it replaced (`reference_lamtypes.py`), whose `unify` and `zonk` came in
three copies, one per sort (strict types, multiplicities, list types), and
whose `_check` spelled out the variable rules of `_synth`.

The terms are every subterm of each `corr.lc` and `ex32.lc` definition and
of the benchmark's lambda family, of their one-step reducts and of their
expansions. Each is checked by `check_wf` and `check_wt` under seeded
random contexts: its linear free variables, in (id, display) order, get a
strict type or a multiplicity, all its free variables a list type (for
their unrestricted occurrences), and the goal a strict type, some of them
metavariables. Both checkers must
accept, or raise the same error with the same text once metavariable
numbers are taken out. The reference has no occurs check: where it binds
a metavariable to a type that holds it, it is stopped there, and the
checker under test must raise its cyclic-type `TypeMismatch`. (Left to
run, the reference went on to a `RecursionError` or to another verdict
on the cyclic type.)
"""

import random
import re

import pytest

from eagerpi import lam as L
from eagerpi.lamtypes import (ArrowT, MetaList, MetaS, Mult, UnitT, check_wf,
                              check_wt)
from tests import reference_lamtypes as ref
from tests.test_lam_multiset import terms
from tests.test_lam_spine_oracle import subterms

CONTEXTS = 10  # random contexts per subterm


def _strict(rng, depth):
    r = rng.random()
    if depth == 0 or r < 0.45:
        return UnitT()
    if r < 0.6:
        return MetaS()
    k = rng.randint(0, 2)
    return ArrowT(Mult(_strict(rng, depth - 1) if k else None, k),
                  _list(rng, depth - 1), _strict(rng, depth - 1))


def _list(rng, depth):
    if rng.random() < 0.2:
        return MetaList()
    return tuple(_strict(rng, depth) for _ in range(rng.randint(0, 2)))


def _context(seed, m):
    """(theta, gamma, tau) for m drawn from `seed`; each call builds new
    metavariables, so the two checkers never share one."""
    rng = random.Random(seed)
    order = lambda vs: sorted(vs, key=lambda v: (v.id, v.display))
    linear = L.llfv(m)
    gamma = {}
    for v in order(linear):
        if rng.random() < 0.5:
            gamma[v] = _strict(rng, 2)
        else:
            k = rng.randint(0, 2)
            gamma[v] = Mult(_strict(rng, 1) if k else None, k)
    theta = {v: _list(rng, 2) for v in order(L.free_vars(m))}
    return theta, gamma, _strict(rng, 3)


class _Cyclic(Exception):
    pass


def _holds(m, t) -> bool:
    t = ref.resolve(t)
    if isinstance(t, ArrowT):
        return any(_holds(m, c) for c in (t.mult, t.lst, t.target))
    if isinstance(t, Mult):
        return t.count > 0 and _holds(m, t.base)
    if isinstance(t, tuple):
        return any(_holds(m, c) for c in t)
    return t is m


def _stop_at_cycles(unify):
    """`unify` that raises `_Cyclic` where it would bind a metavariable
    to a type that holds it."""
    def watched(t1, t2, where=""):
        a, b = ref.resolve(t1), ref.resolve(t2)
        meta = (MetaS, MetaList)
        m, t = (a, b) if isinstance(a, meta) else (b, a)
        if a is not b and isinstance(m, meta) and _holds(m, t):
            raise _Cyclic
        return unify(t1, t2, where)
    return watched


def _outcome(check, m, seed):
    theta, gamma, tau = _context(seed, m)
    try:
        check(theta, gamma, m, tau)
    except _Cyclic:
        return "cyclic"
    except Exception as e:
        return type(e).__name__, re.sub(r"\?([sl])\d+", r"?\1", str(e))
    return "ok"


def _agree(got, want) -> bool:
    if want == "cyclic":
        return got[0] == "LamTypeError" and \
            got[1].startswith("TypeMismatch: cyclic type:")
    return got == want


@pytest.fixture(scope="module")
def cases():
    out = {}   # one entry per subterm object
    for name, m in terms():
        tops = [m, *(t for _, t in L.step_all(m)), *L.expansions(m)]
        for top in tops:
            for s in subterms(top):
                out[id(s)] = (name, s)
    return [(name, s, f"{name}/{i}/{j}")
            for i, (name, s) in enumerate(out.values())
            for j in range(CONTEXTS)]


@pytest.mark.parametrize("check, ref_check", [(check_wf, ref.check_wf),
                                              (check_wt, ref.check_wt)],
                         ids=["wf", "wt"])
def test_checker_matches_reference(cases, check, ref_check, monkeypatch):
    for f in ("unify", "unify_list"):
        monkeypatch.setattr(ref, f, _stop_at_cycles(getattr(ref, f)))
    outcomes = set()
    for name, m, seed in cases:
        got = _outcome(check, m, seed)
        assert _agree(got, _outcome(ref_check, m, seed)), (name, seed)
        outcomes.add(got)
    # the contexts reach both verdicts, each sort's mismatch of unify and
    # the occurs check
    texts = " ".join(map(str, outcomes))
    assert "ok" in outcomes
    for mismatch in ("expected", "multiset sizes", "list types of lengths",
                     "cyclic type"):
        assert mismatch in texts
