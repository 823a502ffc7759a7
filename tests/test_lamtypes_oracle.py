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
numbers are taken out.
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


def _outcome(check, m, seed):
    theta, gamma, tau = _context(seed, m)
    try:
        check(theta, gamma, m, tau)
    except RecursionError:
        # a cyclic binding (unify has no occurs check): where the walk
        # over it overflows, and so the message, depends on the code
        return "RecursionError"
    except Exception as e:
        return type(e).__name__, re.sub(r"\?([sl])\d+", r"?\1", str(e))
    return "ok"


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
def test_checker_matches_reference(cases, check, ref_check):
    outcomes = set()
    for name, m, seed in cases:
        got = _outcome(check, m, seed)
        assert got == _outcome(ref_check, m, seed), (name, seed)
        outcomes.add(got)
    # the contexts reach both verdicts, and each sort's mismatch of unify
    texts = " ".join(map(str, outcomes))
    assert "ok" in outcomes
    for mismatch in ("expected", "multiset sizes", "list types of lengths"):
        assert mismatch in texts
