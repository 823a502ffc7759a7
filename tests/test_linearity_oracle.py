"""Differential test of the linearity pre-pass read off `lam.BINDING`
(`lamtypes.check_linearity`) against the hand-written walk it replaced
(`reference_lamtypes.py`).

The terms are every term `reachable` finds at bound 64 from the `corr.lc`
and `ex32.lc` definitions and the benchmark's lambda family, every
expansion of each, and a list of malformed terms. Each is checked with the
empty domain and with its free variables as the domain: both walks must
accept it, or raise the same error with the same message.
"""

import pytest

from eagerpi import lam as L
from eagerpi.lamtypes import check_linearity
from eagerpi.names import NameSupply
from tests import reference_lamtypes as ref
from tests.test_lam_multiset import terms

BOUND = 64


def _malformed():
    s = NameSupply(1)
    x, y, z, a, b = (s.fresh(n) for n in "xyzab")
    X, Y, A = L.LinVar(x), L.LinVar(y), L.LinVar(a)
    twice = L.App(A, L.bag(A))
    return [
        L.Abs(x, L.Sharing(twice, (a,), x)),              # alias used twice
        L.Abs(x, L.Sharing(A, (a, b), x)),                # alias unused
        L.Abs(x, Y),                                      # parameter unused
        L.Abs(x, L.App(X, L.bag(X))),                     # parameter twice
        L.App(X, L.bag(X)),                               # free, twice
        L.App(X, L.bag(unr=(Y,))),                        # linear in a slot
        L.App(X, L.bag(Y, unr=(None, L.UnrVar(z, 1)))),   # slot, no linear
        L.InterSub(L.Sharing(A, (a,), y), L.bag(X), x),   # sharing not on x
        L.InterSub(L.Sharing(twice, (a,), x), L.bag(Y), x),
        L.LinSub(A, (X,), (a, b)),                        # b unused
        L.LinSub(twice, (X, Y), (a,)),                    # a twice
        L.UnrSub(X, (Y,), z),                             # linear in a slot
        L.UnrSub(L.App(X, L.bag(unr=(L.UnrVar(z, 1),))), (None,), z),
        L.UnrSub(L.LinVar(z), (None,), z),                # bound by UnrSub
        # the first bad count names the body's y before the sharing's x
        L.App(L.Sharing(L.App(Y, L.bag(Y, A)), (a,), x), L.bag(X)),
        L.Fail(frozenset((x, y))),
        L.App(L.Fail(frozenset((x,))), L.bag(X)),         # fail and use
        L.App(L.SuccessT(), L.bag(L.UnrVar(x, 2))),
        L.Abs(x, None),                                   # not a term
    ]


def _outcome(check, m, domain):
    try:
        check(m, domain)
    except Exception as e:
        return type(e), str(e)
    return None


@pytest.fixture(scope="module")
def cases():
    out = {}   # one entry per term object
    for _, m in terms():
        for t in L.reachable(m, BOUND)[0]:
            out[id(t)] = t
            out.update((id(u), u) for u in L.expansions(t))
    return list(out.values()) + _malformed()


def _domains(m):
    """The empty domain and m's free variables."""
    try:
        return set(), L.free_vars(m)
    except KeyError:   # a field that should hold a term holds none
        return (set(),)


def test_oracle_covers_every_error(cases):
    errors = {_outcome(ref.check_linearity, m, d)
              for m in cases for d in _domains(m)}
    messages = " ".join(str(e) for e in errors)
    for text in ("shared alias", "abstraction parameter", "substituted",
                 "substitution variable", "unrestricted bag", "occurs 2",
                 "not in the linear context", "is unused", "not a term"):
        assert text in messages, text
    assert None in errors and len(cases) > 1000


def test_linearity_matches_reference(cases):
    for m in cases:
        for domain in _domains(m):
            assert _outcome(check_linearity, m, domain) == \
                _outcome(ref.check_linearity, m, domain), (m, domain)
