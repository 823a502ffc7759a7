"""Intersection types: embraces, well-formedness, well-typedness."""

import pytest

from eagerpi import lam as L
from eagerpi.lamtypes import (LamTypeError, Mult, UnitT, check_wf, check_wt,
                              embraces, is_wf, is_wt)
from eagerpi.names import NameSupply
from eagerpi.parser import parse_lc, strict_type_of

s = NameSupply(1)
U = UnitT()
SIGMA = strict_type_of("(unit^1, unit) -> unit")


def term(text, extra=""):
    return parse_lc(f"{extra}\ndef T = {text}").defs["T"][0]


def test_embraces_prefix():
    assert embraces((U,), (U, SIGMA))


def test_embraces_reflexive():
    assert embraces((U, SIGMA), (U, SIGMA))


def test_embraces_length_bound():
    assert not embraces((U, SIGMA), (U,))


def test_embraces_pointwise():
    assert not embraces((SIGMA,), (U, SIGMA))


def test_variable_axiom():
    v = s.fresh("v")
    check_wf({}, {v: U}, L.LinVar(v), U)


def test_multiset_entry_rejected_at_linear_occurrence():
    v = s.fresh("v")
    with pytest.raises(LamTypeError):
        check_wf({}, {v: Mult(U, 1)}, L.LinVar(v), U)


def test_example_judgment_well_formed(ex32):
    kind, name, theta, gamma, tau = ex32.judgments[0]
    assert kind == "wf" and name == "M0"
    check_wf(theta, gamma, ex32.defs["M0"][0], tau)


def test_fail_types_at_anything():
    for tau in (U, SIGMA):
        check_wf({}, {}, L.Fail(frozenset()), tau)


def test_fail_set_must_match_core():
    v = s.fresh("v")
    with pytest.raises(LamTypeError):
        check_wf({}, {v: U}, L.Fail(frozenset()), U)  # v unused by the set


def test_identity_well_typed(ex32):
    for kind, name, theta, gamma, tau in ex32.judgments:
        if kind == "wt":
            check_wt(theta, gamma, ex32.defs[name][0], tau)


def test_m0_not_well_typed(ex32):
    _, _, theta, gamma, tau = ex32.judgments[0]
    with pytest.raises(LamTypeError) as e:
        check_wt(theta, gamma, ex32.defs["M0"][0], tau)
    assert e.value.code == "FailForbidden"


def test_arity_mismatch_rejected_when_well_typed(corr):
    t08 = corr.defs["T08"][0]
    assert is_wf({}, {}, t08, SIGMA)
    assert not is_wt({}, {}, t08, SIGMA)


def test_multiset_non_idempotent():
    # a two-element bag checks at sigma^2, never sigma^1
    m = term("(\\x. x1 <x2> [x1,x2 <- x]) <I, I>",
             extra="def I = \\x. x1 [x1 <- x]")
    inner = term("(\\x. x1 [x1 <- x]) <I, I>",
                 extra="def I = \\x. x1 [x1 <- x]")
    assert is_wf({}, {}, inner, SIGMA)      # mismatch allowed, bag at sigma^2
    assert not is_wt({}, {}, inner, SIGMA)  # exact arity required


def test_wt_judgments_are_wf(corr):
    for kind, name, theta, gamma, tau in corr.judgments:
        if kind == "wt":
            check_wf(theta, gamma, corr.defs[name][0], tau)


def test_empty_unrestricted_bag_is_flexible():
    # the empty unrestricted bag takes any strict type the context needs
    m = term("(\\x. x[1] [<- x]) <> * !1")
    check_wf({}, {}, m, U)
    check_wf({}, {}, m, SIGMA)


def test_unrestricted_index_out_of_range():
    m = term("(\\x. x[2] [<- x]) <> * !<I>",
             extra="def I = \\x. x1 [x1 <- x]")
    with pytest.raises(LamTypeError):
        check_wf({}, {}, m, U)


def test_success_constant_untyped():
    with pytest.raises(LamTypeError):
        check_wf({}, {}, L.SuccessT(), U)


def _error(gamma, m):
    with pytest.raises(LamTypeError) as e:
        check_wf({}, gamma, m, U)
    return str(e.value)


def test_alias_used_twice():
    x, a = s.fresh("x"), s.fresh("a")
    m = L.Abs(x, L.Sharing(L.App(L.LinVar(a), L.bag(L.LinVar(a))), (a,), x))
    assert _error({}, m) == \
        "LinearityViolation: shared alias a must occur exactly once"


def test_unused_parameter():
    x, y = s.fresh("x"), s.fresh("y")
    assert _error({y: U}, L.Abs(x, L.LinVar(y))) == "LinearityViolation: " \
        "abstraction parameter x must be shared exactly once"


def test_linear_variable_in_unrestricted_slot():
    y = s.fresh("y")
    m = L.App(L.LinVar(y), L.bag(unr=(L.LinVar(y),)))
    assert _error({y: U}, m) == "LinearityViolation: " \
        "unrestricted bag elements may not use linear variables"


def test_unused_context_entry():
    y, z = s.fresh("y"), s.fresh("z")
    assert _error({y: U, z: U}, L.LinVar(y)) == \
        "LinearityViolation: context entry z is unused"


def test_variable_outside_the_domain():
    y = s.fresh("y")
    assert _error({}, L.LinVar(y)) == \
        "UnboundVariable: y not in the linear context"
