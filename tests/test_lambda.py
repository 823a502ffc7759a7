"""Lambda terms: head forms, linear free variables, reduction."""

from eagerpi import lam as L
from eagerpi.names import NameSupply
from eagerpi.parser import parse_lc

s = NameSupply(1)
xv, yv, zv = s.fresh("x"), s.fresh("y"), s.fresh("z")


def term(text, extra=""):
    src = parse_lc(f"{extra}\ndef T = {text}")
    return src.defs["T"][0]


def test_head_fail_through_application():
    m = L.App(L.Fail(frozenset()), L.empty_bag())
    assert isinstance(L.head(m), L.Fail)


def test_head_through_linear_substitution():
    x1 = s.fresh("x1")
    m = L.LinSub(L.App(L.LinVar(x1), L.empty_bag()), (L.LinVar(yv),), (x1,))
    h = L.head(m)
    assert isinstance(h, L.LinVar) and h.var == x1


def test_head_sharing_redirects_alias():
    x1 = s.fresh("x1")
    m = L.Sharing(L.LinVar(x1), (x1,), xv)
    h = L.head(m)
    assert isinstance(h, L.LinVar) and h.var == xv


def test_head_intermediate_substitution_is_itself():
    m = term("(\\x. x1 [x1 <- x]) <fail{}>")
    red = dict(L.step_all(m))
    inter = red["beta"]
    assert L.head(inter) is inter


def test_head_success():
    assert isinstance(L.head(L.SuccessT()), L.SuccessT)


def test_llfv_linear_variable():
    assert L.llfv(L.LinVar(yv)) == frozenset({yv})


def test_llfv_unrestricted_occurrence_excluded():
    assert L.llfv(L.UnrVar(xv, 1)) == frozenset()


def test_llfv_example_bag():
    # the second fetch leaves the bag <fail{}, I>, whose linear frees are empty
    items = (L.Fail(frozenset()), term("\\x. x1 [x1 <- x]"))
    assert L.llfv_items(items) == frozenset()


def test_head_substitute_variable():
    m = L.LinVar(xv)
    out = L.head_substitute(m, L.SuccessT(), L.LinVar(xv))
    assert isinstance(out, L.SuccessT)


def test_unrestricted_fetch_keeps_slots():
    m = term("(\\x. x[1] [<- x]) <> * !<OK>")
    reachable, _ = L.reachable(m, 10)
    fetched = [t for t in reachable
               if isinstance(t, L.UnrSub) and isinstance(L.head(t), L.SuccessT)]
    assert fetched
    assert all(t.slots and t.slots[0] is not None for t in fetched)


def test_unrestricted_miss_becomes_failure():
    m = term("(\\x. x[1] [<- x]) <> * !1")
    reachable, _ = L.reachable(m, 10)
    assert any(isinstance(L.head(t), L.Fail) for t in reachable)


def test_example_chain_and_three_reducts(ex32):
    m0 = ex32.defs["M0"][0]
    s1 = L.step_all(m0)
    assert [tag for tag, _ in s1] == ["beta"]
    s2 = L.step_all(s1[0][1])
    assert [tag for tag, _ in s2] == ["ex-sub"]
    m = s2[0][1]
    assert L.lam_alpha_equal(m, ex32.defs["M"][0])
    reducts = L.step_all(m)
    assert len(reducts) == 3
    expected = [ex32.defs[n][0] for n in ("N1", "N2", "N3")]
    for e in expected:
        assert any(L.lam_alpha_equal(t, e) for _, t in reducts)


def test_beta_rule():
    m = term("(\\x. x1 [x1 <- x]) <OK>")
    (tag, t), = L.step_all(m)
    assert tag == "beta" and isinstance(t, L.InterSub)


def test_fail_consumes_bag():
    m = term("fail{} <y, z>")
    (tag, t), = L.step_all(m)
    assert tag == "cons1"
    assert {v.display for v in t.vars} == {"y", "z"}


def test_fetch_fanout_matches_bag_size():
    m = term("(\\x. x1 <x2> [x1,x2 <- x]) <y, z>")
    inter = dict(L.step_all(m))["beta"]
    lin = dict(L.step_all(inter))["ex-sub"]
    reducts = [t for tag, t in L.step_all(lin) if tag.startswith("fetch-lin")]
    assert len(reducts) == 2


def test_fetch_fanout_collapses_equal_items():
    m = term("(\\x. x1 [x1 <- x]) <y, y>")
    inter = dict(L.step_all(m))["beta"]
    # mismatched arity: goes to failure instead of fetching
    (tag, t), = L.step_all(inter)
    assert tag == "fail-lin"


def test_exsub_and_fail_are_exclusive():
    ok = term("(\\x. x1 [x1 <- x]) <y>")
    bad = term("(\\x. x1 [x1 <- x]) <y, z>")
    for src, want in ((ok, "ex-sub"), (bad, "fail-lin")):
        inter = dict(L.step_all(src))["beta"]
        tags = [tag for tag, _ in L.step_all(inter)]
        assert tags == [want]


def test_failing_sharing_fed_a_bag_of_the_wrong_size():
    """fail-lin, not cons2, on a sharing whose body already fails: the
    failure keeps the bag's variables and drops the aliases."""
    m = term("(\\x. fail{x1, x2} [x1, x2 <- x]) <y>")
    inter = dict(L.step_all(m))["beta"]
    (tag, t), = L.step_all(inter)
    assert tag == "fail-lin"
    assert isinstance(t, L.Fail) and {v.display for v in t.vars} == {"y"}


def test_normal_forms_keep_empty_substitutions(ex32):
    n2 = ex32.defs["N2"][0]
    reachable, _ = L.reachable(n2, 20)
    finals = [t for t in reachable if not L.step_all(t)]
    assert finals
    assert any(isinstance(t, L.UnrSub) for t in finals)


def test_expansion_oracle_inverts_steps(corr):
    for name in ("T01", "T05", "T10"):
        m = corr.defs[name][0]
        for _, m2 in L.step_all(m):
            preds = L.expansions(m2)
            assert any(
                any(L.lam_alpha_equal(n, m2) for _, n in L.step_all(p))
                for p in preds)


def test_no_reduction_under_intermediate_substitution():
    # evaluation contexts reach under sharing and explicit substitutions
    # but not under a pending intermediate substitution
    m = term("(\\x. (I <I>) <x1> [x1 <- x]) <I>",
             extra="def I = \\x. x1 [x1 <- x]")
    inter = dict(L.step_all(m))["beta"]
    assert [tag for tag, _ in L.step_all(inter)] == ["ex-sub"]
