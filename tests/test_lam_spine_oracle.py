"""Differential test of the λ spine walks read off `lam.SPINE` against the
hand-written walks they replaced (`reference_lam.py`).

The terms are every term `reachable` finds at bound 30 from the `corr.lc`
and `ex32.lc` definitions and the benchmark's lambda family, and every
subterm of those (open terms: a sharing on the spine shows up only under
an abstraction or an intermediate substitution). On each, the
head must have the reference head's key, the reduct list (rule tag and
text, in order) and the expansion list must be the reference's, and
substituting at the head must give the reference's term, or raise the same
error.
"""

import pytest

from eagerpi import lam as L
from eagerpi.printer import lam_text
from tests import reference_lam as ref
from tests.test_lam_multiset import terms

BOUND = 30


def subterms(m):
    """m and every term below it, bags and slots included."""
    if isinstance(m, L.Term):
        yield m
    for f in L.BINDING[type(m)][2]:
        for t in L._entries(getattr(m, f)):
            if t is not None:
                yield from subterms(t)


@pytest.fixture(scope="module")
def cases():
    out = {}   # one entry per term object
    for name, m in terms():
        for t in L.reachable(m, BOUND)[0]:
            out.update((id(s), (name, s)) for s in subterms(t))
    return list(out.values())


def _texts(reducts):
    return [(tag, lam_text(t)) for tag, t in reducts]


def _substituted(head_substitute, m, repl, occ):
    try:
        return lam_text(head_substitute(m, repl, occ))
    except L.HeadMismatch as e:
        return "mismatch", lam_text(e.args[0])


def test_oracle_covers_every_head_and_rule(cases):
    heads = {type(L.head(t)) for _, t in cases}
    assert {L.LinVar, L.UnrVar, L.Abs, L.Fail, L.SuccessT,
            L.InterSub} <= heads
    tags = {tag.split(":")[0] for _, t in cases for tag, _ in L.step_all(t)}
    assert {"beta", "cons1", "cons2", "cons3", "cons4", "ex-sub",
            "fail-lin", "fail-unr", "fetch-lin", "fetch-unr"} <= tags
    assert sum(bool(L.expansions(t)) for _, t in cases) > len(cases) // 4
    # a sharing on the spine whose head is one of its aliases
    shared = [t for _, t in cases if isinstance(t, L.Sharing)]
    assert any(isinstance(h := ref.head(t.body), L.LinVar)
               and h.var in t.aliases for t in shared)


def test_heads_match_reference(cases):
    for name, t in cases:
        assert L.lam_key(L.head(t)) == L.lam_key(ref.head(t)), name


def test_reducts_match_reference(cases):
    for name, t in cases:
        new, h = L._reducts(t)
        old, h_ref = ref._reducts(t)
        assert _texts(new) == _texts(old), name
        assert L.lam_key(h) == L.lam_key(h_ref), name


def test_expansions_match_reference(cases):
    for name, t in cases:
        new = [lam_text(u) for u in L.expansions(t)]
        assert new == [lam_text(u) for u in ref.expansions(t)], name


def test_head_substitute_matches_reference(cases):
    # the head itself, a copy of it (same variable and index, another
    # node) and an occurrence of another sort or variable
    hit = L.SuccessT()
    for name, t in cases:
        h = ref.head(t)
        if not isinstance(h, (L.LinVar, L.UnrVar)):
            continue
        if isinstance(h, L.LinVar):
            occs = (h, L.LinVar(h.var), L.UnrVar(h.var, 1))
        else:
            occs = (h, L.UnrVar(h.var, h.index), L.UnrVar(h.var, h.index + 1))
        for occ in occs + (L.LinVar(L.fresh_name("z")),):
            assert _substituted(L.head_substitute, t, hit, occ) == \
                _substituted(ref.head_substitute, t, hit, occ), name


def test_non_terms_rejected_alike():
    bg = L.empty_bag()
    for walk in (L.head, ref.head):
        with pytest.raises(TypeError):
            walk(bg)
    inter = L.InterSub(L.SuccessT(), bg, L.fresh_name("x"))
    for walk in (L.head_substitute, ref.head_substitute):
        with pytest.raises(L.HeadMismatch):
            walk(inter, L.SuccessT(), L.LinVar(inter.var))
