"""Syntax-level machinery: free names, substitution, canonical forms, and
the bounded structural-congruence check.

Raw results are compared by `reference_canon.term_key`, the key of a
process as written; `term_key` keys its canonical form."""

import random

from eagerpi.gen import generate_corpus
from eagerpi.names import Name, NameSupply
from eagerpi.printer import process_text
from eagerpi.process import (Close, Forward, Inaction, Input, NDChoice, Par,
                             Restrict, Server, Success, Wait, canonicalize,
                             free_name_split, free_names, freshen_binders,
                             is_inert, scope_normalize, scope_rewrites,
                             struct_congruent, substitute, term_key)
from tests import reference_canon as ref
from tests.conftest import assert_fixpoint

s = NameSupply(1)
x, y, z, u, w = (s.fresh(c) for c in "xyzuw")


def test_free_names_inaction():
    assert free_name_split(Inaction()) == (set(), set(), set())


def test_free_names_forwarder_both_linear():
    all_, lin, unr = free_name_split(Forward(x, y))
    assert all_ == {x, y} and lin == {x, y} and unr == set()


def test_free_names_server_subject_unrestricted():
    yy = s.fresh("y")
    all_, lin, unr = free_name_split(Server(x, yy, Close(yy)))
    assert x in unr and x not in lin
    assert all_ == lin | unr


def test_substitute_forwarder():
    assert ref.term_key(substitute(Forward(x, u), y, x)) == \
        ref.term_key(Forward(y, u))


def test_substitute_under_binder_no_capture():
    xp = s.fresh("x'")
    p = Input(x, xp, Forward(xp, z))
    q = substitute(p, y, z)
    b = s.fresh("b")
    assert ref.term_key(q) == ref.term_key(Input(x, b, Forward(b, y)))
    assert z not in free_names(q)


def test_substitute_identity():
    p = Input(x, s.fresh("b"), Close(x))
    assert ref.term_key(substitute(p, x, x)) == ref.term_key(p)


def test_canonicalize_par_unit():
    p = Par(Close(x), Inaction())
    assert ref.term_key(canonicalize(p)) == ref.term_key(Close(x))


def test_canonicalize_sum_idempotent_axiom():
    p = NDChoice(Close(x), Close(x))
    assert ref.term_key(canonicalize(p)) == ref.term_key(Close(x))


def test_canonicalize_sum_keeps_branches_on_names_of_one_display():
    # a key spells a free name by its display, so close x#1 and close x#2
    # share one key; they are still different branches
    x1, x2 = Name(1, "x"), Name(2, "x")
    kept = canonicalize(NDChoice(Close(x1), Close(x2)))
    assert isinstance(kept, NDChoice)
    assert {kept.left.x, kept.right.x} == {x1, x2}
    # equal names still merge, from two nodes as from one
    n = Name(1, "n")
    assert process_text(canonicalize(NDChoice(Close(n), Close(n)))) \
        == "close n"
    c = Close(n)
    assert canonicalize(NDChoice(c, c)) is c


def test_canonicalize_server_gc():
    yy = s.fresh("y")
    p = Restrict(x, Server(x, yy, Close(yy)), Close(z))
    assert ref.term_key(canonicalize(p)) == ref.term_key(Close(z))


def test_canonicalize_idempotent_on_corpus():
    for p in generate_corpus(11, 25):
        c1 = canonicalize(p)
        assert term_key(c1) == term_key(canonicalize(c1))
        assert_fixpoint(c1, canonicalize)


def test_canonicalize_congruent_to_source():
    for p in generate_corpus(12, 15):
        assert struct_congruent(p, canonicalize(p))


def test_alpha_variants_share_canonical_form():
    for p in generate_corpus(13, 15):
        q = freshen_binders(p)
        assert term_key(canonicalize(p)) == term_key(canonicalize(q))


def test_struct_congruent_associativity():
    a, b, c = Close(x), Close(y), Close(z)
    assert struct_congruent(Par(Par(a, b), c), Par(a, Par(b, c)))


def test_struct_congruent_forwarder_symmetry():
    assert struct_congruent(Forward(x, y), Forward(y, x))


def test_struct_congruent_different_heads():
    assert not struct_congruent(Close(x), Wait(x, Inaction()))


def test_struct_congruent_scope_extrusion():
    # new x ((P|Q) | R) == new x (P|R) | Q when x not free in Q
    p = Restrict(x, Par(Close(x), Close(y)), Wait(x, Inaction()))
    q = Par(Restrict(x, Close(x), Wait(x, Inaction())), Close(y))
    assert struct_congruent(p, q)


def test_struct_congruent_nested_swap():
    # new x (new y (P|Q) | R) == new y (new x (P|R) | Q)
    p = Restrict(x, Restrict(y, Close(x), Close(y)), Wait(x, Inaction()))
    q = Restrict(y, Restrict(x, Close(x), Wait(x, Inaction())), Close(y))
    assert struct_congruent(p, q)


def test_scope_rewrites_stay_congruent():
    rng = random.Random(5)
    for p in generate_corpus(14, 10):
        variants = list(scope_rewrites(canonicalize(p)))
        for q in rng.sample(variants, min(3, len(variants))):
            assert struct_congruent(p, q)


def test_scope_normalize_is_congruent():
    for p in generate_corpus(15, 15):
        assert struct_congruent(p, scope_normalize(p))


def test_is_inert():
    assert is_inert(Par(Inaction(), Inaction()))
    assert not is_inert(Success())
    assert not is_inert(Close(x))


def test_scope_normalize_stable_and_alpha_invariant():
    for p in generate_corpus(16, 12):
        n1 = scope_normalize(p)
        assert term_key(scope_normalize(n1)) == term_key(n1)
        assert_fixpoint(n1, scope_normalize)
        assert term_key(scope_normalize(freshen_binders(p))) == term_key(n1)
