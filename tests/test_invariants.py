"""Property tests over randomized structures."""

from hypothesis import given, settings, strategies as st

from eagerpi.lamtypes import ArrowT, Mult, UnitT, embraces
from eagerpi.names import Name
from eagerpi.process import (Client, Close, Expect, Forward, Inaction, Input,
                             NDChoice, NoneAvail, Output, Par, Restrict,
                             Select, Server, SomeAvail, Success, Wait,
                             canonicalize, freshen_binders, make_branch,
                             struct_congruent, term_key)
from eagerpi.sessiontypes import (Bang, Bot, ExpectT, Maybe, One, Parr, Plus,
                                  Query, Tensor, With, dual, plus, with_)
from tests.conftest import assert_fixpoint

names = st.integers(1, 6).map(lambda i: Name(i, f"n{i}"))

session_types = st.recursive(
    st.sampled_from([One(), Bot()]),
    lambda t: st.one_of(
        st.tuples(t, t).map(lambda ab: Tensor(*ab)),
        st.tuples(t, t).map(lambda ab: Parr(*ab)),
        st.lists(t, min_size=1, max_size=3).map(
            lambda ts: plus([(f"l{i}", x) for i, x in enumerate(ts)])),
        st.lists(t, min_size=1, max_size=3).map(
            lambda ts: with_([(f"l{i}", x) for i, x in enumerate(ts)])),
        t.map(Query), t.map(Bang), t.map(Maybe), t.map(ExpectT)),
    max_leaves=12)

labels = st.sampled_from(("a", "b", "c"))

# every constructor; binders are drawn from the same few names as free
# names, so binders shadow and capture-avoidance is exercised
processes = st.recursive(
    st.one_of(st.just(Inaction()),
              st.just(Success()),
              names.map(Close),
              names.map(NoneAvail),
              st.tuples(names, names).map(lambda xy: Forward(*xy))),
    lambda p: st.one_of(
        st.tuples(p, p).map(lambda ab: Par(*ab)),
        st.tuples(p, p).map(lambda ab: NDChoice(*ab)),
        st.tuples(names, p).map(lambda xp: Wait(*xp)),
        st.tuples(names, p).map(lambda xp: SomeAvail(*xp)),
        st.tuples(names, p, p).map(lambda xlr: Restrict(*xlr)),
        st.tuples(names, names, p, p).map(lambda a: Output(*a)),
        st.tuples(names, names, p).map(lambda a: Input(*a)),
        st.tuples(names, names, p).map(lambda a: Client(*a)),
        st.tuples(names, names, p).map(lambda a: Server(*a)),
        st.tuples(names, labels, p).map(lambda a: Select(*a)),
        st.tuples(names, st.dictionaries(labels, p, min_size=1)).map(
            lambda a: make_branch(a[0], a[1].items())),
        st.tuples(names, st.lists(names, max_size=2).map(tuple), p).map(
            lambda a: Expect(*a))),
    max_leaves=16)


@given(session_types)
def test_dual_is_an_involution(t):
    assert dual(dual(t)) == t


@given(session_types)
def test_dual_swaps_constructors(t):
    pairs = {One: Bot, Bot: One, Tensor: Parr, Parr: Tensor, Plus: With,
             With: Plus, Query: Bang, Bang: Query, Maybe: ExpectT,
             ExpectT: Maybe}
    assert type(dual(t)) is pairs[type(t)]


@given(processes)
def test_canonicalize_idempotent(p):
    c = canonicalize(p)
    assert term_key(c) == term_key(canonicalize(c))
    assert_fixpoint(c, canonicalize)


@given(processes)
@settings(max_examples=60)
def test_canonicalize_congruent(p):
    assert struct_congruent(p, canonicalize(p))


@given(processes)
def test_alpha_variants_identified(p):
    assert term_key(canonicalize(p)) == term_key(canonicalize(freshen_binders(p)))


strict_types = st.recursive(
    st.just(UnitT()),
    lambda t: st.tuples(t, st.integers(0, 2), st.lists(t, min_size=1, max_size=2), t).map(
        lambda parts: ArrowT(Mult(parts[0] if parts[1] else None, parts[1]),
                             tuple(parts[2]), parts[3])),
    max_leaves=6)


@given(st.lists(strict_types, min_size=1, max_size=4),
       st.lists(strict_types, max_size=3))
def test_embraces_prefix_extension(base, ext):
    eta = tuple(base)
    eps = tuple(base) + tuple(ext)
    assert embraces(eta, eps)
    assert embraces(eta, eta)
    if ext:
        assert not embraces(eps, eta)


@given(st.lists(strict_types, min_size=1, max_size=3),
       st.lists(strict_types, max_size=2),
       st.lists(strict_types, max_size=2))
def test_embraces_transitive_on_chains(a, b, c):
    e1 = tuple(a)
    e2 = e1 + tuple(b)
    e3 = e2 + tuple(c)
    assert embraces(e1, e2) and embraces(e2, e3) and embraces(e1, e3)
