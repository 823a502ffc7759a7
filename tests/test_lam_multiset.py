"""λ state identity does not depend on the order a term was written in.

A linear bag is a multiset, and each variable of a binder tuple may take
any item, so permuting any `Bag.linear`, `LinSub.items`, `LinSub.vars` or
`Sharing.aliases` must leave the key set of `reachable` and the verdict
of `succeeds` unchanged. (That it leaves the root key unchanged is
checked on every reachable term in `test_lam_key_oracle.py`.)
"""

import dataclasses
import random
from itertools import permutations

import pytest

from eagerpi import equivalence, graph
from eagerpi import lam as L
from eagerpi.equivalence import (_translate_fresh, check_loose_completeness,
                                 check_loose_soundness,
                                 check_success_sensitivity)
from eagerpi.parser import parse_lc
from tests import reference_lam as ref
from tests.conftest import load_lc, perfbench_workloads
from tests.reference_canon import term_key  # the key of a raw process

BOUND = 64

# the fields that hold a multiset of items or a set of binders
MULTISETS = {(L.Bag, "linear"), (L.LinSub, "items"), (L.LinSub, "vars"),
             (L.Sharing, "aliases")}


def permuted(m, order):
    """m with every linear bag and binder tuple rearranged by `order`
    (tuple -> tuple of the same entries)."""
    if not isinstance(m, (L.Term, L.Bag)):
        return m
    values = []
    for f in dataclasses.fields(m):
        v = getattr(m, f.name)
        if isinstance(v, tuple):
            v = tuple(permuted(x, order) for x in v)
            if (type(m), f.name) in MULTISETS:
                v = order(v)
        else:
            v = permuted(v, order)
        values.append(v)
    return type(m)(*values)


def orders(seed):
    """Reversal, rotation and two seeded shuffles."""
    rng = random.Random(seed)
    return [lambda t: t[::-1], lambda t: t[1:] + t[:1],
            lambda t: tuple(rng.sample(t, len(t))),
            lambda t: tuple(rng.sample(t, len(t)))]


def lambda_family():
    return parse_lc(perfbench_workloads().lambda_script()).defs


def terms():
    defs = {**{f"corr/{n}": d for n, d in load_lc("corr.lc").defs.items()},
            **{f"ex32/{n}": d for n, d in load_lc("ex32.lc").defs.items()},
            **{f"family/{n}": d for n, d in lambda_family().items()}}
    return [(n, d[0]) for n, d in defs.items()]


def reachable_keys(m):
    found, truncated = L.reachable(m, BOUND)
    return frozenset(L.lam_key(t) for t in found), truncated


def test_fetch_reaches_one_key_set_for_every_item_order():
    # ROADMAP defect 1: the sequence key reached 24 terms from the first
    # order and 28 from the second
    fetch = "(\\x. x1 <x2 <x3>> [x1,x2,x3 <- x])"
    items = ("I", "I", "fail{}")
    src = "def I = \\x. x1 [x1 <- x]\n" + "".join(
        f"def T{i} = {fetch} <{', '.join(p)}>\n"
        for i, p in enumerate(sorted(set(permutations(items)))))
    defs = parse_lc(src).defs
    results = {reachable_keys(defs[f"T{i}"][0])[0] for i in range(3)}
    assert len(results) == 1
    assert len(results.pop()) == 24


def test_permuting_bags_and_binders_changes_nothing():
    for name, m in terms():
        keys = reachable_keys(m)
        verdict = L.succeeds(m, BOUND)
        for order in orders(name):
            m2 = permuted(m, order)
            assert reachable_keys(m2) == keys, name
            assert L.succeeds(m2, BOUND) == verdict, name


def test_key_keeps_which_tuple_variables_coincide():
    # the variables of a tuple share one token in the key, so the binder's
    # occurrence pattern must tell x1 <x1> from x1 <x2> (the parser does
    # not require aliases to be linear)
    defs = parse_lc("def A = \\x. x1 <x1> [x1,x2 <- x]\n"
                    "def B = \\x. x1 <x2> [x1,x2 <- x]\n"
                    "def C = \\x. x2 <x1> [x1,x2 <- x]\n").defs
    a, b, c = (L.lam_key(defs[n][0]) for n in "ABC")
    assert a != b and b == c


# The correspondence checks translate the one term of each class that the
# lambda graph keeps, so key-equal terms must translate alike. In X the
# graph keeps one of two substitutions whose items are `y <I, fail{}>` and
# `y <fail{}, I>`; with bags translated in the order written, the process
# states that took the other one matched no kept term and soundness
# failed in 86 of 192 states. In F it keeps one of the orders in which
# fetching either `I` leaves the other two items.
MERGING = parse_lc("def I = \\x. x1 [x1 <- x]\n"
                   "def X = (\\x. x1 [x1,x2 <- x]) "
                   "<y <I, fail{}>, y <fail{}, I>>\n"
                   "def F = (\\x. x1 [x1,x2,x3 <- x]) <I, fail{}, I>\n").defs


def sequence_reachable(m, bound, max_states=20000):
    """`lam.reachable` under the sequence key, which merges no orders."""
    nodes, _, cause, _ = graph.explore(m, ref.step_all, ref.lam_key, bound,
                                       max_states)
    return [n.state for n in nodes.values()], cause != "none"


@pytest.mark.parametrize("name,bound", [("X", 60), ("F", 80)])
def test_correspondence_does_not_depend_on_the_order_kept(name, bound,
                                                          monkeypatch):
    m = MERGING[name][0]
    assert len(L.reachable(m, bound)[0]) < \
        len(sequence_reachable(m, bound)[0])

    def reports():
        equivalence._correspondence.cache_clear()
        return [check(m, bound) for check in (
            check_loose_completeness, check_loose_soundness,
            check_success_sensitivity)]

    merged = reports()
    monkeypatch.setattr(L, "reachable", sequence_reachable)
    monkeypatch.setattr(L, "step_all", ref.step_all)
    assert reports() == merged
    assert merged[1]["ok"] and not merged[1]["exhausted"]
    equivalence._correspondence.cache_clear()


def test_permuting_bags_and_binders_keeps_the_translation():
    # the larger family terms translate too deep for the default
    # recursion limit
    small = [(n, m) for n, m in terms() if not n.startswith("family/")
             or n[8:].split("_")[0] in ("3", "4")]
    for name, m in small + [(n, d[0]) for n, d in MERGING.items()]:
        key = term_key(_translate_fresh(m))
        for order in orders(name):
            assert term_key(_translate_fresh(permuted(m, order))) == key, \
                name
