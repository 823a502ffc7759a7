"""The scope-normal form decides structural congruence on the traffic.

A state rewritten by the scope axioms (`scope_rewrites`: extrusion,
intrusion and the restriction swap) must keep its normalized key, however
it is written. Checked on seeded walks of six rewrites from every state
explored from the `.spi` corpus and from the closed `corr.lc`
translations, and on every two-step rewrite of the states of `G091`,
where the scope mode that came before split one graph in two.
`tests/scope_sweep.py` runs more and longer walks. A star of ten or
twenty restrictions around a few threads normalizes at once, in every
nesting order, whether its binders are interchangeable, alone or only
in pairs, or not at all.
"""

import itertools
import random
import time

import pytest

from eagerpi.equivalence import _translate_fresh, explore
from eagerpi.names import NameSupply
from eagerpi.process import (Close, Expect, Inaction, Restrict, Wait,
                             par_all, scope_normalize, scope_rewrites,
                             sum_all, term_key)
from tests import reference_scope
from tests.conftest import load_lc, load_spi

CLOSED = ("T01", "T02", "T03", "T04", "T06", "T08", "T10", "T11", "T12",
          "T15", "T16", "T17", "T18")


def spi_roots():
    return [d[0] for f in ("movie.spi", "vm.spi", "generated.spi")
            for d in load_spi(f).defs.values()]


def corr_roots(names=CLOSED, file="corr.lc"):
    defs = load_lc(file).defs
    return [_translate_fresh(defs[n][0]) for n in names]


def states(roots, bound):
    """Every state explored from the roots, once per key, in order."""
    seen = {}
    for root in roots:
        nodes, _, _ = explore(root, bound)
        for k, n in nodes.items():
            seen.setdefault(k, n.state)
    return list(seen.values())


def walk(p, rng, steps):
    """p after `steps` seeded scope rewrites (fewer if none applies)."""
    for _ in range(steps):
        rewrites = list(scope_rewrites(p))
        if not rewrites:
            break
        p = rng.choice(rewrites)
    return p


def splits(states, walks, steps, seed=0):
    """The (state, rewritten) pairs whose normalized keys differ, among
    `walks` seeded walks of `steps` rewrites from each state."""
    rng = random.Random(seed)
    for s in states:
        key = term_key(scope_normalize(s))
        for _ in range(walks):
            end = walk(s, rng, steps)
            if term_key(scope_normalize(end)) != key:
                yield s, end


SOURCES = {
    "spi-corpus": lambda: states(spi_roots(), 64),
    "corr-closed": lambda: states(corr_roots(), 30),
}


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_rewrite_walks_keep_the_key(source):
    found = SOURCES[source]()
    assert len(found) > 300
    assert next(splits(found, 1, 6), None) is None


def test_g091_two_step_rewrites_give_one_graph():
    g091 = load_spi("generated.spi").defs["G091"][0]
    nodes, _, _ = explore(g091, 64)
    split = None   # a pair the scope mode before this form told apart
    for n in nodes.values():
        s = n.state
        for r1 in itertools.islice(scope_rewrites(s), 30):
            for r2 in itertools.islice(scope_rewrites(r1), 30):
                assert term_key(scope_normalize(r2)) == n.key
                if split is None and term_key(reference_scope.scope_normalize(
                        r2)) != term_key(reference_scope.scope_normalize(s)):
                    split = s, r2
    assert split is not None
    a, _, _ = explore(split[0], 64)
    b, _, _ = explore(split[1], 64)
    assert a.keys() == b.keys()


def star(center, order):
    """new x (close x | ...) for each binder x of the shape, nested in
    `order`, around the parallel of the shape's `center` threads."""
    supply = NameSupply(1)
    a = [supply.fresh(f"a{i}") for i in range(10)]
    b = [supply.fresh(f"b{i}") for i in range(10)]
    names, center = SHAPES[center](a, b)
    p = par_all(center)
    for i in reversed(order):
        p = Restrict(names[i], Close(names[i]), p)
    return p, len(names)


def waits(names):
    p = Inaction()
    for x in reversed(names):
        p = Wait(x, p)
    return p


U = NameSupply(2).fresh("u")
SHAPES = {
    # every binder alike: the cut trees are the n! nestings of one key
    "expect": lambda a, b: (a, [Expect(U, tuple(a), Inaction())]),
    # no two binders alike
    "waits": lambda a, b: (a, [waits(a)]),
    # a_i and b_i alike only together: the pairs are an orbit that no
    # exchange of two binders shows
    "pairs": lambda a, b: (a + b, [Expect(U, tuple(a), Inaction()),
                                   *(Wait(y, Close(x))
                                     for x, y in zip(a, b))]),
    # the same within one thread, a sum
    "sum": lambda a, b: (a + b, [sum_all(waits([x, y])
                                         for x, y in zip(a, b))]),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_star_of_symmetric_binders_normalizes_at_once(shape):
    rng = random.Random(3)
    keys = set()
    for _ in range(4):
        order = list(range(star(shape, [])[1]))
        rng.shuffle(order)
        p, _ = star(shape, order)
        start = time.perf_counter()
        keys.add(term_key(scope_normalize(p)))
        assert time.perf_counter() - start < 2
    assert len(keys) == 1
