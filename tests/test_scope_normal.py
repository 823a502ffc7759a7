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
in pairs, or not at all, and so do the translation of the benchmark's
largest fetch term, `A5_5`, and its one step (ROADMAP, known defect 1).
"""

import itertools
import random
import time

import pytest

from eagerpi import lam as L
from eagerpi.eager import step_all
from eagerpi.equivalence import explore
from eagerpi.names import NameSupply
from eagerpi.parser import parse_lc
from eagerpi.process import (Close, Expect, Inaction, Par, Restrict, Wait,
                             freshen_binders, par_all, scope_normalize,
                             scope_rewrites, sum_all, term_key)
from eagerpi.translate import translate
from tests import reference_scope
from tests.conftest import (CLOSED, assert_fixpoint, load_spi,
                            perfbench_workloads, spi_corpus, translations)


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
    "spi-corpus": lambda: states(spi_corpus().values(), 64),
    "corr-closed": lambda: states(translations(CLOSED).values(), 30),
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


def test_large_translation_normalizes_and_steps_at_once():
    m = parse_lc(perfbench_workloads().lambda_script()).defs["A5_5"][0]
    start = time.perf_counter()
    q = scope_normalize(translate(L.key_ordered(m))[0])
    assert time.perf_counter() - start < 2
    start = time.perf_counter()
    steps = step_all(q)
    assert time.perf_counter() - start < 2
    assert len(steps) == 1


def test_a_restriction_held_twice_is_freshened():
    """A cluster may hold one restriction node twice; its second binder is
    renamed as it is flattened, so the cluster keys as if one copy's
    binders were fresh."""
    s = NameSupply(1)
    z, x = s.fresh("z"), s.fresh("x")
    q = Restrict(x, Close(x), Wait(x, Inaction()))

    def around(q2):
        return Restrict(z, Close(z), Par(Wait(z, Inaction()), Par(q, q2)))

    assert term_key(scope_normalize(around(q))) == term_key(
        scope_normalize(around(freshen_binders(q, NameSupply(10)))))


def test_a_binder_straddled_by_a_cycle_is_not_outermost():
    """An untyped cycle of threads a - b - c: without a, the threads stay
    joined through b and c across a's two sides, so a cannot be cut
    first. Two nestings one scope swap apart get one key."""
    s = NameSupply(1)
    a, b, c = s.fresh("a"), s.fresh("b"), s.fresh("c")
    tab, tbc, tca = Wait(a, Close(b)), Wait(b, Close(c)), Wait(c, Close(a))
    p = Restrict(c, Restrict(a, Restrict(b, tab, tbc), tca), Inaction())
    q = Restrict(c, Restrict(b, Restrict(a, tab, tca), tbc), Inaction())
    assert reference_scope.struct_congruent(p, q)
    form = scope_normalize(p)
    assert term_key(form) == term_key(scope_normalize(q))
    assert_fixpoint(form, scope_normalize)


def cycles(rng):
    """Seven binders on a triangle and a square of threads `close a ++
    close b`, joined by one thread that closes them all. Every binder
    looks alike from its own threads, but no binder of the triangle is
    the twin of one of the square. Threads and binders in seeded order."""
    s = NameSupply(1)
    a = [s.fresh(f"a{i}") for i in range(7)]
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]
    threads = [sum_all(map(Close, a))] + \
        [sum_all([Close(a[i]), Close(a[j])]) for i, j in edges]
    rng.shuffle(threads)
    p = par_all(threads)
    for x in rng.sample(a, len(a)):
        p = Restrict(x, p, Inaction())
    return p


def sides(rng):
    """Three binders closed by one thread, each also held by three threads
    of a part `new k (...)` that hold k too. Two parts put k's holders on
    both sides of k, one on one side. The three binders tie on bound and
    rank, but the one with the one-sided part is no twin of the others.
    The parts and the binders in seeded order."""
    s = NameSupply(1)
    tied, inner = [s.fresh(c) for c in "ijh"], [s.fresh(c) for c in "kmn"]
    apart = rng.sample([True, True, False], 3)
    p = sum_all(map(Close, tied))
    for i in rng.sample(range(3), 3):
        b, c = tied[i], inner[i]
        t1, t2, t3 = (Wait(b, Wait(c, Inaction())), Wait(c, Close(b)),
                      Wait(b, Close(c)))
        part = Restrict(c, Par(t1, t3), t2) if apart[i] else \
            Restrict(c, t3, Par(t1, t2))
        p = Restrict(b, p, part)
    return p


def orders(rng):
    """Three binders closed by one thread, each also held by a thread
    that waits on it and then on two binders of its own: two of those
    threads in the order k, k, m, the third in the order k, m, k. With
    the inner binders at one level the three threads key alike, so the
    three binders tie on bound and rank, and `twins` maps one thread onto
    another; but for the odd one no inner binder waits where the other
    thread's first one does. Threads and binders in seeded order."""
    s = NameSupply(1)
    tied = [s.fresh(f"a{i}") for i in range(3)]
    odd = rng.randrange(3)
    threads = [sum_all(map(Close, tied))]
    binders = list(tied)
    for i, a in enumerate(tied):
        k, m = s.fresh(f"k{i}"), s.fresh(f"m{i}")
        binders += [k, m]
        threads.append(Wait(a, Wait(k, Wait(m, Close(k)) if i == odd
                                    else Wait(k, Close(m)))))
    rng.shuffle(threads)
    p = par_all(threads)
    for x in rng.sample(binders, len(binders)):
        p = Restrict(x, p, Inaction())
    return p


@pytest.mark.parametrize("build", [cycles, sides, orders])
def test_tied_binders_of_two_orbits_key_alike_in_any_order(build):
    """Of three or more tied binders, `twins` finds that some are not one
    orbit, and each of those is tried."""
    rng = random.Random(5)
    keys = {term_key(scope_normalize(build(rng))) for _ in range(6)}
    fresh = freshen_binders(build(rng), NameSupply(100))
    keys.add(term_key(scope_normalize(fresh)))
    assert len(keys) == 1
