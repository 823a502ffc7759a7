"""Differential test of the keyed canonical walk in `eagerpi.process`
against the two-walk canonicalizer it replaced (`reference_canon.py`), and
of the exact scope-normal form against the scope mode it replaced
(`reference_scope.py`: an extrusion pass and a least-key swap search).

On every corpus process, and on every raw one-step target (before
normalization) of every state explored from the corpus, the `corr.lc`
translations, ex32's `M` and a generated corpus, the keyed walk and the
reference must give equal keys for `canonicalize` and equal free-name
sets. So must a seeded sample of one- and two-step `scope_rewrites` of
explored states, and a restriction chain whose every scope can move.
`term_key` of a raw target must be the reference key of its canonical
form, and must leave nothing on the target that changes a later
`canonicalize` of it. On the same inputs, `scope_normalize` may only
merge: inputs whose reference scope keys are equal get equal keys, and
inputs with equal keys whose reference keys differ are congruent by the
reference's bounded search.
"""

import random

import pytest

from eagerpi.eager import _local_steps
from eagerpi.equivalence import explore
from eagerpi.gen import generate_corpus
from eagerpi.names import NameSupply
from eagerpi.printer import process_text
from eagerpi.process import (Close, Inaction, Input, NDChoice, Par, Restrict,
                             Server, Wait, canonicalize, free_names, par_all,
                             scope_normalize, scope_rewrites, term_key)
from tests import reference_canon as ref
from tests import reference_scope as scope
from tests.conftest import (CLOSED, OPEN, _fresh, assert_fixpoint,
                            spi_corpus, translations)

def _chain(n, seed=None):
    """new x1 (close x1 | new x2 (close x2 | ... new xn (close xn |
    wait x1.0 | ... | wait xn.0))), whose scope normal form is n parallel
    cuts, reached only by swaps and extrusions at every level. With
    `seed`, the waits come in a shuffled order."""
    s = NameSupply(1)
    xs = [s.fresh(f"x{i}") for i in range(1, n + 1)]
    waits = [Wait(x, Inaction()) for x in xs]
    if seed is not None:
        random.Random(seed).shuffle(waits)
    p = Restrict(xs[-1], Close(xs[-1]), par_all(waits))
    for x in reversed(xs[:-1]):
        p = Restrict(x, Close(x), p)
    return p


def _unique(procs):
    """One process per reference key: raw processes with equal keys differ
    only in the order of parallel and sum parts, which both canonicalizers
    sort away before anything else."""
    seen = set()
    for t in procs:
        k = ref.term_key(t)
        if k not in seen:
            seen.add(k)
            yield t


def _raw_targets(roots, bound):
    """The roots and the raw targets of every step of every explored
    state."""
    for root in roots:
        nodes, _, _ = explore(root, bound)
        yield root
        for n in nodes.values():
            for _, t in _local_steps(n.state):
                yield t


def _rewrites(roots, bound, every):
    """Two seeded one-step `scope_rewrites` of every `every`-th explored
    state, each followed by one seeded rewrite of it."""
    rng = random.Random(0)
    for root in roots:
        nodes, _, _ = explore(root, bound)
        for n in list(nodes.values())[::every]:
            ones = list(scope_rewrites(n.state))
            for r in rng.sample(ones, min(2, len(ones))):
                yield r
                twos = list(scope_rewrites(r))
                if twos:
                    yield rng.choice(twos)


# each source builds its inputs; the chain's two orders share a reference
# key, so it alone is not deduplicated
SOURCES = {
    "spi-corpus": lambda: _unique(_raw_targets(spi_corpus().values(), 64)),
    "corr-closed": lambda: _unique(
        _raw_targets(translations(CLOSED).values(), 30)),
    "corr-open": lambda: _unique(
        _raw_targets(translations(OPEN).values(), 8)),
    "ex32-M": lambda: _unique(
        _raw_targets(translations(("M",), "ex32.lc").values(), 30)),
    "generated": lambda: _unique(_raw_targets(generate_corpus(3, 40), 12)),
    "rewrites-spi": lambda: _unique(_rewrites(spi_corpus().values(), 64, 4)),
    "rewrites-corr": lambda: _unique(
        _rewrites(translations(CLOSED).values(), 30, 8)),
    "chains": lambda: [_chain(80), _chain(80, seed=1)],
}


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_keys_match_reference(source):
    checked = 0
    new_of_old, old_of_new = {}, {}
    for t in SOURCES[source]():
        key = term_key(scope_normalize(t))
        old = term_key(scope.scope_normalize(t))
        assert new_of_old.setdefault(old, key) == key
        old_of_new.setdefault(key, {}).setdefault(old, t)
        assert term_key(canonicalize(t)) == ref.term_key(ref.canonicalize(t))
        assert free_names(t) == ref.free_names(t)
        assert term_key(t) == ref.term_key(ref.canonicalize(t))
        warm, cold = canonicalize(t), canonicalize(_fresh(t))
        assert term_key(warm) == term_key(cold)
        assert process_text(warm) == process_text(cold)
        checked += 1
    assert checked > 1
    for twins in old_of_new.values():
        first, *others = twins.values()
        for t in others:
            assert scope.struct_congruent(first, t)


def test_canonical_forms_are_fixpoints():
    """A canonical form canonicalizes to itself, and its cached key is the
    key the reference computes for it from scratch. A form that keeps its
    key is returned unwalked, so the fixpoint is also checked on a copy
    without cached values."""
    for p in spi_corpus().values():
        c = canonicalize(p)
        assert canonicalize(c) is c
        assert term_key(c) == ref.term_key(c)
        n = scope_normalize(p)
        assert canonicalize(n) is n
        assert term_key(n) == ref.term_key(n)
        assert_fixpoint(c, canonicalize)
        assert_fixpoint(n, scope_normalize)


def _collected_server_cases():
    """Processes where collecting an unused server changes the shape above
    it: the survivor is a parallel or a sum inside a parallel or a sum, it
    holds binders that move up one level, or a parallel or sum is left
    with one part. In the last three, the collected server held the only
    use of an enclosing binder in a part, which must then be extruded."""
    s = NameSupply(1)
    a, b, c, x, y, v, w = (s.fresh(n) for n in "abcxyvw")

    def garbage(survivor):
        return Restrict(x, Server(x, w, Close(w)), survivor)

    def holding(body):
        return Restrict(x, Server(x, w, body), Inaction())

    return [
        Par(garbage(Par(Close(a), Close(b))), Close(c)),
        Par(Close(c), garbage(Par(Wait(b, Inaction()), Close(a)))),
        NDChoice(garbage(NDChoice(Close(a), Close(b))), Close(c)),
        NDChoice(garbage(NDChoice(Close(c), Close(a))), Close(c)),
        Input(a, y, garbage(Input(y, v, Par(Close(v), Close(y))))),
        Input(a, y, Par(garbage(Input(y, v, Close(v))), Wait(y, Close(b)))),
        Input(a, y, Par(garbage(Close(y)), Inaction())),
        Input(a, y, NDChoice(Close(y), garbage(Close(y)))),
        Input(a, y, NDChoice(garbage(Par(Close(y), Close(a))), Close(b))),
        Restrict(y, Wait(a, holding(Close(y))), Close(y)),
        Restrict(y, Par(Wait(a, holding(Close(y))), Close(y)),
                 Wait(y, Close(b))),
        Restrict(v, Close(v), Restrict(y, Par(Wait(a, holding(Par(
            Close(y), Close(v)))), Close(y)), Wait(y, Close(v)))),
    ]


@pytest.mark.parametrize("p", _collected_server_cases())
def test_collected_server_keys_match_reference(p):
    assert term_key(canonicalize(p)) == ref.term_key(ref.canonicalize(p))
    n = scope_normalize(p)
    assert scope.struct_congruent(p, n)
    assert_fixpoint(n, scope_normalize)
    # the reference's form is congruent to p, so it has p's key
    assert term_key(n) == term_key(scope_normalize(scope.scope_normalize(p)))
