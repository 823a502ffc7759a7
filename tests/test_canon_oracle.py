"""Differential test of the keyed canonical walk in `eagerpi.process`
against the two-walk canonicalizer it replaced (`reference_canon.py`).

On every corpus process, and on every raw one-step target (before
normalization) of every state explored from the corpus, the `corr.lc`
translations and ex32's `M`, the two must give equal keys for
`scope_normalize` and for `canonicalize`, and equal free-name sets.
"""

import pytest

from eagerpi.eager import _local_steps
from eagerpi.equivalence import _translate_fresh, explore
from eagerpi.process import canonicalize, free_names, scope_normalize, term_key
from tests import reference_canon as ref
from tests.conftest import load_lc, load_spi

# criterion 9: the closed corr.lc terms, explored at the correspondence bound
CLOSED = ("T01", "T02", "T03", "T04", "T06", "T08", "T10", "T11", "T12",
          "T15", "T16", "T17", "T18")
# the open terms have no normal form within bound 30, and the reference
# takes about 25 ms per target on their states, so they are explored less
# deeply
OPEN = ("T05", "T07", "T09", "T13", "T14")


def _corpus():
    return [d[0] for f in ("movie.spi", "vm.spi", "generated.spi")
            for d in load_spi(f).defs.values()]


def _translations(file, names):
    defs = load_lc(file).defs
    return [_translate_fresh(defs[n][0]) for n in names]


SOURCES = {
    "spi-corpus": (_corpus, 64),
    "corr-closed": (lambda: _translations("corr.lc", CLOSED), 30),
    "corr-open": (lambda: _translations("corr.lc", OPEN), 8),
    "ex32-M": (lambda: _translations("ex32.lc", ("M",)), 30),
}


def _raw_targets(roots, bound):
    """The roots and the raw targets of every step of every explored state,
    one per reference key: raw processes with equal keys differ only in the
    order of parallel and sum parts, which both canonicalizers sort away
    before anything else."""
    seen = set()
    for root in roots:
        nodes, _, _ = explore(root, bound)
        targets = [t for n in nodes.values() for _, t in _local_steps(n.process)]
        for t in [root] + targets:
            k = ref.term_key(t)
            if k not in seen:
                seen.add(k)
                yield t


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_keys_match_reference(source):
    build, bound = SOURCES[source]
    checked = 0
    for t in _raw_targets(build(), bound):
        assert term_key(scope_normalize(t)) == \
            ref.term_key(ref.scope_normalize(t))
        assert term_key(canonicalize(t)) == ref.term_key(ref.canonicalize(t))
        assert free_names(t) == ref.free_names(t)
        checked += 1
    assert checked > 1


def test_canonical_forms_are_fixpoints():
    """A canonical form canonicalizes to itself, and its cached key is the
    key the reference computes for it from scratch."""
    for p in _corpus():
        c = canonicalize(p)
        assert canonicalize(c) is c
        assert term_key(c) == ref.term_key(c)
        n = scope_normalize(p)
        assert canonicalize(n) is n
        assert term_key(n) == ref.term_key(n)


def _collected_server_cases():
    """Processes where collecting an unused server changes the shape above
    it: the survivor is a parallel or a sum inside a parallel or a sum, it
    holds binders that move up one level, or a parallel or sum is left
    with one part."""
    from eagerpi.names import NameSupply
    from eagerpi.process import (Close, Inaction, Input, NDChoice, Par,
                                 Restrict, Server, Wait)
    s = NameSupply(1)
    a, b, c, x, y, v, w = (s.fresh(n) for n in "abcxyvw")

    def garbage(survivor):
        return Restrict(x, Server(x, w, Close(w)), survivor)

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
    ]


@pytest.mark.parametrize("p", _collected_server_cases())
def test_collected_server_keys_match_reference(p):
    assert term_key(canonicalize(p)) == ref.term_key(ref.canonicalize(p))
    assert term_key(scope_normalize(p)) == \
        ref.term_key(ref.scope_normalize(p))
