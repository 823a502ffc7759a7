"""Differential test of the multiset-aware λ key and the key-once
`step_all` (`eagerpi.lam`) against the sequence key and the
context-by-context deduplication they replaced (`reference_lam.py`).

The terms are every term `reachable` finds at bound 16 from the `corr.lc`
and `ex32.lc` definitions and the benchmark's lambda family, under either
key, and every subterm on their evaluation-context spines (where
`step_all` finds the redexes it wraps). On them:

- equal old keys imply equal new keys (the new key only merges);
- rearranging every linear bag and binder tuple (reversal, rotation,
  two shuffles) leaves the new key as it is;
- the new `step_all` is the old one deduplicated by the new key: the
  first of equal reducts kept, with the same tags, in the same order.
"""

import pytest

from eagerpi import graph
from eagerpi import lam as L
from tests import reference_lam as ref
from tests.test_lam_multiset import orders, permuted, terms

BOUND = 16


def _spine(t):
    """t and the subterms in its evaluation-context positions."""
    while True:
        yield t
        match t:
            case L.App(f, _):
                t = f
            case L.LinSub(b, _, _) | L.UnrSub(b, _, _) | L.Sharing(b, _, _):
                t = b
            case _:
                return


@pytest.fixture(scope="module")
def reached():
    """Every term reachable at BOUND under the new or the old key, and
    the subterms on its spine."""
    out = {}   # one entry per node object: spines share subterms
    for _, m in terms():
        nodes = graph.explore(m, ref.step_all, ref.lam_key, BOUND, 20000)[0]
        for t in L.reachable(m, BOUND)[0] + [n.state for n in nodes.values()]:
            out.update((id(u), u) for u in _spine(t))
    return list(out.values())


def test_oracle_covers_bags_and_binder_tuples(reached):
    tuples = []
    for t in reached:
        permuted(t, lambda v: tuples.append(v) or v)
    assert len(reached) > 2000
    assert any(isinstance(v[0], L.Term) and len(set(map(L.lam_key, v))) > 1
               for v in tuples if v)
    assert any(len(v) > 1 and not isinstance(v[0], L.Term) for v in tuples)


def test_equal_old_keys_give_equal_new_keys(reached):
    new_by_old = {}
    for t in reached:
        assert new_by_old.setdefault(ref.lam_key(t), L.lam_key(t)) == \
            L.lam_key(t)
    assert len(set(new_by_old.values())) < len(new_by_old)


def test_key_ignores_bag_and_binder_order(reached):
    for i, t in enumerate(reached):
        for order in orders(i):
            assert L.lam_key(permuted(t, order)) == L.lam_key(t)


def test_step_all_is_old_step_all_deduplicated_by_new_key(reached):
    for t in reached:
        seen, expected = set(), []
        for tag, u in ref.step_all(t):
            key = (tag.split(":")[0], L.lam_key(u))
            if key not in seen:
                seen.add(key)
                expected.append((tag, ref.lam_key(u)))
        assert [(tag, ref.lam_key(u)) for tag, u in L.step_all(t)] == \
            expected
