"""Interned names: one live object per (id, display) pair, so equality
and hashing are identity, and the intern table holds its names weakly."""

import copy
import gc
import pickle

import pytest

from eagerpi import names
from eagerpi.names import Name, NameSupply


def test_one_object_per_id_and_display():
    assert Name(7, "a") is Name(7, "a")
    assert Name(7) is Name(7, "x")
    assert NameSupply(7).fresh("a") is Name(7, "a")


def test_equal_exactly_when_id_and_display_are_equal():
    ids, displays = (1, 2, 1_000_000), ("x", "y", "x'")
    pairs = [(i, d) for i in ids for d in displays]
    held = {pair: Name(*pair) for pair in pairs}   # live, so no address reuse
    for a in pairs:
        for b in pairs:
            assert (held[a] == Name(*b)) == (a == b)
            assert (hash(held[a]) == hash(held[b])) == (a == b)


def test_fields_and_repr():
    n = Name(3, "z")
    assert (n.id, n.display, repr(n)) == (3, "z", "z#3")


def test_immutable():
    n = Name(5, "q")
    with pytest.raises(AttributeError):
        n.id = 6
    with pytest.raises(AttributeError):
        n.display = "r"
    with pytest.raises(AttributeError):
        del n.id
    with pytest.raises(AttributeError):
        n.other = 1
    assert (n.id, n.display) == (5, "q")


def test_copy_and_pickle_return_the_interned_object():
    n = Name(11, "c")
    assert copy.copy(n) is n
    assert copy.deepcopy(n) is n
    assert copy.deepcopy((n, [n]))[0] is n
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(n, protocol)) is n


def test_unreferenced_names_leave_the_table():
    # ids far above every supply's, so no other live object holds them
    keys = [(10 ** 12 + i, "gone") for i in range(1000)]
    held = [Name(*k) for k in keys]
    assert all(k in names._TABLE for k in keys)
    del held
    gc.collect()
    assert not any(k in names._TABLE for k in keys)
