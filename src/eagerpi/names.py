"""Channel names: an id drawn from a supply, and a display.

Binders are freshened at every introduction (parse, rule instantiation,
copy) from the supply at hand. Two names are equal exactly when their id
and display are equal: supplies are not shared, so names from two separate
parses can share an id. The translation of a λ term draws from a supply
that starts above every id of the term and of its judgment, so it shares
no id with the term. Printing reads the display.

Names are interned (hash-consing; Filliâtre & Conchon, ML Workshop 2006):
`Name(id, display)` returns the one live object for that pair, so equality
and hashing are object identity, which the interpreter does without
running Python code. The intern table holds its names weakly, so a name
that nothing else references leaves it and a long run does not grow it.
A hash is then an object address: iterating a set or dict of names follows
memory layout, so output order must never rest on it.
"""

from __future__ import annotations

import itertools
import weakref


class Name:
    """An interned, immutable channel name."""

    __slots__ = ("id", "display", "__weakref__")
    id: int
    display: str

    def __new__(cls, id: int, display: str = "x") -> Name:
        name = _TABLE.get((id, display))
        if name is None:
            name = object.__new__(cls)
            object.__setattr__(name, "id", id)
            object.__setattr__(name, "display", display)
            _TABLE[id, display] = name
        return name

    def __setattr__(self, attr, value):
        raise AttributeError(f"cannot assign to field {attr!r} of a Name")

    def __delattr__(self, attr):
        raise AttributeError(f"cannot delete field {attr!r} of a Name")

    def __reduce__(self):
        # copy, deepcopy and unpickling rebuild through the table
        return Name, (self.id, self.display)

    def __repr__(self):
        return f"{self.display}#{self.id}"


_TABLE: weakref.WeakValueDictionary[tuple[int, str], Name] = (
    weakref.WeakValueDictionary())


class NameSupply:
    """Deterministic fresh-name generator.

    A supply seeded with the same start value produces the same sequence,
    which keeps translations and rule instantiations reproducible.
    """

    def __init__(self, start: int = 1):
        self._counter = itertools.count(start)

    def fresh(self, display: str = "x") -> Name:
        return Name(next(self._counter), display)

    def variant(self, name: Name) -> Name:
        return self.fresh(name.display)


_GLOBAL = NameSupply(1_000_000)


def fresh_name(display: str = "x") -> Name:
    """Fresh name from the process-wide supply (engine-internal use)."""
    return _GLOBAL.fresh(display)
