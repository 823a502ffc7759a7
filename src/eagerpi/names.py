"""Channel names: an id drawn from a supply, and a display.

Binders are freshened at every introduction (parse, rule instantiation,
copy) from the supply at hand. Equality and hashing compare the id and the
display together: supplies are not shared, so names from two separate
parses can share an id. The translation of a λ term draws from a supply
that starts above every id of the term and of its judgment, so it shares
no id with the term. Printing reads the display.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class Name:
    id: int
    display: str = "x"

    def __repr__(self):
        return f"{self.display}#{self.id}"


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
