"""`gen.random_type` as it was before it read the constructors off the
session-type table (`sessiontypes.TOKEN` and `ROWS`), kept verbatim for the
differential test `test_gen_oracle.py`: a 10-way string `match`, one case
per constructor, whose kinds are listed in the order of that table.
"""

import random

from eagerpi.sessiontypes import (Bang, Bot, ExpectT, Maybe, One, Parr,
                                  Query, SessionType, Tensor, plus, with_)

_LABELS = ("a", "b", "c")


def random_type(rng: random.Random, depth: int = 2) -> SessionType:
    if depth <= 0:
        return rng.choice((One(), Bot()))
    kind = rng.choice(("one", "bot", "tensor", "parr", "plus", "with",
                       "query", "bang", "maybe", "expectt"))
    sub = lambda: random_type(rng, depth - 1)
    match kind:
        case "one":
            return One()
        case "bot":
            return Bot()
        case "tensor":
            return Tensor(sub(), sub())
        case "parr":
            return Parr(sub(), sub())
        case "plus":
            n = rng.randint(1, 2)
            return plus([(l, sub()) for l in _LABELS[:n]])
        case "with":
            n = rng.randint(1, 2)
            return with_([(l, sub()) for l in _LABELS[:n]])
        case "query":
            return Query(sub())
        case "bang":
            return Bang(sub())
        case "maybe":
            return Maybe(sub())
        case "expectt":
            return ExpectT(sub())
    raise AssertionError
