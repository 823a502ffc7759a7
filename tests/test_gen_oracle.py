"""The generator reads its session-type constructors off the table in
`sessiontypes` and still draws what it drew before.

`random_type` must build the types of its old form (`reference_gen.py`)
from the same seeds and consume the same random numbers, so that every
generated process stays the same; `corpus/generated.spi` pins the processes
themselves.
"""

import random

from eagerpi.gen import generate_corpus, random_type
from eagerpi.printer import process_text
from tests import reference_gen as ref
from tests.conftest import load_spi


def test_random_type_matches_reference():
    for seed in range(200):
        for depth in (1, 2, 3):
            new, old = random.Random(seed), random.Random(seed)
            assert random_type(new, depth) == ref.random_type(old, depth)
            assert new.getstate() == old.getstate(), (seed, depth)


def test_generated_corpus_is_the_generators_output():
    defs = load_spi("generated.spi").defs
    procs = generate_corpus(7, 104)
    assert len(defs) == len(procs)
    for i, p in enumerate(procs):
        assert process_text(defs[f"G{i:03d}"][0]) == process_text(p), i
