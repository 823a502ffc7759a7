"""No dead helpers: every function, class and method of `src/eagerpi`
is used somewhere.

Each module-level function and class, and each method, that is not a
dunder must occur as a word at least twice across `src/`, `tests/` and
`perfbench/`: once where it is defined, and at least once elsewhere (a
call, an import, a dispatch table or a test). A name defined more than
once (a method of several classes) must occur more often than it is
defined. A helper that lost its last caller fails here.
"""

import ast
import os
import re
from collections import Counter

ROOT = os.path.join(os.path.dirname(__file__), "..")
PACKAGE = os.path.join(ROOT, "src", "eagerpi")


def defined_names():
    """(module, name) for every module-level function and class and every
    method of `src/eagerpi/*.py` that is not a dunder."""
    out = []
    for fname in sorted(os.listdir(PACKAGE)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            defs = [node]
            if isinstance(node, ast.ClassDef):
                defs += node.body
            for d in defs:
                if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)) and \
                        not (d.name.startswith("__") and
                             d.name.endswith("__")):
                    out.append((fname, d.name))
    return out


def word_counts():
    """How often each word occurs in the Python files of `src/`, `tests/`
    and `perfbench/`."""
    counts = Counter()
    for top in ("src", "tests", "perfbench"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            for fname in files:
                if fname.endswith(".py"):
                    path = os.path.join(dirpath, fname)
                    with open(path, encoding="utf-8") as fh:
                        counts.update(re.findall(r"\w+", fh.read()))
    return counts


def test_every_helper_is_used_outside_its_definition():
    counts, names = word_counts(), defined_names()
    defs = Counter(name for _, name in names)
    dead = [f"{module}: {name}" for module, name in names
            if counts[name] <= defs[name]]
    assert not dead, dead
