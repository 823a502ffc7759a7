"""Differential test of the table-driven syntax against the parser and
printer it replaced (`reference_parser.py`, `reference_printer.py`).

`process.SYNTAX` spells the concrete syntax of twelve process constructors
once: the parser reads it for `SpiParser._atom` and the printer fills it.
The reference spells every form by hand. On every input below both parsers
must build the same trees, names compared as (id, display), and leave
their name supplies at the same id; or both must raise an exception of the
same type with the same text. Both printers must print every parsed
definition to the same text, plain and canonical.

One difference is deliberate: a label repeated in a row (`x&{a: P, a: Q}`,
`+{a: 1, a: 1}`) made the reference raise `ValueError` once the row was
read, and now it is a `ParseError` at the repeated label.

Inputs: every cut after a token and every deletion of one token of four
corpus files; whole-file parses of all five corpus files, of the
benchmark's lambda family and of a script printed from 300 generated
processes. `syntax_sweep.py` runs the same comparison on every line of
`generated.spi` and of the lambda family.
"""

from __future__ import annotations

import dataclasses

import pytest

from eagerpi import parser, printer
from eagerpi.gen import corpus_script, generate_corpus
from eagerpi.names import Name
from tests import reference_parser as ref_parser
from tests import reference_printer as ref_printer
from tests.conftest import corpus_path, perfbench_workloads

PARSE = {"spi": (parser.parse_spi, ref_parser.parse_spi),
         "lc": (parser.parse_lc, ref_parser.parse_lc)}


def dump(v):
    """v as nested tuples of plain values, names as (id, display)."""
    if isinstance(v, Name):
        return ("Name", v.id, v.display)
    if dataclasses.is_dataclass(v):
        return (type(v).__name__,) + tuple(
            dump(getattr(v, f.name)) for f in dataclasses.fields(v))
    if isinstance(v, dict):
        return ("dict",) + tuple((dump(k), dump(x)) for k, x in v.items())
    if isinstance(v, (tuple, list)):
        return tuple(map(dump, v))
    if isinstance(v, frozenset):
        return ("set",) + tuple(sorted(map(dump, v), key=repr))
    return v


def outcome(parse, text):
    """What one parser makes of `text`: the dump of every definition and
    judgment and the supply's next id, or the exception's type and text."""
    try:
        src = parse(text)
    except Exception as e:  # noqa: BLE001 - the exception is the outcome
        if isinstance(e, ValueError) and "distinct" in str(e):
            return ("duplicate label",)
        if type(e).__name__ == "ParseError" and "duplicate label" in str(e):
            return ("duplicate label",)
        return (type(e).__name__, str(e))
    return (src.order, dump(src.defs), dump(getattr(src, "judgments", ())),
            src.supply.fresh().id)


def difference(kind, text):
    """None when both parsers agree on `text`, else what each made of it."""
    new, old = (outcome(parse, text) for parse in PARSE[kind])
    return None if new == old else (text, new, old)


def mangled(text):
    """Every cut of `text` after a token, and every deletion of one token
    (the end of input counts as a token)."""
    starts = [0]
    for line in text.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    for t in ref_parser.tokenize(text):
        start = starts[t.line - 1] + t.col - 1
        end = start + len(t.text)
        yield text[:end]
        yield text[:start] + text[end:]


def read_corpus(name):
    with open(corpus_path(name), encoding="utf-8") as fh:
        return fh.read()


def generated_script(count=300):
    """A script of `count` generated processes, printed by the reference."""
    return "".join(f"def G{i:03d} = {ref_printer.process_text(p)}\n"
                   for i, p in enumerate(generate_corpus(7, count)))


@pytest.mark.parametrize("name", ["movie.spi", "vm.spi", "ex32.lc",
                                  "corr.lc"])
def test_cuts_and_deletions_agree(name):
    kind = name.split(".")[1]
    cases = list(mangled(read_corpus(name)))
    diffs = [d for t in cases if (d := difference(kind, t))]
    assert not diffs, (len(diffs), len(cases), diffs[:3])


def _whole_inputs():
    yield from ((n, n.split(".")[1], lambda n=n: read_corpus(n))
                for n in ("movie.spi", "vm.spi", "generated.spi",
                          "ex32.lc", "corr.lc"))
    yield "lambda family", "lc", lambda: perfbench_workloads().lambda_script()
    yield "generated 300", "spi", generated_script


# small inputs on the edges of the grammar: where a binder's scope ends,
# shadowing, keywords and `OK` before a subject's symbol, empty and
# repeated lists and rows, unsorted name lists, errors inside the forms
EDGES = [("spi", t) for t in (
    "def S = (x?(y). close y | close y)",
    "def S = new x (x?(x). close x | wait x. 0)",
    "def S = (new x (close x | wait x. 0) | close x)",
    "def S = x!(y)(close y ++ close y | wait x. 0)",
    "def S = expect x [c, a, b]. close x",
    "def S = expect x []. close x ++ OK",
    "def S = OK!(y)(0 | 0)",
    "def S = close?(y). 0",
    "def S = new!(y)(0 | 0)",
    "def S = def!(y)(0 | 0)",
    "def S = x&{}",
    "def S [x: +{}] = 0",
    "def S [] = 0",
    "def S [x: 1, x: bot] = close x",
    "def S = x&{b: close x, a: wait x. 0}",
    "def S = x&{a: close x, a: close x}",
    "def S = new x (0 | 0 | 0)",
    "def S = x!(y)(0)",
    "def S = 00",
    "def S = 1",
    "def A = close x\ndef S = (A | wait x. 0 | Z)",
    "def A = close x\ndef S = new A (A | 0)",
    "def S = [x<->x]",
    "def S = x#close. wait x. 0",
    "def S = !x?(y). ?y!(z). [z<->y]",
    "def S [x: +{a: 1} * ?bot @ !1, y: &{a: 1, b: maybe expect 1}] = 0",
)] + [("lc", t) for t in (
    "def T = y [<- x]",
    "def T = y {| <OK, fail{a, b}> / x1, x2 |}",
    "def T = y {| <> / |}",
    "def T = y {| <OK> * !1 . !<OK> / x |}",
    "def T = y {! !<OK> . !1 / x !}",
    "def T = x[2] <>",
    "def T = x <OK> * !1",
    "def I = \\x. x1 [x1 <- x]\ndef T = I <I>\n"
    "wf T [y: unit ^ 1, u!: unit . unit] : unit",
    "def T = fail{}",
)]


@pytest.mark.parametrize("label, kind, text", list(_whole_inputs()) + [
    (t, kind, lambda t=t: t) for kind, t in EDGES],
    ids=[i[0] for i in _whole_inputs()] + [t for _, t in EDGES])
def test_whole_inputs_parse_and_print_alike(label, kind, text):
    text = text()
    assert difference(kind, text) is None
    try:
        src = PARSE[kind][0](text)
    except (parser.ParseError, ValueError):
        return
    show, ref_show = ((printer.process_text, ref_printer.process_text)
                      if kind == "spi" else
                      (printer.lam_text, ref_printer.lam_text))
    for name in src.order:
        m = src.defs[name][0]
        for canonical in (False, True):
            assert show(m, canonical) == ref_show(m, canonical), name


def test_tokens_agree():
    symbols = "-> <-> <- ++ {| |} {! !} ()[]{}<>|#&?!.,:=\\*^@+/ -- note\n"
    for _, _, text in _whole_inputs():
        for t in (text(), symbols, symbols.replace(" ", "")):
            assert ([vars(k) for k in parser.tokenize(t)]
                    == [vars(k) for k in ref_parser.tokenize(t)])
    with pytest.raises(parser.ParseError, match="unexpected character '%'"):
        parser.tokenize("x % y")


def test_generated_processes_print_alike():
    for p in generate_corpus(7, 300):
        for canonical in (False, True):
            assert (printer.process_text(p, canonical)
                    == ref_printer.process_text(p, canonical))


def test_generated_corpus_is_what_the_generator_prints():
    # the committed text has some redundant parentheses that the printer
    # no longer writes; the trees, name ids included, are the same
    assert (outcome(parser.parse_spi, read_corpus("generated.spi"))
            == outcome(parser.parse_spi, corpus_script(7, 104)))
