"""Concrete syntax: bit-exact prints, round trips, error positions."""

import sys

import pytest

from eagerpi import lam as L
from eagerpi import process as P
from eagerpi.parser import (MAX_NESTING, ParseError, parse_lc, parse_spi,
                            session_type_of, strict_type_of)
from eagerpi.printer import lam_text, ltype_text, process_text, type_text
from eagerpi.process import canonicalize, term_key


def rt_spi(text):
    p = parse_spi(f"def T = {text}").defs["T"][0]
    q = parse_spi(f"def T = {process_text(p)}").defs["T"][0]
    assert term_key(canonicalize(p)) == term_key(canonicalize(q))
    return p


def rt_lc(text, extra=""):
    src = parse_lc(f"{extra}\ndef T = {text}")
    t = src.defs["T"][0]
    t2 = parse_lc(f"def T = {lam_text(t)}").defs["T"][0]
    assert L.lam_key(t) == L.lam_key(t2)
    return t


def test_parse_close():
    p = parse_spi("def T = close x").defs["T"][0]
    assert isinstance(p, P.Close) and p.x.display == "x"


def test_grammar_atoms_round_trip():
    for text in ("0", "OK", "[x<->y]", "(close x | close y)",
                 "new x (close x | wait x. 0)",
                 "close x ++ none y",
                 "x!(y)(close y | close x)",
                 "x?(y). wait y. wait x. 0",
                 "x#l. close x",
                 "x&{a: close x, b: wait x. 0}",
                 "?x!(y). close y",
                 "!x?(y). close y",
                 "some x. close x",
                 "expect x [w1,w2]. (close x | (none w1 | none w2))"):
        rt_spi(text)


def test_precedence_prefix_tighter_than_par():
    p = parse_spi("def T = (wait x. close y | close z)").defs["T"][0]
    parts = P.par_parts(p)
    assert len(parts) == 2
    assert isinstance(parts[0], P.Wait)


def test_precedence_sum_loosest():
    p = parse_spi("def T = (close x | close y) ++ close z").defs["T"][0]
    assert isinstance(p, P.NDChoice)


def test_movie_corpus_round_trip(movie):
    for name in movie.order:
        proc = movie.defs[name][0]
        rt_spi(process_text(proc))


def test_generated_corpus_round_trip(generated):
    for name in generated.order[:40]:
        proc = generated.defs[name][0]
        text = process_text(proc)
        q = parse_spi(f"def T = {text}").defs["T"][0]
        assert term_key(canonicalize(proc)) == term_key(canonicalize(q))


def test_lambda_atoms_round_trip():
    for text, extra in (("x", ""), ("x[3]", ""), ("\\x. x1 [x1 <- x]", ""),
                        ("fail{x,y}", ""), ("OK", ""),
                        ("f <a, b>", ""), ("f <> * !<OK> . !1", ""),
                        ("m [x1,x2 <- x]", ""), ("m [<- x]", ""),
                        ("m {| <a> * !1 / x |}", ""),
                        ("m {| <a, b> / x1, x2 |}", ""),
                        ("m {! !<OK> . !1 / x !}", "")):
        rt_lc(text, extra)


def test_lambda_corpus_round_trip(ex32, corr):
    for src in (ex32, corr):
        for name in src.order:
            t = src.defs[name][0]
            t2 = parse_lc(f"def T = {lam_text(t)}").defs["T"][0]
            assert L.lam_key(t) == L.lam_key(t2)


def test_session_type_syntax():
    for text in ("1", "bot", "1 * bot", "1 @ bot", "+{l: 1}",
                 "&{l: 1, r: bot}", "?1", "!1", "maybe 1", "expect 1",
                 "maybe (1 * bot)", "!&{a: 1}"):
        t = session_type_of(text)
        assert session_type_of(type_text(t)) == t


def test_strict_type_syntax():
    # each group is parsed once; backtracking cost about 4x per level
    for text in ("unit", "(unit^1, unit) -> unit",
                 "(w, unit) -> unit",
                 "((unit^1, unit) -> unit ^ 2, unit . unit) -> unit",
                 "(" * 40 + "unit" + ")" * 40,
                 "(" * 40 + "(unit^1, unit) -> unit" + ")" * 40):
        t = strict_type_of(text)
        assert strict_type_of(ltype_text(t)) == t


def test_parse_error_position():
    with pytest.raises(ParseError) as e:
        parse_spi("def T = x!(y")
    assert e.value.line == 1


def test_reference_inlining_shares_free_names(movie):
    comp = movie.defs["Composition"][0]
    assert isinstance(comp, P.Restrict)
    # both sides speak on the same bound channel
    from eagerpi.typecheck import typecheck
    typecheck(comp, {})


def test_duplicate_definition_rejected():
    with pytest.raises(ParseError):
        parse_spi("def A = 0\ndef A = 0")


def test_unknown_reference_rejected():
    with pytest.raises(ParseError):
        parse_spi("def A = Missing")


@pytest.mark.parametrize("parse, nest", [
    (parse_spi, lambda n: "def T = " + "x#a. " * n + "0"),
    (parse_spi, lambda n: "def T = " + "(" * n + "0" + ")" * n),
    (session_type_of, lambda n: "?" * n + "1"),
    (parse_lc, lambda n: "def T = " + "\\x. " * n + "OK"),
])
def test_nesting_limit(parse, nest):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 8 * MAX_NESTING))
    try:
        parse(nest(MAX_NESTING))
        with pytest.raises(ParseError, match="nested deeper than"):
            parse(nest(MAX_NESTING + 1))
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("parse, nest", [
    (parse_spi, lambda n: "def T = " + "x#a. " * n + "0"),
    (parse_spi, lambda n: "def T = " + "x&{a: " * n + "0" + "}" * n),
    (parse_spi, lambda n: "def T = " + "new x (0 | " * n + "0" + ")" * n),
    (parse_spi, lambda n: "def T = " + "x!(y)(0 | " * n + "0" + ")" * n),
    (session_type_of, lambda n: "+{a: " * n + "1" + "}" * n),
    (session_type_of, lambda n: "1 * (" * n + "1" + ")" * n),
    (parse_lc, lambda n: "def T = " + "x <" * n + "OK" + ">" * n),
])
def test_parsing_takes_at_most_5_frames_per_level(parse, nest):
    # the recursion limit that `cli.main` sets counts on this
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(5 * MAX_NESTING + 200)
    try:
        parse(nest(MAX_NESTING))
    finally:
        sys.setrecursionlimit(limit)
