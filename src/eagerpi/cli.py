"""Command surface: check, step, run, translate, bisim, correspond.

Exit codes: 0 success, 1 semantic failure (type error, distinguished,
missing witness), 2 unusable input (parse error, unreadable file, a
script of the wrong calculus, an option a .lc script cannot use, unknown
name, invalid argument, input nested too deeply), 3 inconclusive (a
bound cut the search, or a translation would be too large). Every
command accepts --json to emit line-delimited records instead of prose.
The environment variable EAGERPI_MAX_STATES (a positive integer, 6000 if
unset) caps state-space sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import lam as L
from .eager import step_all, trace
from .equivalence import (bisim_eager, check_loose_completeness,
                          check_loose_soundness, check_success_sensitivity)
from .lamtypes import LamTypeError, check_wf, check_wt
from .parser import (MAX_NESTING, ParseError, _Cursor, parse_context,
                     parse_lc, parse_spi, tokenize)
from .printer import ctx_text, lam_text, process_text
from .translate import TranslationTooLarge, translate
from .typecheck import SessionTypeError, infer_context, typecheck


class UsageError(Exception):
    pass


def _max_states():
    text = os.environ.get("EAGERPI_MAX_STATES", "6000")
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise UsageError(f"EAGERPI_MAX_STATES must be a positive integer, "
                         f"not {text!r}")
    return value


def _natural(text):
    """argparse type of bounds and depths: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, not {text!r}")
    return value


def _emit(args, record, text):
    if args.json:
        print(json.dumps(record))
    else:
        print(text)


# the calculus of each command that takes one only, and the options that
# only a .spi script can use
_TAKES = {"translate": "lc", "correspond": "lc", "bisim": "spi"}
_SPI_ONLY = ("ctx", "seed", "interactive")


def _load(args):
    """The calculus and parsed script of `args.file`, by its extension."""
    kind = "lc" if args.file.endswith(".lc") else "spi"
    want = _TAKES.get(args.command, kind)
    if want != kind:
        raise UsageError(f"{args.command} expects a .{want} file")
    for opt in _SPI_ONLY if kind == "lc" else ():
        if getattr(args, opt, None) is not None:
            raise UsageError(f"{args.command} --{opt} needs a .spi file")
    with open(args.file, "r", encoding="utf-8") as fh:
        text = fh.read()
    return kind, parse_lc(text) if kind == "lc" else parse_spi(text)


def _parse_ctx_arg(text, freemap, supply):
    entries = parse_context(_Cursor(tokenize(text)), "eof")
    return {freemap.get(name) or supply.fresh(name): ty
            for name, ty in entries}


def cmd_check(args, kind, src):
    if args.name is not None:
        _def(src, args.name)
    failures = 0
    if kind == "spi":
        for name in src.order if args.name is None else [args.name]:
            proc, freemap, ctx = src.defs[name]
            if args.ctx is not None:
                ctx = _parse_ctx_arg(args.ctx, freemap, src.supply)
            try:
                if ctx is None:
                    resolved = infer_context(proc)
                else:
                    resolved = typecheck(proc, ctx)
                _emit(args, {"def": name, "ok": True,
                             "ctx": ctx_text(resolved)},
                      f"{name}: ok |- {ctx_text(resolved) or 'empty'}")
            except SessionTypeError as e:
                failures += 1
                _emit(args, {"def": name, "ok": False, "error": str(e)},
                      f"{name}: {e}")
    else:
        judgments = [j for j in src.judgments
                     if args.name is None or j[1] == args.name]
        for kind_, name, theta, gamma, tau in judgments:
            term = src.defs[name][0]
            try:
                if kind_ == "wf":
                    check_wf(theta, gamma, term, tau)
                else:
                    check_wt(theta, gamma, term, tau)
                _emit(args, {"judgment": kind_, "def": name, "ok": True},
                      f"{kind_} {name}: ok")
            except LamTypeError as e:
                failures += 1
                _emit(args, {"judgment": kind_, "def": name, "ok": False,
                             "error": str(e)},
                      f"{kind_} {name}: {e}")
    return 1 if failures else 0


def _def(src, name):
    """The process or term defined as `name` in a loaded script."""
    if name not in src.defs:
        raise UsageError(f"no definition named {name!r}")
    return src.defs[name][0]


def _records(g):
    """A trace's records, its nodes numbered in discovery order: node,
    parent (the node the walk came from when it first reached it; none
    for the root), the rule and cut of that step, term, depth and whether
    the bound stopped it with steps left."""
    ids = {k: i for i, k in enumerate(g.nodes)}
    for k, n in g.nodes.items():
        parent, label = n.parent or (None, "")
        rule, _, cut = label.partition("@")
        yield {"node": ids[k], "parent": ids.get(parent), "rule": rule,
               "cut": cut,
               "term": process_text(n.state, canonical=True),
               "depth": n.depth,
               "bound_exhausted": n.has_steps and not n.expanded}


def cmd_step(args, kind, src):
    term = _def(src, args.name)
    if kind == "lc":
        for tag, t in L.step_all(term):
            _emit(args, {"rule": tag, "term": lam_text(t)},
                  f"{tag}: {lam_text(t)}")
        return 0
    if args.all or (not args.interactive and args.seed is None):
        for st in step_all(term):
            _emit(args, {"rule": st.redex.rule, "cut": st.redex.cut.display,
                         "term": process_text(st.target, canonical=True)},
                  f"{st.redex.rule} on {st.redex.cut.display}: "
                  f"{process_text(st.target, canonical=True)}")
        return 0
    if args.interactive:
        def chooser(p, steps):
            print(process_text(p, canonical=True))
            for i, st in enumerate(steps):
                print(f"  [{i}] {st.redex.rule} on {st.redex.cut.display}")
            try:
                i = int(input("step> "))
            except (EOFError, ValueError) as e:
                raise UsageError(f"no step chosen: {e}") from None
            if not 0 <= i < len(steps):
                raise UsageError(f"no step chosen: {i} is not a step number "
                                 f"from 0 to {len(steps) - 1}")
            return i
        g = trace(term, args.bound, "interactive", chooser=chooser,
                  max_states=args.max_states)
    else:
        g = trace(term, args.bound, "random", seed=args.seed,
                  max_states=args.max_states)
    for rec in _records(g):
        _emit(args, rec,
              f"{rec['node']:>4} <- {str(rec['parent']):>4} "
              f"{rec['rule']:<10} {rec['term']}")
    return 0


_CUT = {"depth": "bound exhausted", "states": "state cap reached"}


def _warn_if_cut(args, cause):
    """Name the bound that stopped a search, if one did."""
    if cause != "none":
        _emit(args, {"warning": _CUT[cause]}, f"-- {_CUT[cause]}")


def cmd_run(args, kind, src):
    term = _def(src, args.name)
    if kind == "lc":
        g = L.reduction_graph(term, args.bound, args.max_states)
    else:
        g = trace(term, args.bound, max_states=args.max_states)
    for node in g.leaves():
        text = lam_text(node.state) if kind == "lc" else \
            process_text(node.state, canonical=True)
        _emit(args, {"normal": text}, text)
    _warn_if_cut(args, g.cause)
    return 0


def cmd_translate(args, kind, src):
    judgment = next(((theta, gamma, tau) for _, name, theta, gamma, tau
                     in src.judgments if name == args.name), None)
    proc, ctx = translate(_def(src, args.name), judgment)
    record = {"def": args.name, "process": process_text(proc)}
    text = [record["process"]]
    if ctx is not None:
        record["context"] = ctx_text(ctx, proc)
        text.append(f"-- context: {record['context']}")
    _emit(args, record, "\n".join(text))
    return 0


def cmd_bisim(args, kind, src):
    res = bisim_eager(_def(src, args.p), _def(src, args.q),
                      depth=args.depth, max_states=args.max_states)
    cut = f" -- {_CUT[res.cause]}" if res.verdict == "inconclusive" else ""
    lines = [res.verdict + cut] + [f"  {w}" for w in res.witness or ()]
    _emit(args, {"verdict": res.verdict, "witness": res.witness,
                 "cause": res.cause}, "\n".join(lines))
    return {"bisimilar": 0, "distinguished": 1, "inconclusive": 3}[res.verdict]


def cmd_correspond(args, kind, src):
    term = _def(src, args.name)
    ms = args.max_states
    comp = check_loose_completeness(term, args.bound, ms)
    snd = check_loose_soundness(term, args.bound, ms)
    sens = check_success_sensitivity(term, args.bound, ms)
    ok = comp["ok"] and snd["ok"] and sens["agrees"]
    # a check fails only where no bound or cap can have hidden a witness;
    # completeness is cut for all its reducts or for none
    comp_fail = not comp["ok"] and not comp["exhausted"]
    snd_fail = snd["failures"] > 0
    sens_fail = not sens["agrees"] and not sens["exhausted"]

    def verdict(good, failed, yes="ok", no="FAIL"):
        return yes if good else no if failed else "inconclusive"

    _emit(args, {"completeness": comp, "soundness": snd,
                 "success-sensitivity": sens, "ok": ok},
          f"completeness: {verdict(comp['ok'], comp_fail)} "
          f"({len(comp['reducts'])} reducts)\n"
          f"soundness: {verdict(snd['ok'], snd_fail)} "
          f"({snd['states']} states)\n"
          f"success-sensitivity: "
          f"{verdict(sens['agrees'], sens_fail, 'agree', 'DISAGREE')} "
          f"(lambda={sens['lambda']}, pi={sens['pi']})")
    return 0 if ok else 1 if comp_fail or snd_fail or sens_fail else 3


def main(argv=None):
    ap = argparse.ArgumentParser(prog="eagerpi")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="typecheck declarations / judgments")
    c.add_argument("file")
    c.add_argument("--name")
    c.add_argument("--ctx")
    c.add_argument("--json", action="store_true")
    c.set_defaults(fn=cmd_check)

    s = sub.add_parser("step", help="one-step reducts or guided traces")
    s.add_argument("file")
    s.add_argument("name")
    s.add_argument("--all", action="store_true")
    s.add_argument("--interactive", action="store_true", default=None)
    s.add_argument("--seed", type=int)
    s.add_argument("--bound", type=_natural, default=64)
    s.add_argument("--json", action="store_true")
    s.set_defaults(fn=cmd_step)

    r = sub.add_parser("run", help="reduce to normal forms")
    r.add_argument("file")
    r.add_argument("name")
    r.add_argument("--bound", type=_natural, default=64)
    r.add_argument("--json", action="store_true")
    r.set_defaults(fn=cmd_run)

    t = sub.add_parser("translate", help="translate a lambda term")
    t.add_argument("file")
    t.add_argument("name")
    t.add_argument("--json", action="store_true")
    t.set_defaults(fn=cmd_translate)

    b = sub.add_parser("bisim", help="ready-prefix bisimilarity")
    b.add_argument("file")
    b.add_argument("p")
    b.add_argument("q")
    b.add_argument("--depth", type=_natural, default=12)
    b.add_argument("--json", action="store_true")
    b.set_defaults(fn=cmd_bisim)

    co = sub.add_parser("correspond", help="translation correspondence")
    co.add_argument("file")
    co.add_argument("name")
    co.add_argument("--bound", type=_natural, default=30)
    co.add_argument("--json", action="store_true")
    co.set_defaults(fn=cmd_correspond)

    args = ap.parse_args(argv)
    # parsing takes at most 5 frames per nesting level (a labelled row of a
    # type or a branch, a bag), checking and printing at most 3
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 8 * MAX_NESTING))
    try:
        args.max_states = _max_states()
        return args.fn(args, *_load(args))
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except (SessionTypeError, LamTypeError) as e:
        print(str(e), file=sys.stderr)
        return 1
    except (OSError, UsageError) as e:
        print(str(e), file=sys.stderr)
        return 2
    except UnicodeDecodeError as e:
        print(f"{args.file}: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("input nested too deeply", file=sys.stderr)
        return 2
    except TranslationTooLarge as e:
        print(str(e), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
