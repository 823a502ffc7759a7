"""Command surface: check, step, run, translate, bisim, correspond.

Exit codes: 0 success, 1 semantic failure (type error, distinguished,
missing witness), 2 unusable input (parse error, missing file or name,
invalid argument, input nested too deeply), 3 inconclusive. Every command
accepts --json to emit line-delimited records instead of prose. The
environment variable EAGERPI_MAX_STATES (a positive integer) caps
state-space sizes.
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
from .names import NameSupply
from .parser import (ParseError, _Cursor, parse_lc, parse_session_type,
                     parse_spi, tokenize)
from .printer import ctx_text, lam_text, process_text
from .translate import Translator, translate_contexts, translate_strict
from .typecheck import SessionTypeError, infer_context, typecheck


class UsageError(Exception):
    pass


def _max_states(default=6000):
    text = os.environ.get("EAGERPI_MAX_STATES", str(default))
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


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".lc"):
        return "lc", parse_lc(text)
    return "spi", parse_spi(text)


def _parse_ctx_arg(text, freemap, supply):
    ctx = {}
    cur = _Cursor(tokenize(text))
    if cur.at("eof"):
        return ctx
    while True:
        name = cur.take("ident").text
        cur.take(":")
        ty = parse_session_type(cur)
        n = freemap.get(name) or supply.fresh(name)
        ctx[n] = ty
        if not cur.try_take(","):
            break
    cur.take("eof")
    return ctx


def cmd_check(args):
    kind, src = _load(args.file)
    failures = 0
    if kind == "spi":
        names = [args.name] if args.name else src.order
        for name in names:
            if name not in src.defs:
                raise UsageError(f"no definition named {name!r}")
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


def _pi_def(src, name):
    if name not in src.defs:
        raise UsageError(f"no definition named {name!r}")
    proc, _, _ = src.defs[name]
    return proc


def _lc_def(src, name):
    if name not in src.defs:
        raise UsageError(f"no definition named {name!r}")
    return src.defs[name][0]


def cmd_step(args):
    kind, src = _load(args.file)
    if kind == "lc":
        term = _lc_def(src, args.name)
        steps = L.step_all(term)
        for tag, t in steps:
            _emit(args, {"rule": tag, "term": lam_text(t)},
                  f"{tag}: {lam_text(t)}")
        return 0
    proc = _pi_def(src, args.name)
    if args.all or (not args.interactive and args.seed is None):
        steps = step_all(proc)
        for st in steps:
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
            return int(input("step> "))
        tr = trace(proc, args.bound, "interactive", chooser=chooser,
                   max_states=args.max_states)
    else:
        tr = trace(proc, args.bound, "random", seed=args.seed,
                   max_states=args.max_states)
    for rec in tr.records():
        _emit(args, rec,
              f"{rec['node']:>4} <- {str(rec['parent']):>4} "
              f"{rec['rule']:<10} {rec['term']}")
    return 0


def cmd_run(args):
    kind, src = _load(args.file)
    if kind == "lc":
        term = _lc_def(src, args.name)
        terms, truncated = L.reachable(term, args.bound, args.max_states)
        normal = [t for t in terms if not L.step_all(t)]
        for t in normal:
            _emit(args, {"normal": lam_text(t)}, lam_text(t))
        if truncated:
            _emit(args, {"warning": "bound exhausted"}, "-- bound exhausted")
        return 0
    proc = _pi_def(src, args.name)
    tr = trace(proc, args.bound, max_states=args.max_states)
    for node in tr.leaves():
        _emit(args, {"normal": process_text(node.process, canonical=True)},
              process_text(node.process, canonical=True))
    if tr.truncated:
        _emit(args, {"warning": "bound exhausted"}, "-- bound exhausted")
    return 0


def cmd_translate(args):
    kind, src = _load(args.file)
    if kind != "lc":
        print("translate expects a .lc file", file=sys.stderr)
        return 2
    term = _lc_def(src, args.name)
    tr = Translator(NameSupply(args.seed or 1))
    u = tr.supply.fresh("u")
    proc = tr.term(term, u)
    record = {"def": args.name, "process": process_text(proc)}
    text = [process_text(proc)]
    for kind_, name, theta, gamma, tau in src.judgments:
        if name != args.name:
            continue
        ctx = translate_contexts(gamma, theta, tr)
        ctx[u] = translate_strict(tau)
        record["context"] = ctx_text(ctx)
        text.append(f"-- context: {ctx_text(ctx)}")
        break
    _emit(args, record, "\n".join(text))
    return 0


def cmd_bisim(args):
    kind, src = _load(args.file)
    p = _pi_def(src, args.p)
    q = _pi_def(src, args.q)
    res = bisim_eager(p, q, depth=args.depth, max_states=args.max_states)
    _emit(args, {"verdict": res.verdict, "witness": res.witness},
          res.verdict if not res.witness
          else res.verdict + "\n" + "\n".join(f"  {w}" for w in res.witness))
    return {"bisimilar": 0, "distinguished": 1, "inconclusive": 3}[res.verdict]


def cmd_correspond(args):
    kind, src = _load(args.file)
    if kind != "lc":
        print("correspond expects a .lc file", file=sys.stderr)
        return 2
    term = _lc_def(src, args.name)
    ms = args.max_states
    comp = check_loose_completeness(term, args.bound, ms)
    snd = check_loose_soundness(term, args.bound, ms)
    sens = check_success_sensitivity(term, args.bound, ms)
    ok = comp["ok"] and snd["ok"] and sens["agrees"]
    _emit(args, {"completeness": comp, "soundness": snd,
                 "success-sensitivity": sens, "ok": ok},
          f"completeness: {'ok' if comp['ok'] else 'FAIL'} "
          f"({len(comp['reducts'])} reducts)\n"
          f"soundness: {'ok' if snd['ok'] else 'FAIL'} "
          f"({snd['states']} states)\n"
          f"success-sensitivity: {'agree' if sens['agrees'] else 'DISAGREE'} "
          f"(lambda={sens['lambda']}, pi={sens['pi']})")
    return 0 if ok else 1


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
    s.add_argument("--interactive", action="store_true")
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
    t.add_argument("--seed", type=int)
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
    try:
        args.max_states = _max_states()
        return args.fn(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except (SessionTypeError, LamTypeError) as e:
        print(str(e), file=sys.stderr)
        return 1
    except (FileNotFoundError, UsageError) as e:
        print(str(e), file=sys.stderr)
        return 2
    except RecursionError:
        print("input nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
