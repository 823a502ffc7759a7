"""Command surface and exit codes."""

import json
import os

import pytest

from eagerpi.cli import main
from eagerpi.parser import MAX_NESTING, parse_spi
from eagerpi.printer import process_text
from tests.conftest import corpus_path, full_trace
from tests.test_dstep import SPURIOUS_CUTS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_check_movie_ok(capsys):
    code, out = run(capsys, "check", corpus_path("movie.spi"))
    assert code == 0


def test_check_lambda_judgments(capsys):
    code, out = run(capsys, "check", corpus_path("ex32.lc"))
    assert code == 0
    assert "wf M0: ok" in out


def test_check_type_error_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.spi"
    bad.write_text("def B [x: 1] = wait x. 0\n")
    code, _ = run(capsys, "check", str(bad))
    assert code == 1


def test_check_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.spi"
    bad.write_text("def B = x!(y\n")
    code, _ = run(capsys, "check", str(bad))
    assert code == 2


def test_check_ctx_override(capsys, tmp_path):
    f = tmp_path / "t.spi"
    f.write_text("def B = wait x. 0\n")
    code, _ = run(capsys, "check", str(f), "--name", "B", "--ctx", "x: bot")
    assert code == 0


def test_step_all_movie(capsys):
    code, out = run(capsys, "step", corpus_path("movie.spi"), "Composition",
                    "--all")
    assert code == 0
    assert len([l for l in out.splitlines() if l.strip()]) == 3


def test_step_lambda_three_reducts(capsys):
    code, out = run(capsys, "step", corpus_path("ex32.lc"), "M")
    assert code == 0
    assert len(out.splitlines()) == 3


def test_run_normal_forms(capsys):
    code, out = run(capsys, "run", corpus_path("movie.spi"), "Composition")
    assert code == 0
    assert out.strip() == "0"


def test_translate_emits_process_and_context(capsys):
    code, out = run(capsys, "translate", corpus_path("ex32.lc"), "M0")
    assert code == 0
    assert "-- context:" in out and "u:" in out


def test_bisim_exit_codes(capsys):
    code, out = run(capsys, "bisim", corpus_path("vm.spi"), "VM1", "VM2")
    assert code == 1
    code, out = run(capsys, "bisim", corpus_path("vm.spi"), "VM1", "VM1")
    assert code == 0


def test_bisim_inconclusive_names_the_bound(capsys, monkeypatch):
    vm = corpus_path("vm.spi")
    code, out = run(capsys, "bisim", vm, "VM1", "VM1", "--depth", "0")
    assert code == 3 and out.strip() == "inconclusive -- bound exhausted"
    code, out = run(capsys, "bisim", vm, "VM1", "VM1", "--depth", "0",
                    "--json")
    assert code == 3
    assert json.loads(out) == {"verdict": "inconclusive", "witness": None,
                               "cause": "depth"}
    monkeypatch.setenv("EAGERPI_MAX_STATES", "1")
    code, out = run(capsys, "bisim", vm, "VM1", "VM1")
    assert code == 3 and out.strip() == "inconclusive -- state cap reached"


def test_correspond(capsys):
    code, out = run(capsys, "correspond", corpus_path("corr.lc"), "T03",
                    "--bound", "20")
    assert code == 0
    assert "success-sensitivity: agree" in out


def test_json_outputs_are_json(capsys):
    code, out = run(capsys, "check", corpus_path("vm.spi"), "--json")
    assert code == 0
    for line in out.splitlines():
        rec = json.loads(line)
        assert rec["ok"]
    code, out = run(capsys, "bisim", corpus_path("vm.spi"), "VM1", "VM2",
                    "--json")
    assert code == 1
    rec = json.loads(out)
    assert rec["verdict"] == "distinguished" and rec["witness"]


def test_seeded_step_deterministic(capsys):
    _, out1 = run(capsys, "step", corpus_path("movie.spi"), "Full",
                  "--seed", "5", "--bound", "8")
    _, out2 = run(capsys, "step", corpus_path("movie.spi"), "Full",
                  "--seed", "5", "--bound", "8")
    assert out1 == out2


# A random path through a cycle: the root's one step replicates, and the
# replica's forwarder dissolves the new cut back into the root.
CYCLE = "def C = new x (?x!(y). [y<->a] | !x?(z). ?x!(w). [w<->a])\n"

# The `--json` output of seeded traces and of `run`, recorded before the
# trace became the explorer's graph, field by field in printed order. A
# revisited node keeps its first number and depth, the root has no parent
# even on a cycle, and the walk's last node is flagged even where it
# passed before.
PINNED = {
    ("step", "movie.spi", "Full", "--seed", "3", "--bound", "20"): [
        (0, None, "", "",
         "new b0 (b0?(b1). wait b1. b0&{buy: b0&{card: b0?(b2). "
         "wait b2. b0!(b3)(close b3 | close b0), cash: "
         "b0!(b4)(close b4 | close b0)}, peek: b0!(b5)(close b5 "
         "| close b0)} | b0!(b6)(close b6 | (b0#buy. b0#card. "
         "b0!(b7)(close b7 | b0?(b8). wait b8. wait b0. 0) ++ "
         "b0#buy. b0#cash. b0?(b9). wait b9. wait b0. 0 ++ "
         "b0#peek. b0?(b10). wait b10. wait b0. 0)))", 0, False),
        (1, 0, "comm", "s",
         "new b0 (close b0 | new b1 ((b1#buy. b1#card. "
         "b1!(b2)(close b2 | b1?(b3). wait b3. wait b1. 0) ++ "
         "b1#buy. b1#cash. b1?(b4). wait b4. wait b1. 0 ++ "
         "b1#peek. b1?(b5). wait b5. wait b1. 0) | wait b0. "
         "b1&{buy: b1&{card: b1?(b6). wait b6. b1!(b7)(close b7 "
         "| close b1), cash: b1!(b8)(close b8 | close b1)}, "
         "peek: b1!(b9)(close b9 | close b1)}))", 1, False),
        (2, 1, "close", "title",
         "new b0 (b0&{buy: b0&{card: b0?(b1). wait b1. "
         "b0!(b2)(close b2 | close b0), cash: b0!(b3)(close b3 |"
         " close b0)}, peek: b0!(b4)(close b4 | close b0)} | "
         "(b0#buy. b0#card. b0!(b5)(close b5 | b0?(b6). wait b6."
         " wait b0. 0) ++ b0#buy. b0#cash. b0?(b7). wait b7. "
         "wait b0. 0 ++ b0#peek. b0?(b8). wait b8. wait b0. 0))", 2, False),
        (3, 2, "sel:buy", "s",
         "new b0 (b0&{card: b0?(b1). wait b1. b0!(b2)(close b2 |"
         " close b0), cash: b0!(b3)(close b3 | close b0)} | "
         "b0#cash. b0?(b4). wait b4. wait b0. 0)", 3, False),
        (4, 3, "sel:cash", "s",
         "new b0 (b0?(b1). wait b1. wait b0. 0 | b0!(b2)(close "
         "b2 | close b0))", 4, False),
        (5, 4, "comm", "s",
         "new b0 (close b0 | new b1 (close b1 | wait b0. wait "
         "b1. 0))", 5, False),
        (6, 5, "close", "movie",
         "new b0 (close b0 | wait b0. 0)", 6, False),
        (7, 6, "close", "s",
         "0", 7, False),
    ],
    ("step", "vm.spi", "VM1", "--seed", "1", "--bound", "8"): [
        (0, None, "", "",
         "new b0 (b0&{c: wait b0. 0, t: wait b0. 0} | new b1 "
         "(b1?(b2). b1&{c: b0#c. wait b1. wait b2. close b0, t: "
         "b0#t. wait b1. wait b2. close b0} | b1!(b3)(close b3 |"
         " (b1#c. close b1 ++ b1#t. close b1))))", 0, False),
        (1, 0, "comm", "x",
         "new b0 (b0&{c: wait b0. 0, t: wait b0. 0} | new b1 "
         "(close b1 | new b2 (b2&{c: b0#c. wait b2. wait b1. "
         "close b0, t: b0#t. wait b2. wait b1. close b0} | "
         "(b2#c. close b2 ++ b2#t. close b2))))", 1, False),
        (2, 1, "sel:c", "x",
         "new b0 (b0&{c: wait b0. 0, t: wait b0. 0} | new b1 "
         "(close b1 | new b2 (close b2 | b0#c. wait b1. wait b2."
         " close b0)))", 2, False),
        (3, 2, "sel:c", "y",
         "new b0 (close b0 | new b1 (close b1 | new b2 (wait b0."
         " wait b1. close b2 | wait b2. 0)))", 3, False),
        (4, 3, "close", "x",
         "new b0 (close b0 | new b1 (wait b0. close b1 | wait "
         "b1. 0))", 4, False),
        (5, 4, "close", "coin",
         "new b0 (close b0 | wait b0. 0)", 5, False),
        (6, 5, "close", "y",
         "0", 6, False),
    ],
    ("step", "generated.spi", "G005", "--seed", "2", "--bound", "6"): [
        (0, None, "", "",
         "(new b0 (b0&{a: new b1 ([b0<->b1] | wait b1. 0)} | "
         "b0#a. close b0) | new b2 (b2!(b3)(!b3?(b4). !b4?(b5). "
         "close b5 | new b6 (close b6 | [b2<->b6])) | (b2?(b7). "
         "(?b7!(b8). ?b8!(b9). wait b9. 0 | ?b7!(b10). "
         "?b10!(b11). wait b11. 0 | new b12 ([b2<->b12] | wait "
         "b12. 0)) ++ b2?(b13). (?b13!(b14). ?b14!(b15). wait "
         "b15. 0 | ?b13!(b16). (?b16!(b17). wait b17. 0 | "
         "?b16!(b18). wait b18. 0) | wait b2. 0))))", 0, False),
        (1, 0, "comm", "x",
         "(new b0 (b0&{a: new b1 ([b0<->b1] | wait b1. 0)} | "
         "b0#a. close b0) | new b2 (close b2 | new b3 ([b2<->b3]"
         " | new b4 ([b3<->b4] | wait b4. 0))) | new b5 "
         "((?b5!(b6). ?b6!(b7). wait b7. 0 | ?b5!(b8). ?b8!(b9)."
         " wait b9. 0) | !b5?(b10). !b10?(b11). close b11))", 1, False),
        (2, 1, "id", "w",
         "(new b0 (b0&{a: new b1 ([b0<->b1] | wait b1. 0)} | "
         "b0#a. close b0) | new b2 (close b2 | new b3 ([b2<->b3]"
         " | wait b3. 0)) | new b4 ((?b4!(b5). ?b5!(b6). wait "
         "b6. 0 | ?b4!(b7). ?b7!(b8). wait b8. 0) | !b4?(b9). "
         "!b9?(b10). close b10))", 2, False),
        (3, 2, "id", "x",
         "(new b0 (b0&{a: new b1 ([b0<->b1] | wait b1. 0)} | "
         "b0#a. close b0) | new b2 (close b2 | wait b2. 0) | new"
         " b3 ((?b3!(b4). ?b4!(b5). wait b5. 0 | ?b3!(b6). "
         "?b6!(b7). wait b7. 0) | !b3?(b8). !b8?(b9). close b9))", 3, False),
        (4, 3, "repl", "p",
         "(new b0 (b0&{a: new b1 ([b0<->b1] | wait b1. 0)} | "
         "b0#a. close b0) | new b2 (?b2!(b3). ?b3!(b4). wait b4."
         " 0 | !b2?(b5). !b5?(b6). close b6) | new b7 (?b7!(b8)."
         " wait b8. 0 | !b7?(b9). close b9) | new b10 (close b10"
         " | wait b10. 0))", 4, False),
        (5, 4, "repl", "r_6",
         "(new b0 (b0&{a: new b1 ([b0<->b1] | wait b1. 0)} | "
         "b0#a. close b0) | new b2 (?b2!(b3). ?b3!(b4). wait b4."
         " 0 | !b2?(b5). !b5?(b6). close b6) | new b7 (close b7 "
         "| wait b7. 0) | new b8 (close b8 | wait b8. 0))", 5, False),
        (6, 5, "sel:a", "x_12",
         "(new b0 (?b0!(b1). ?b1!(b2). wait b2. 0 | !b0?(b3). "
         "!b3?(b4). close b4) | new b5 (close b5 | new b6 "
         "([b5<->b6] | wait b6. 0)) | new b7 (close b7 | wait "
         "b7. 0) | new b8 (close b8 | wait b8. 0))", 6, True),
    ],
    ("step", "cycle.spi", "C", "--seed", "1", "--bound", "4"): [
        (0, None, "", "",
         "new b0 (?b0!(b1). [b1<->a] | !b0?(b2). ?b0!(b3). "
         "[b3<->a])", 0, True),
        (1, 0, "repl", "x",
         "(new b0 (0 | [b0<->a]) | new b1 (?b1!(b2). [b2<->a] | "
         "!b1?(b3). ?b1!(b4). [b4<->a]))", 1, False),
    ],
    ("step", "cycle.spi", "C", "--seed", "1", "--bound", "5"): [
        (0, None, "", "",
         "new b0 (?b0!(b1). [b1<->a] | !b0?(b2). ?b0!(b3). "
         "[b3<->a])", 0, False),
        (1, 0, "repl", "x",
         "(new b0 (0 | [b0<->a]) | new b1 (?b1!(b2). [b2<->a] | "
         "!b1?(b3). ?b1!(b4). [b4<->a]))", 1, True),
    ],
    ("run", "movie.spi", "Full"): [
        ("0",),
    ],
    ("run", "ex32.lc", "M", "--bound", "12"): [
        ("y <x2 <x3 <>>> {| <fail{}, \\x_1. x1 [x1 <- x_1]> / x2, x3 |}"
         " {! !1 / x !}",),
        ("fail{y}",),
        ("y <x3 <>> {| <> /  |} {! !1 / x_1 !} {| <fail{}> / x3 |} {! "
         "!1 / x !}",),
    ],
}

_FIELDS = {"step": ("node", "parent", "rule", "cut", "term", "depth",
                    "bound_exhausted"),
           "run": ("normal",)}


@pytest.mark.parametrize("argv", list(PINNED), ids=" ".join)
def test_pinned_json_output(capsys, tmp_path, argv):
    cmd, file, *rest = argv
    path = corpus_path(file)
    if file == "cycle.spi":
        path = tmp_path / file
        path.write_text(CYCLE)
    code, out = run(capsys, cmd, str(path), *rest, "--json")
    assert code == 0
    assert out == "".join(json.dumps(dict(zip(_FIELDS[cmd], rec))) + "\n"
                          for rec in PINNED[argv])


def _cli(*argv, env=None, stdin=None):
    """Run the CLI in a fresh interpreter, as a shell user would."""
    import os
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src, **(env or {}))
    return subprocess.run([sys.executable, "-m", "eagerpi.cli", *argv],
                          capture_output=True, text=True, env=env,
                          input=stdin, timeout=120)


def test_bisim_witness_independent_of_the_hash_seed(tmp_path):
    """The pair fixpoint eliminates pairs in synchronous rounds, so the
    witness does not follow the order of a set of state keys: under the
    old in-place loop, seed 2 printed another witness than seed 0."""
    from tests.test_bisim_oracle import MOMENT_OF_CHOICE
    f = tmp_path / "moc.spi"
    f.write_text(MOMENT_OF_CHOICE)
    runs = [_cli("bisim", str(f), "RIn", "SIn", "--json",
                 env={"PYTHONHASHSEED": seed})
            for seed in ("0", "2", "70", "144")]
    assert {r.returncode for r in runs} == {1}
    assert len({r.stdout for r in runs}) == 1
    assert json.loads(runs[0].stdout)["verdict"] == "distinguished"


def test_interactive_bad_reply_exits_2():
    # a reply that is not a number, input that ends before a reply, and
    # step numbers out of range: movie `Full` offers one step at first, and
    # valid replies follow, so a reply taken modulo the number of steps
    # would walk on and exit 0
    for stdin in ("abc\n", "", "7\n" + "0\n" * 60, "-1\n" + "0\n" * 60):
        out = _cli("step", corpus_path("movie.spi"), "Full", "--interactive",
                   stdin=stdin)
        assert out.returncode == 2, stdin
        assert len(out.stderr.splitlines()) == 1, out.stderr
        assert "no step chosen" in out.stderr
        assert "Traceback" not in out.stderr


@pytest.mark.parametrize("text, argv, error", [
    ("def B = x&{a: close x, b: 0, a: close x}\n", (), "'a' at 1:30"),
    ("def B [x: +{a: 1, a: 1}] = x#a. close x\n", (), "'a' at 1:19"),
    ("def B = x#a. close x\n", ("--ctx", "x: +{a: 1, b: &{c: 1, c: 1}}"),
     "'c' at 1:23"),
])
def test_repeated_label_exits_2_at_the_label(tmp_path, text, argv, error):
    src = tmp_path / "dup.spi"
    src.write_text(text)
    out = _cli("check", str(src), *argv)
    assert out.returncode == 2
    assert out.stderr == f"parse error: duplicate label {error}\n"


@pytest.mark.parametrize("cmd", ["translate", "correspond"])
def test_mismatched_arity_translation_exits_1(tmp_path, cmd):
    src = tmp_path / "arity.lc"
    src.write_text("def H = y {| <OK> / x1, x2 |}\n")
    out = _cli(cmd, str(src), "H")
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    assert out.stderr.splitlines() == [
        "ArityMismatch: linear substitution with mismatched arity has no "
        "translation"]


@pytest.mark.parametrize("cmd", ["translate", "correspond"])
@pytest.mark.parametrize("name", ["A7_7", "A8_8"])
def test_oversized_translation_exits_3_quickly(tmp_path, cmd, name):
    """The 7- and 8-alias fetches of the benchmark's lambda family would
    build 35,287 and 322,568 sum branches: the bound on the translation's
    size is checked before anything is built."""
    import time
    from tests.conftest import perfbench_workloads
    src = tmp_path / "family.lc"
    src.write_text(perfbench_workloads().lambda_script())
    start = time.perf_counter()
    out = _cli(cmd, str(src), name)
    assert time.perf_counter() - start < 10
    assert out.returncode == 3
    assert "Traceback" not in out.stderr
    assert len(out.stderr.splitlines()) == 1
    assert "over the bound of 1000" in out.stderr


def test_cyclic_intersection_type_exits_1(tmp_path):
    """Checking corr.lc's T05 binds a metavariable to an arrow that holds
    it; the occurs check reports a type error instead of recursing."""
    with open(corpus_path("corr.lc"), encoding="utf-8") as fh:
        defs = [ln for ln in fh if ln.startswith(("def I ", "def T05 "))]
    src = tmp_path / "self.lc"
    src.write_text("".join(defs) + "wf T05 [] : unit\n")
    out = _cli("check", str(src))
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    assert out.stdout.splitlines() == [
        "wf T05: TypeMismatch: cyclic type: '1 occurs in ('1 ^ 1, '2) -> "
        "'1 at application"]


def test_deep_input_exits_2_without_traceback(tmp_path):
    deep = tmp_path / "deep.spi"
    deep.write_text("def D = " + "x#a. " * (MAX_NESTING + 1) + "0\n")
    out = _cli("check", str(deep))
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert len(out.stderr.strip().splitlines()) == 1


def test_deep_well_typed_input_checks_and_prints(tmp_path):
    deep = tmp_path / "deep.spi"
    deep.write_text("def D = " + "x#a. " * 400 + "0\n")
    out = _cli("check", str(deep))
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("D: ok |- x: +{a: +{a: ")
    assert out.stdout.count("+{a: ") == 400


def test_nested_strict_types_check_quickly(tmp_path):
    """A judgment whose types sit in 40 parentheses, in Γ and as the
    conclusion, checks in well under the time exponential backtracking
    would take."""
    import time
    nest = "(" * 40 + "(unit^1, unit) -> unit" + ")" * 40
    lc = tmp_path / "nested.lc"
    lc.write_text("def I = \\x. x1 [x1 <- x]\n"
                  "def A = y <I>\n"
                  f"wt I [] : {nest}\n"
                  f"wt A [ y: {nest} ] : unit\n"
                  f"wt A [ y: {nest} ^ 1 ] : unit\n")
    start = time.perf_counter()
    out = _cli("check", str(lc))
    assert time.perf_counter() - start < 2
    assert out.returncode in (0, 1), out.stderr
    assert "Traceback" not in out.stderr


def test_negative_bound_exits_2():
    out = _cli("run", corpus_path("movie.spi"), "Composition", "--bound", "-3")
    assert out.returncode == 2
    assert "bound exhausted" not in out.stdout


def test_invalid_max_states_exits_2():
    for value in ("abc", "0", "-5"):
        out = _cli("run", corpus_path("movie.spi"), "Composition",
                   env={"EAGERPI_MAX_STATES": value})
        assert out.returncode == 2, value
        assert "EAGERPI_MAX_STATES" in out.stderr
        assert "Traceback" not in out.stderr
    out = _cli("run", corpus_path("movie.spi"), "Composition",
               env={"EAGERPI_MAX_STATES": "50"})
    assert out.returncode == 0


def test_correspond_undecided_exits_3():
    # the bound, or the state cap, runs out before T03's correspondence is
    # decided: nothing failed, so the result is inconclusive, not FAIL
    out = _cli("correspond", corpus_path("corr.lc"), "T03", "--bound", "2")
    assert out.returncode == 3
    assert "FAIL" not in out.stdout and "DISAGREE" not in out.stdout
    out = _cli("correspond", corpus_path("corr.lc"), "T03",
               env={"EAGERPI_MAX_STATES": "10"})
    assert out.returncode == 3
    assert "FAIL" not in out.stdout and "DISAGREE" not in out.stdout
    out = _cli("correspond", corpus_path("corr.lc"), "T03")
    assert out.returncode == 0


def test_correspond_cut_success_search_is_inconclusive(capsys):
    code, out = run(capsys, "correspond", corpus_path("corr.lc"), "T01",
                    "--bound", "2")
    assert code == 3
    assert "success-sensitivity: inconclusive" in out


def test_run_names_the_state_cap():
    out = _cli("run", corpus_path("movie.spi"), "Full",
               env={"EAGERPI_MAX_STATES": "2"})
    assert out.returncode == 0
    assert out.stdout.splitlines()[-1] == "-- state cap reached"
    out = _cli("run", corpus_path("movie.spi"), "Full", "--json",
               env={"EAGERPI_MAX_STATES": "2"})
    assert json.loads(out.stdout.splitlines()[-1]) == \
        {"warning": "state cap reached"}
    out = _cli("run", corpus_path("ex32.lc"), "M",
               env={"EAGERPI_MAX_STATES": "2"})
    assert out.stdout.splitlines()[-1] == "-- state cap reached"
    out = _cli("run", corpus_path("movie.spi"), "Full", "--bound", "2")
    assert out.stdout.splitlines()[-1] == "-- bound exhausted"


def test_complete_graph_at_the_bound_is_not_cut(capsys):
    # G028 reaches 0 in one step, and its other step's target steps back
    # into the graph: at bound 1 the graph is complete
    code, out = run(capsys, "run", corpus_path("generated.spi"), "G028",
                    "--bound", "1")
    assert code == 0 and out.strip() == "0"
    code, out = run(capsys, "bisim", corpus_path("generated.spi"), "G028",
                    "G028", "--depth", "1")
    assert code == 0 and out.strip() == "bisimilar"


@pytest.mark.parametrize("text", SPURIOUS_CUTS)
def test_run_is_not_cut_where_the_full_graph_is_complete(capsys, tmp_path,
                                                         text):
    # the reduced graph is cut at bound 4, the full one is complete there
    f = tmp_path / "p.spi"
    f.write_text(f"def P = {text}\n")
    p = parse_spi(f"def P = {text}").defs["P"][0]
    normal = {process_text(n.state, canonical=True)
              for n in full_trace(p, 4).leaves()}
    code, out = run(capsys, "run", str(f), "P", "--bound", "4")
    lines = out.splitlines()
    assert code == 0 and normal and set(lines) == normal
    code, out = run(capsys, "run", str(f), "P", "--bound", "4", "--json")
    assert code == 0
    assert [json.loads(line) for line in out.splitlines()] == \
        [{"normal": t} for t in lines]


def test_type_errors_print_alike_in_every_run(tmp_path):
    """A type error numbers its metavariables by first appearance in the
    message, so two runs print the same output, and distinct metavariables
    print differently."""
    f = tmp_path / "metas.spi"
    f.write_text("def N = new y (close y | new z (close z | 0))\n"
                 "def M = new y (y?(a). [a<->u] | y?(b). [b<->v])\n")
    runs = [_cli("check", str(f), env={"PYTHONHASHSEED": seed})
            for seed in ("0", "1")]
    assert runs[0].returncode == runs[1].returncode == 1
    # check prints each definition's verdict, errors included, on stdout
    assert (runs[0].stdout, runs[0].stderr) == (runs[1].stdout,
                                                runs[1].stderr)
    assert "N: TypeMismatch: expected 1, found !'1 at cut on z" \
        in runs[0].stdout
    assert "M: TypeMismatch: expected '1 @ ?'2, found '3 * !'4 at cut on y" \
        in runs[0].stdout


def test_records_of_a_goal_cut_graph():
    """A search that stops at a goal state has not yet listed the edge to
    it; its record still names the node and step that found it."""
    from eagerpi.cli import _records
    from eagerpi.equivalence import _graph, has_unguarded_success
    from eagerpi.names import NameSupply
    from eagerpi.process import Close, Restrict, Success, Wait
    x = NameSupply(1).fresh("x")
    g = _graph(Restrict(x, Close(x), Wait(x, Success())), 8, 100,
               goal=has_unguarded_success)
    recs = list(_records(g))
    assert [(r["node"], r["parent"]) for r in recs] == [(0, None), (1, 0)]
    assert recs[1]["rule"] and recs[1]["term"] == "OK"


# The calculus of the commands that take one only, and each command's
# arguments after its file, with a name that no script defines.
TAKES = {"translate": "lc", "correspond": "lc", "bisim": "spi"}
ARGS = {"check": ("--name", "Nope"), "step": ("Nope",), "run": ("Nope",),
        "translate": ("Nope",), "bisim": ("Nope", "Nope"),
        "correspond": ("Nope",)}
SCRIPT = {"spi": "vm.spi", "lc": "corr.lc"}
# each option that a .lc script cannot use, on a command line that has it
SPI_ONLY = {"--ctx": ("check", "--ctx", "x: 1"),
            "--seed": ("step", "T01", "--seed", "1"),
            "--interactive": ("step", "T01", "--interactive")}


def hostile_inputs(tmp):
    """Command lines that must each exit 2 with one line on stderr: every
    command on a directory, on a file that is not UTF-8 and on a missing
    file, each of a calculus it takes; translate, correspond and bisim on
    a script of the other calculus; every command on a name that its
    script does not define; and the options of `SPI_ONLY` on a .lc
    script. The unreadable inputs are made in `tmp`."""
    cases = []
    for ext in ("spi", "lc"):
        os.mkdir(os.path.join(tmp, f"dir.{ext}"))
        with open(os.path.join(tmp, f"latin1.{ext}"), "wb") as fh:
            fh.write("def D = close café\n".encode("latin-1"))
    for cmd, rest in ARGS.items():
        for ext in [TAKES[cmd]] if cmd in TAKES else ["spi", "lc"]:
            for file in ("dir", "latin1", "missing"):
                cases.append([cmd, os.path.join(tmp, f"{file}.{ext}"), *rest])
            cases.append([cmd, corpus_path(SCRIPT[ext]), *rest])
    for cmd, ext in TAKES.items():
        other = SCRIPT["lc" if ext == "spi" else "spi"]
        cases.append([cmd, corpus_path(other), *ARGS[cmd]])
    for cmd, *rest in SPI_ONLY.values():
        cases.append([cmd, corpus_path(SCRIPT["lc"]), *rest])
    return cases


def test_hostile_input_exits_2_with_one_line(capsys, tmp_path):
    failures = []
    for argv in hostile_inputs(str(tmp_path)):
        code = main(argv)
        err = capsys.readouterr().err
        if code != 2 or len(err.splitlines()) != 1:
            failures.append((argv, code, err))
    assert failures == []


def test_wrong_calculus_names_the_expected_one(capsys):
    for cmd, file, ext in (("bisim", "corr.lc", "spi"),
                           ("translate", "vm.spi", "lc"),
                           ("correspond", "vm.spi", "lc")):
        assert main([cmd, corpus_path(file), *ARGS[cmd]]) == 2
        assert capsys.readouterr().err == f"{cmd} expects a .{ext} file\n"


def test_lc_refusals_name_the_option_or_file(capsys, tmp_path):
    for opt, (cmd, *rest) in SPI_ONLY.items():
        assert main([cmd, corpus_path("corr.lc"), *rest]) == 2
        assert capsys.readouterr().err == f"{cmd} {opt} needs a .spi file\n"
    path = tmp_path / "latin1.spi"
    path.write_bytes("def D = close café\n".encode("latin-1"))
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"{path}: ")
    assert main(["step", corpus_path("corr.lc"), "T01", "--all"]) == 0
    with pytest.raises(SystemExit) as exit_:
        main(["translate", corpus_path("ex32.lc"), "M0", "--seed", "1"])
    assert exit_.value.code == 2


@pytest.mark.parametrize("name, text, out", [
    # a 1,000-deep ascription, and a cut of two 998-deep threads: each
    # binding of a metavariable once walked and copied the rest of the type
    ("D", "def D [x: {}] = {}close x\n".format(
        "+{a: " * 1000 + "1" + "}" * 1000, "x#a. " * 1000),
     "D: ok |- x: " + "+{a: " * 1000 + "1" + "}" * 1000),
    ("C", "def C = new x ({}close x | {}wait x. 0{})\n".format(
        "x#a. " * 998, "x&{a: " * 998, "}" * 998),
     "C: ok |- empty"),
], ids=["ascription", "cut"])
def test_deep_session_types_check_in_linear_time(tmp_path, name, text, out):
    import time
    src = tmp_path / "deep.spi"
    src.write_text(text)
    start = time.perf_counter()
    run = _cli("check", str(src))
    assert time.perf_counter() - start < 2
    assert run.returncode == 0, run.stderr
    assert run.stdout == out + "\n"
