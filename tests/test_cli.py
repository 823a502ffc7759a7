"""Command surface and exit codes."""

import json

from eagerpi.cli import main
from eagerpi.parser import MAX_NESTING
from tests.conftest import corpus_path


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


def _cli(*argv, env=None):
    """Run the CLI in a fresh interpreter, as a shell user would."""
    import os
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src, **(env or {}))
    return subprocess.run([sys.executable, "-m", "eagerpi.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)


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
