"""Self-tests of the benchmark: `python3 -m pytest perfbench` from the
repository root."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads as W  # noqa: E402
from eagerpi.process import canonicalize, term_key  # noqa: E402


@pytest.mark.parametrize("build", [W.lambda_, W.bisim, W.spi_corpus])
def test_same_seed_same_inputs(build):
    first, again, other = build(7), build(7), build(8)
    assert first.inputs_digest == again.inputs_digest
    assert [c.id for c in first.checks] == [c.id for c in again.checks]
    assert first.inputs_digest != other.inputs_digest


def test_known_answers_cover_every_check():
    known = W.load_known_answers()
    used = set()
    for name in W.WORKLOADS:
        for seed in (1, 2):
            ids = [c.id for c in W.build(name, seed).checks]
            assert len(ids) == len(set(ids))
            assert set(ids) <= set(known), set(ids) - set(known)
            used |= set(ids)
    assert used == set(known)


def test_shuffled_processes_are_congruent():
    import random
    rng = random.Random(3)
    generated = W.parse_spi(W._read("generated.spi"))
    for name in generated.order[:30]:
        p = generated.defs[name][0]
        q = W.shuffle_process(p, rng)
        assert term_key(canonicalize(p)) == term_key(canonicalize(q))


def _child(*args, hash_seed=0):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                         cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=170)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_workload_runs_at_tiny_size(name):
    common = ["--workload", name, "--seed", "1", "--limit", "3"]
    plain = _child(*common, "--mode", "run", "--min-passes", "2")
    assert plain["failed"] == []
    assert len(plain["latencies"]) == 6
    assert len(set(plain["digests"])) == 1
    traced = _child(*common, "--mode", "trace", "--passes", "1",
                    hash_seed=1)
    assert traced["failed"] == [] and traced["restored"]
    assert traced["digests"][0] == plain["digests"][0]
    assert traced["layers"]["passes"] == 1
