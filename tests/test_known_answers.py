"""One full pass of the `lambda` and `correspond` benchmark workloads
(`perfbench/workloads.py`), every verdict compared with
`perfbench/known_answers.json`.

The benchmark's own self-test runs three checks per workload; this one
runs all of them, so a change to state identity (`lam_key`, `term_key`)
or to exploration that drifts any verdict fails tier-1.
"""

import pytest

from tests.conftest import perfbench_workloads


@pytest.mark.parametrize("name", ["lambda", "correspond"])
def test_every_verdict_matches_known_answers(name):
    workloads = perfbench_workloads()
    known = workloads.load_known_answers()
    checks = workloads.build(name, 1).checks
    assert checks
    wrong = {}
    for check in checks:
        verdict, _ = check.run()
        if verdict != known.get(check.id):
            wrong[check.id] = (verdict, known.get(check.id))
    assert not wrong
