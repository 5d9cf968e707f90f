"""Smoke test of the benchmark: every workload, untraced and traced.

    python3 -m pytest -q bench/test_run.py

Each run must print, on its last line, exactly the metrics BENCHMARK.json
names for its mode, each with its declared unit, and every operation it
attempted must have been checked or have raised.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

KINDS = {
    "census-cubic": {"census"},
    "shapes": {"padic_shape"},
    "flagship-psl32": {
        "branch_locus", "bad_primes", "verify", "verify_id", "census", "identify", "run_search",
    },
}


def smoke(workload: str, trace: int):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    *_, detail, last = out.stdout.strip().splitlines()
    return json.loads(detail), json.loads(last)


def test_workloads_are_declared():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(KINDS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(KINDS))
def test_smoke_run_prints_every_metric_and_checks_every_output(workload, trace):
    detail, result = smoke(workload, trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1

    declared = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    for m in declared:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]

    kinds = detail["kinds"]
    assert set(kinds) == KINDS[workload]
    assert sum(k["attempted"] for k in kinds.values()) == result["attempted"]
    for name, k in kinds.items():
        assert k["checked"] + k["raised"] == k["attempted"], name
        assert 0 <= k["known_defect"] <= k["failed"], name
    # failed counts what the known defects do not explain
    assert result["failed"] == sum(k["failed"] - k["known_defect"] for k in kinds.values())
    assert sum(k["checked"] for k in kinds.values()) >= 1
    assert detail["stamp"]["nproc"] >= 1


def test_known_defects_are_recognised_narrowly():
    """Only the two known psl32 defects are told apart from other failures."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    try:
        import workloads
    finally:
        del sys.path[:2]
    fibre = ValueError("t0 = -45 meets a non-rational branch point at p = 19; "
                       "no inertia generator is declared for it")
    assert workloads._non_rational_fibre(fibre)
    assert not workloads._non_rational_fibre(ValueError("t0 = 3 is an undeclared branch point"))
    assert not workloads._non_rational_fibre(KeyError("meets a non-rational branch point"))

    rejected = workloads._check_identify({"verdict": "REJECT", "alien": []})
    assert (rejected.ok, rejected.wrong, rejected.known) == (False, False, True)
    alien = workloads._check_identify({"verdict": "REJECT", "alien": ["(7)(1)"]})
    assert (alien.ok, alien.wrong, alien.known) == (False, True, False)
    accepted = workloads._check_identify({"verdict": "ACCEPT", "alien": []})
    assert (accepted.ok, accepted.known) == (True, False)


def test_fails_without_sources():
    """Given only BENCHMARK.json and bench/, the benchmark refuses and prints
    no result."""
    bare = ROOT / "bench" / "out" / "bare"
    (bare / "bench").mkdir(parents=True, exist_ok=True)
    (bare / "BENCHMARK.json").write_text(json.dumps(SPEC))
    for src in (ROOT / "bench").glob("*.py"):
        (bare / "bench" / src.name).write_text(src.read_text())
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "shapes", "--seed", "0",
           "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_thin_p90_tail_refuses():
    """A full-size run too short to put 10 operations beyond op_p90_ms exits
    with an error and prints no result."""
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "shapes", "--seed", "0",
           "--seconds", "0.01", "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert "op_p90_ms" in out.stderr
    assert '"metrics"' not in out.stdout
