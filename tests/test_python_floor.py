"""Every module of ``src/detsize`` parses as the oldest Python that
``pyproject.toml`` admits (``requires-python``), CI runs the ROADMAP's
tier-1 command under that Python, and CI runs every workload of the benchmark,
under that Python too, and pins the digest of the reports of each workload
that writes them."""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "detsize").glob("*.py"))


def _floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_floor_is_declared():
    assert _floor() == (3, 10)


def test_check_rejects_newer_syntax():
    # except* came in 3.11, so the 3.10 grammar refuses it
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=_floor())


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_at_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=_floor())


def _ci_jobs() -> dict:
    yaml = pytest.importorskip("yaml")
    return yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8"))["jobs"]


def test_ci_runs_tier1_at_floor():
    job = _ci_jobs()["tier1"]
    assert "{}.{}".format(*_floor()) in job["strategy"]["matrix"]["python-version"]
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    command = re.search(r"\*\*Tier-1 verify:\*\* `([^`]*)`", roadmap).group(1)
    assert job["steps"][-1]["run"] == command


def test_ci_runs_benchmark_at_floor():
    job = _ci_jobs()["bench-smoke"]
    assert "{}.{}".format(*_floor()) in job["strategy"]["matrix"]["python-version"]
    setup = next(step for step in job["steps"] if step.get("uses", "").startswith("actions/setup-python"))
    assert setup["with"]["python-version"] == "${{ matrix.python-version }}"


def test_ci_runs_every_benchmark_workload():
    steps = _ci_jobs()["bench-smoke"]["steps"]
    run = "\n".join(step["run"] for step in steps if "run" in step)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    missing = [w["name"] for w in benchmark["workloads"] if not re.search(rf"\b{w['name']}\b", run)]
    assert missing == []


# sha256 over a workload's report texts, as bench/run.py prints it; the same for every seed
REPORT_DIGESTS = {
    "forecast": "acc1ff323bf46e451964a4bb222b756af25cb075768b8ba9c2ff4bf193944dfb",
    "corpus": "04222c6b66cba35a0e0afa8c376789b0247dbbd0fdfa038c1f2276112ac2722c",
}


def test_ci_pins_report_digests():
    steps = _ci_jobs()["bench-smoke"]["steps"]
    lines = "\n".join(step["run"] for step in steps if "run" in step).splitlines()
    for workload, digest in REPORT_DIGESTS.items():
        pins = [line for line in lines if f"reports_sha256={digest}" in line]
        assert len(pins) == 1 and re.search(rf"\b{workload}\b", pins[0]), workload
