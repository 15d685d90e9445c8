"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import loadgen  # noqa: E402
import simload  # noqa: E402
from spamfriction import sim, smtp  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_short_run_reports_every_metric_with_its_unit(workload, trace):
    proc, result = _run("--workload", workload, "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        for m in BENCH["end_to_end"]:
            assert f"untraced {m['name']} = " in proc.stdout


def test_a_lost_delivery_fails_the_run():
    proc, result = _run("--workload", "ham-small", "--inject-fault", "drop-delivery")
    assert proc.returncode == 1
    assert result["correct"] is False
    assert "appears 0 times in the sink" in proc.stdout


def test_without_the_program_sources_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = _run("--workload", "ham-small", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None


def test_keepawake_exits_when_its_stdin_closes():
    cpu = min(os.sched_getaffinity(0))
    proc = subprocess.Popen([sys.executable, str(HERE / "keepawake.py"), str(cpu)], stdin=subprocess.PIPE)
    proc.stdin.close()
    try:
        assert proc.wait(timeout=10) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def _sent(record_id: str, body: bytes, kind="ham", codes=(250, 250, 250, 250, 250, 354, 250, 221)):
    return loadgen.Sent("7-0-0", kind, 0.0, 1.0, "delivered", record_id, list(codes), body)


def test_mail_checks_catch_a_changed_byte_and_a_missing_puzzle(tmp_path):
    body = b"Subject: lunch\nX-Bench-Seq: 7-0-0\n\n.. dotted\nplain\n"
    sink = smtp.MailboxSink(tmp_path)
    sink.deliver("sender0@example.org", ["rcpt0@example.net"], body.replace(b"\n", b"\r\n"), "id-1", 0.0)
    assert loadgen.check_mail([_sent("id-1", body)], str(tmp_path)) == []
    assert loadgen.check_mail([_sent("id-1", body.replace(b"plain", b"plane"))], str(tmp_path)) == [
        "message 7-0-0 body did not round-trip byte for byte"
    ]
    assert loadgen.check_mail([_sent("id-1", body, kind="spam")], str(tmp_path)) == [
        "spam message 7-0-0 was not sent 211 before its 250"
    ]


def test_sim_checks_catch_broken_accounting_and_a_wrong_cost_ratio():
    configs = simload.scenarios(sim, 7)
    reports = {name: sim.run(config) for name, config in configs.items()}
    for name, report in reports.items():
        assert simload.check_report(name, report) == []
    broken = reports["overflow"]
    broken.cohorts[0].delivered = broken.cohorts[0].attempted + 1
    assert "overflow/ham: delivered > attempted" in simload.check_report("overflow", broken)
    skewed = reports["paper-20"]
    skewed.cohort("users").work_seconds *= 2
    assert any("simulated cost ratio" in p for p in simload.check_report("paper-20", skewed))
