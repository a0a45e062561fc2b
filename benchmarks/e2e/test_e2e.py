"""Checks of the benchmark itself; run explicitly (``testpaths`` keeps it out of tier-1):

    python -m pytest benchmarks/e2e/test_e2e.py -q
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def tagged_processes(tag: str) -> list:
    """PIDs of live ``serve.py`` processes spawned by the run with this tag."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                arguments = handle.read().split(b"\0")
        except OSError:
            continue
        if tag.encode() in arguments:
            found.append(int(entry))
    return found


def port_open(port: int) -> bool:
    with socket.socket() as probe:
        probe.settimeout(1.0)
        return probe.connect_ex(("127.0.0.1", port)) == 0


def test_smoke_run_emits_the_declared_metrics_and_cleans_up(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    out = tmp_path / "smoke.json"
    process = subprocess.Popen(
        RUN + ["--smoke", "--out", str(out)], stdout=subprocess.PIPE, text=True
    )
    stdout, _ = process.communicate(timeout=300)
    assert process.returncode == 0, stdout
    assert json.loads(stdout.strip().splitlines()[-1])["claim"] is None

    names = {
        kind: [metric["name"] for metric in spec[kind]] for kind in ("end_to_end", "per_layer")
    }
    workloads = [workload["name"] for workload in spec["workloads"]]
    assert len(workloads) <= 8 and len(names["end_to_end"]) <= 16 and len(names["per_layer"]) <= 128
    every = workloads + names["end_to_end"] + names["per_layer"]
    assert len(set(every)) == len(every)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in every)

    report = json.loads(out.read_text())
    assert report["correct"] and report["claim"] is None
    (run,) = report["runs"]
    assert list(run) == workloads
    for result in run.values():
        assert result["attempted"] >= 1 and result["failed"] == 0
        for kind, declared in names.items():
            assert sorted(result[kind]) == sorted(declared)
        assert all(value > 0 for value in result["end_to_end"].values())
        assert not any(port_open(port) for port in result["ports"])
    assert tagged_processes(f"e2e-{process.pid}") == []


def test_interrupted_run_leaves_no_server_behind():
    process = subprocess.Popen(RUN + ["--smoke"], stdout=subprocess.DEVNULL)
    tag = f"e2e-{process.pid}"
    try:
        deadline = time.monotonic() + 60
        while not tagged_processes(tag):
            assert time.monotonic() < deadline, "no server was ever spawned"
            time.sleep(0.1)
        process.send_signal(signal.SIGINT)
        assert process.wait(timeout=60) != 0
    finally:
        process.kill()
        process.wait()
    deadline = time.monotonic() + 30
    while tagged_processes(tag) and time.monotonic() < deadline:
        time.sleep(0.2)
    assert tagged_processes(tag) == []
