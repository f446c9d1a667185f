"""The benchmark harness: its child-process round trip and the shared DAP round.

The runner cases drive a tiny child script through :func:`harness.run_child`:
a report, a crash, a hang and an allocation past the address-space cap.  The
round cases pin :func:`harness.dap_round`'s row keys to the committed
``BENCH_*.json`` rows, so the payloads keep their shape.
"""

from __future__ import annotations

import json
import os
import subprocess
import textwrap

import pytest

import harness

CHILD = textwrap.dedent(
    """
    import argparse
    import sys
    import time

    sys.path.insert(0, {harness_dir!r})
    import harness

    def measure(mode):
        if mode == "crash":
            print("some progress", file=sys.stderr)
            raise SystemExit("child failed: bad input")
        if mode == "hang":
            time.sleep(60)
        if mode == "hog":
            bytearray(4 << 30)
        return {{"mode": mode, "ok": True, "value": 42}}

    parser = argparse.ArgumentParser()
    harness.add_child_options(parser, "unused.json", nargs=1, metavar=("MODE",))
    args = parser.parse_args()
    raise SystemExit(
        harness.child_main(lambda: measure(args.single[0]), args.mem_limit_gb)
    )
    """
)


@pytest.fixture(scope="module")
def child_script(tmp_path_factory):
    path = tmp_path_factory.mktemp("harness") / "child.py"
    harness_dir = os.path.dirname(os.path.abspath(harness.__file__))
    path.write_text(CHILD.format(harness_dir=harness_dir))
    return str(path)


def run(script, mode, mem_limit_gb=0.0, timeout_s=30.0):
    command = harness.child_command(script, (mode,), mem_limit_gb)
    return harness.run_child(command, {"mode": mode}, timeout_s)


def test_runner_returns_the_child_report(child_script):
    assert run(child_script, "echo", mem_limit_gb=1.0) == {
        "mode": "echo",
        "ok": True,
        "value": 42,
    }


def test_nonzero_exit_reports_the_last_stderr_line(child_script):
    report = run(child_script, "crash")
    assert report["ok"] is False
    assert report["mode"] == "crash"
    assert report["error"] == "child failed: bad input"
    assert report["wall_time_s"] >= 0


def test_timeout_reports_an_error_row(child_script):
    report = run(child_script, "hang", timeout_s=0.5)
    assert report == {"mode": "hang", "ok": False, "error": "timed out after 0.5s"}


def test_allocation_past_the_cap_exits_with_the_memory_error_status(child_script):
    command = harness.child_command(child_script, ("hog",), 1.0)
    child = subprocess.run(command, capture_output=True, text=True, timeout=30)
    assert child.returncode == harness.MEMORY_ERROR_EXIT == 3
    report = harness.run_child(command, {"mode": "hog"}, 30.0)
    assert report["ok"] is False
    assert report["error"] == "MemoryError: exceeded the address-space cap"


def _committed_rows(name):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, name)) as handle:
        return json.load(handle)["results"]


@pytest.mark.parametrize(
    "artifact, mode, backend",
    [
        ("BENCH_scale.json", "in-memory", None),
        ("BENCH_scale.json", "streaming", None),
        ("BENCH_shard.json", "sharded-2", None),
        ("BENCH_backend.json", "collect", "fast"),
        ("BENCH_backend.json", "full", "numpy"),
    ],
)
def test_dap_round_rows_keep_the_committed_keys(artifact, mode, backend):
    committed = next(
        row
        for row in _committed_rows(artifact)
        if row["mode"] == mode and row.get("backend") == backend
    )
    assert list(harness.dap_round(mode, 5_000, backend)) == list(committed)


def test_dap_round_sharded_estimate_is_the_same_through_every_entry_point():
    estimates = {
        harness.dap_round("sharded-1", 5_000)["estimate"],
        harness.dap_round("sharded-2", 5_000)["estimate"],
        harness.dap_round("full", 5_000, "numpy")["estimate"],
    }
    assert len(estimates) == 1
