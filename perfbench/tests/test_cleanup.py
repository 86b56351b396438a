"""A run leaves no server process and no temporary directory behind,
whether it ends normally or is terminated mid-run."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py"),
       "--workload", "serve_adhoc", "--seed", "11", "--trace", "0"]


def _children(pid: int) -> set[int]:
    found = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.add(int(stat.parent.name))
    return found


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def _scratch_entries() -> set[str]:
    base = ROOT / ".perfbench_tmp"
    return {p.name for p in base.iterdir()} if base.is_dir() else set()


def _run_watching_children(extra_args, stop_after_child: bool):
    before = _scratch_entries()
    proc = subprocess.Popen(RUN + extra_args, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    seen: set[int] = set()
    deadline = time.monotonic() + 170
    try:
        while proc.poll() is None and time.monotonic() < deadline:
            seen |= _children(proc.pid)
            if stop_after_child and seen:
                time.sleep(0.5)
                proc.send_signal(signal.SIGTERM)
                break
            time.sleep(0.02)
        out, err = proc.communicate(timeout=170)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out, err, seen, before


def test_normal_run_reaps_server_and_scratch():
    rc, out, err, seen, before = _run_watching_children(["--seconds", "1"], False)
    assert rc == 0, err
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert seen, "the run started no server child"
    assert not [pid for pid in seen if _alive(pid)]
    assert _scratch_entries() <= before


def test_terminated_run_reaps_server_and_scratch():
    rc, out, err, seen, before = _run_watching_children(["--seconds", "30"], True)
    assert rc != 0
    assert seen
    deadline = time.monotonic() + 40
    while [pid for pid in seen if _alive(pid)] and time.monotonic() < deadline:
        time.sleep(0.1)
    assert not [pid for pid in seen if _alive(pid)]
    assert _scratch_entries() <= before
    assert not out.strip() or not out.strip().splitlines()[-1].startswith("{")


def test_missing_program_source_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper_inproc",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170, env=env)
    assert done.returncode != 0
    assert not done.stdout.strip()
