"""The library paths of the benchmark's worker (``perfbench/worker.py``): its
set-up of every workload exits 0, and one dense-ladder operation of each
kind, made through library calls, prints the bytes that the ``weylzip``
command line prints for it.  Nothing under ``perfbench/`` is written."""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _workloads():
    """perfbench/workloads.py, imported without writing its bytecode."""
    sys.path.insert(0, str(PERFBENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))
    return workloads


def test_worker_setups_and_ops_match_the_cli():
    workloads = _workloads()
    ops = {}  # the first op of each kind, seed 1
    for op in workloads.ladder_ops("dense-ladder", 1):
        ops.setdefault((op["cmd"], op.get("format")), op)
    assert len(ops) == 6, sorted(ops)
    worker = str(PERFBENCH / "worker.py")
    runs = [([worker, "setup", "--workload", name], None) for name in workloads.WORKLOADS]
    for op in ops.values():
        argv, stdin = workloads.cli_args(op)
        runs += [([worker, "op"], json.dumps(op)), (["-m", "weylzip.cli", *argv], stdin)]
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""),
               PYTHONDONTWRITEBYTECODE="1")

    def run(argv, stdin):
        return subprocess.run([sys.executable, *argv], input=stdin, cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)

    with ThreadPoolExecutor(max_workers=2) as pool:
        done = list(pool.map(lambda args: run(*args), runs))
    for args, proc in zip(runs, done):
        assert proc.returncode == 0, (args, proc.stderr[-2000:])
    n = len(workloads.WORKLOADS)
    for op, traced, cli in zip(ops.values(), done[n::2], done[n + 1::2]):
        assert json.loads(traced.stdout)["output"] == cli.stdout, op
