"""Benchmark of weylzip: pieces, posets, closures and classification.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; weylzip is imported from ./src.
Workloads (closed loop, one program process at a time):

  dense-ladder     pieces/poset/closure/isogeny/nonconnected, |W| <= 10^4
  large-ladder     D6 pieces and poset (no dense Bruhat table)
  classify-stream  canonical_rep + sigma on E8 and E7, no whole-group table

With --trace 0 the run times `weylzip` CLI processes (ladders) or a fresh
worker's query loop (classify-stream) and reports the end-to-end metrics;
with --trace 1 a traced worker makes the same library calls and the run
reports per-layer metrics.  Every output is checked after the timed
passes.  The last line of standard output is one JSON object.  Result and
trace files go to ./.perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from worker import CALIBRATION_REF_S, calibration_s  # noqa: E402
from workloads import WORKLOADS, classify_plan, cli_args, ladder_ops  # noqa: E402

SETUP_REPEATS = 11
STARTUP_REPEATS = 3
#: A run must end within 180 s; no child may run past this many seconds
#: after the run started.
RUN_DEADLINE_S = 170.0
#: A sliced child runs this long between two calibrations.
SLICE_S = 0.5

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "cli.startup_s": "s",
    "coxeter.build_group_s": "s",
    "coxeter.parabolic_elements_s": "s",
    "coxeter.elements_s": "s",
    "coxeter.bruhat_table_s": "s",
    "coxeter.bruhat_table_rss_mb": "MB",
    "cosets.param_set_s": "s",
    "cosets.howlett_s": "s",
    "zipdata.sigma_s": "s",
    "zipdata.stable_subset_s": "s",
    "zipdata.pieces_s": "s",
    "zipdata.hasse_poset_s": "s",
    "zipdata.closure_set_s": "s",
    "zipdata.canonical_rep_ms": "ms",
    "zipdata.sigma_query_ms": "ms",
    "extended.pieces_s": "s",
    "extended.closure_set_s": "s",
    "isogeny.frobenius_report_s": "s",
    "serialize.datum_s": "s",
    "serialize.poset_json_s": "s",
    "serialize.poset_dot_s": "s",
    "serialize.rows_s": "s",
    "trace.pass_s": "s",
    "op.pieces_s": "s",
    "op.poset_s": "s",
    "op.closure_s": "s",
    "op.classify_per_s": "queries/s",
    "coxeter.elements_enumerated": "count",
    "zipdata.params": "count",
    "zipdata.cover_edges": "count",
    "zipdata.closure_size": "count",
    "zipdata.queries": "count",
    "serialize.output_bytes": "count",
}


#: The traced worker's wall time per kind of operation, summed over a pass.
OP_METRIC = {"pieces": "op.pieces_s", "poset": "op.poset_s", "isogeny": "op.poset_s",
             "closure": "op.closure_s", "nonconnected": "op.closure_s"}


class Child(NamedTuple):
    wall: float    # seconds at the reference speed
    rss_mb: float
    rc: int
    out: str
    err: str
    speed: float   # rescales a time taken during the child to the reference speed


class Runner:
    """Starts one child at a time in the checkout and reads its own
    rusage, so peak RSS is per process.  The child's wall time is rescaled
    to the reference speed by calibrations timed in this process: before
    the child starts, after it ends and, for a sliced child, every SLICE_S
    seconds, while the child is stopped.  Each running stretch of the child
    is rescaled by the two calibrations around it."""

    def __init__(self, root: Path, started: float):
        self.root = root
        self.started = started
        self.out_dir = root / ".perfbench"
        self.out_dir.mkdir(exist_ok=True)
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""),
                        PYTHONHASHSEED="0")

    def run(self, argv: list[str], stdin_text: str | None = None, sliced: bool = True) -> Child:
        """Run one child to its end.  A worker that times itself is not
        sliced: a stop inside one of its spans would count in the span."""
        timeout = RUN_DEADLINE_S - (time.monotonic() - self.started)
        if timeout <= 0:
            return Child(0.0, 0.0, -1, "", "run deadline reached before start", 1.0)
        out_path, err_path = self.out_dir / "child.out", self.out_dir / "child.err"
        calibrations, stretches = [calibration_s()], []
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=self.root, env=self.env,
                stdin=subprocess.PIPE, stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                try:
                    if stdin_text is not None:
                        proc.stdin.write(stdin_text.encode())
                    proc.stdin.close()
                except BrokenPipeError:
                    pass
                status, usage = self._wait(proc, sliced, t0, calibrations, stretches)
            except BaseException:  # interrupted or terminated: end the child first
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        calibrations.append(calibration_s())
        raw = sum(stretches)
        wall = sum(t * CALIBRATION_REF_S / ((calibrations[k] + calibrations[k + 1]) / 2)
                   for k, t in enumerate(stretches))
        return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                     out_path.read_text(), err_path.read_text(), wall / raw if raw else 1.0)

    @staticmethod
    def _wait(proc, sliced: bool, t0: float, calibrations: list, stretches: list):
        """Wait for the child's exit; a sliced child is stopped every
        SLICE_S seconds for one calibration.  Appends the lengths of the
        running stretches and returns the exit status and rusage."""
        fd = os.pidfd_open(proc.pid)
        try:
            while True:
                ready, _, _ = select.select([fd], [], [], SLICE_S if sliced else None)
                if ready:
                    stretches.append(time.perf_counter() - t0)
                    _, status, usage = os.wait4(proc.pid, 0)
                    return status, usage
                os.kill(proc.pid, signal.SIGSTOP)
                _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                stretches.append(time.perf_counter() - t0)
                if not os.WIFSTOPPED(status):  # it ended before the stop
                    return status, usage
                calibrations.append(calibration_s())
                t0 = time.perf_counter()
                os.kill(proc.pid, signal.SIGCONT)
        finally:
            os.close(fd)

    def worker(self, args: list[str], stdin_text: str | None = None) -> Child:
        return self.run([str(HERE / "worker.py"), *args], stdin_text, sliced=False)


def median(values) -> float:
    return float(statistics.median(values))


def report_failures(fails: list[str]) -> None:
    for f in fails[: checks.MAX_REPORTED]:
        print(f"check failed: {f}", file=sys.stderr)
    if len(fails) > checks.MAX_REPORTED:
        print(f"... {len(fails) - checks.MAX_REPORTED} more", file=sys.stderr)


def child_failed(what: str, rc: int, err: str) -> None:
    print(f"{what} exited with {rc}: {err.strip()[-500:]}", file=sys.stderr)


def measure_startup(runner: Runner) -> float:
    return median(runner.run(["-m", "weylzip.cli", "--help"]).wall
                  for _ in range(STARTUP_REPEATS))


def measure_setup(runner: Runner, workload: str) -> tuple[float, bool]:
    walls, ok = [], True
    for _ in range(SETUP_REPEATS):
        c = runner.worker(["setup", "--workload", workload])
        if c.rc != 0:
            child_failed("setup", c.rc, c.err)
            ok = False
        walls.append(c.wall)
    return median(walls), ok


def judge_ladder(ops: list[dict], outputs: list[list[str | None]]) -> tuple[int, list[str]]:
    """Check each distinct pass output once.  Returns the number of
    operations that failed their checks on a known fault (they count in
    `failed`) and the failures that make the run incorrect."""
    verdicts: dict = {}
    known_faults, fails = 0, []
    for texts in outputs:
        key = tuple(texts)
        first = key not in verdicts
        if first:
            verdicts[key] = checks.check_ladder_pass(ops, texts)
        for op, op_fails in zip(ops, verdicts[key]):
            if op_fails and op.get("known_fault"):
                known_faults += 1
                if first:
                    print(f"known fault ({op['known_fault']}): {op_fails[0]}", file=sys.stderr)
            elif first:
                fails.extend(op_fails)
    return known_faults, fails


# -- ladders -------------------------------------------------------------------

def ladder_untraced(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    ops = ladder_ops(workload, seed)
    setup_s, setup_ok = measure_setup(runner, workload)
    walls, peaks, outputs = [[] for _ in ops], [[] for _ in ops], []
    attempted = failed = 0
    start = time.monotonic()
    while not outputs or time.monotonic() - start < seconds:
        texts = []
        for k, op in enumerate(ops):
            argv, stdin_text = cli_args(op)
            c = runner.run(["-m", "weylzip.cli", *argv], stdin_text)
            attempted += 1
            if c.rc != 0:
                failed += 1
                child_failed(" ".join(argv), c.rc, c.err)
            walls[k].append(c.wall)
            peaks[k].append(c.rss_mb)
            texts.append(c.out if c.rc == 0 else None)
        outputs.append(texts)
    known_faults, fails = judge_ladder(ops, outputs)
    report_failures(fails)
    return {
        "correct": setup_ok and not fails, "attempted": attempted,
        "failed": failed + known_faults,
        "values": {"setup_s": setup_s, "pass_s": sum(median(w) for w in walls),
                   "peak_rss_mb": max(median(r) for r in peaks)},
        "spans": [],
    }


def ladder_traced(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    ops = ladder_ops(workload, seed)
    startup_s = measure_startup(runner)
    per_pass, outputs, spans = [], [], []
    attempted = failed = 0
    start = time.monotonic()
    while not per_pass or time.monotonic() - start < seconds:
        sums = {name: 0.0 for name in PER_LAYER}
        texts = []
        for op in ops:
            c = runner.worker(["op"], json.dumps(op))
            attempted += 1
            sums["trace.pass_s"] += c.wall
            sums[OP_METRIC[op["cmd"]]] += c.wall
            if c.rc != 0:
                failed += 1
                child_failed(f"traced {op['cmd']}", c.rc, c.err)
                texts.append(None)
                continue
            res = json.loads(c.out)
            texts.append(res["output"])
            for name, t0, t1, parent in res["spans"]:
                spans.append([len(per_pass), name, t0, t1, parent])
                if name + "_s" in sums:
                    sums[name + "_s"] += (t1 - t0) * c.speed
            for name, count in res["counts"].items():
                sums[name] += count
            sums["coxeter.bruhat_table_rss_mb"] = max(sums["coxeter.bruhat_table_rss_mb"],
                                                      res["bruhat_table_rss_mb"])
        per_pass.append(sums)
        outputs.append(texts)
    known_faults, fails = judge_ladder(ops, outputs)
    report_failures(fails)
    values = {name: median(p[name] for p in per_pass) for name in PER_LAYER}
    values["cli.startup_s"] = startup_s
    return {"correct": not fails, "attempted": attempted, "failed": failed + known_faults,
            "values": values, "spans": spans}


# -- classify-stream -------------------------------------------------------------

def classify_run(runner: Runner, seed: int, seconds: float, trace: bool) -> dict:
    plan = classify_plan(seed)
    plan_text = json.dumps(plan)
    n = len(plan["queries"])
    values: dict = {}
    setup_ok = True
    if trace:
        values["cli.startup_s"] = measure_startup(runner)
    else:
        values["setup_s"], setup_ok = measure_setup(runner, "classify-stream")
    per_pass, spans, query_ms = [], [], []
    checked: list | None = None  # rows of the one pass whose worker made the check calls
    fails: list[str] = []
    attempted = failed = 0
    start = time.monotonic()
    while not per_pass or time.monotonic() - start < seconds:
        c = runner.worker(["classify", "--trace", str(int(trace)),
                           "--check", str(int(checked is None))], plan_text)
        attempted += n
        if c.rc != 0:
            failed += n
            child_failed("classify worker", c.rc, c.err)
            per_pass.append({"peak_rss_mb": c.rss_mb})
            continue
        res = json.loads(c.out)
        failed += res["failed"]
        for row in res["rows"]:
            if isinstance(row, str):
                print(f"classify query failed: {row}", file=sys.stderr)
        if checked is None:
            checked = res["rows"]
            fails += checks.check_classify_pass(plan, checked)
        elif [r[:2] for r in res["rows"]] != [r[:2] for r in checked]:
            fails.append("classify results differ from the checked pass's")
        # the worker reports query times already at the reference speed
        query_ms.append(res["query_ms"])
        done = [t for t in res["query_ms"] if t is not None]
        loop_s = sum(done) / 1e3
        speed = res["speed"]
        sums = {"trace.pass_s": loop_s, "peak_rss_mb": res["loop_rss_mb"],
                "op.classify_per_s": len(done) / loop_s if done else 0.0,
                "zipdata.canonical_rep_ms": median(
                    [t for t in res["canonical_rep_ms"] if t is not None] or [0.0]),
                "zipdata.sigma_query_ms": median(
                    [t for t in res["sigma_query_ms"] if t is not None] or [0.0]),
                **res["counts"]}
        for name, t0, t1, parent in res["spans"]:
            spans.append([len(per_pass), name, t0, t1, parent])
            if name + "_s" in PER_LAYER:
                sums[name + "_s"] = sums.get(name + "_s", 0.0) + (t1 - t0) * speed
        per_pass.append(sums)
    report_failures(fails)
    if not trace:
        # each query's median over the passes, so a slow spell in one pass
        # moves few of the summed terms
        per_query = [[t for t in ts if t is not None] for ts in zip(*query_ms)]
        values["pass_s"] = sum(median(ts) for ts in per_query if ts) / 1e3
    for name in PER_LAYER if trace else ("peak_rss_mb",):
        values.setdefault(name, median(p.get(name, 0.0) for p in per_pass))
    return {"correct": setup_ok and not fails, "attempted": attempted, "failed": failed,
            "values": values, "spans": spans}


def _number(value: float, unit: str):
    return int(value) if unit == "count" and float(value).is_integer() else value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "weylzip" / "__init__.py").is_file():
        print(f"no weylzip sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # One core for this process and every child: the machine's speed drifts
    # per core, so a calibration says something about a child's speed only
    # when both ran on the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner(root, started)
    if args.workload == "classify-stream":
        res = classify_run(runner, args.seed, args.seconds, bool(args.trace))
    elif args.trace:
        res = ladder_traced(runner, args.workload, args.seed, args.seconds)
    else:
        res = ladder_untraced(runner, args.workload, args.seed, args.seconds)

    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {name: {"value": _number(res["values"][name], unit), "unit": unit}
                    for name, unit in units.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (runner.out_dir / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        (runner.out_dir / f"trace-{stem}.json").write_text(json.dumps(
            {"fields": ["pass", "name", "start", "end", "parent"], "spans": res["spans"]}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
