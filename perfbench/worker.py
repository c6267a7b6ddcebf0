"""Benchmark worker: one fresh process that drives weylzip as a library.

    worker.py setup --workload NAME       build every group and datum, exit
    worker.py op                          one traced operation (JSON on stdin)
    worker.py classify --trace 0|1 --check 0|1
                                          one classify-stream pass (plan on stdin)

`op` makes the library calls behind one `weylzip` CLI operation, in a
fixed order, so each lazy cache is charged to the first public call that
fills it: parabolic enumeration, parameter set, Howlett parts, sigma, K_w,
then the operation itself and its output.  Spans (name, start, end,
parent operation) are kept in memory and printed as one JSON object at
the end, together with the operation's output text and its work counts.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from contextlib import contextmanager

from workloads import DENSE_ORDER, psi_map, setup_specs, twisted_word


#: Time of one calibration chunk on the reference machine (2 vCPUs,
#: Python 3.11.7).  Times are reported at that speed: a wall time w,
#: bracketed by calibrations c1 and c2, reads w * CALIBRATION_REF_S / mean(c1, c2).
CALIBRATION_REF_S = 0.007
CALIBRATION_CHUNKS = 4
#: classify-stream: queries between two calibrations (about 0.2 s).
QUERY_BLOCK = 32

_PERM = tuple((i * 7 + 3) % 240 for i in range(240))


def calibration_s() -> float:
    """Mean time of a fixed pure-Python chunk that shares no code with
    weylzip: an integer loop plus permutation composition and dict
    inserts, over CALIBRATION_CHUNKS chunks (about 30 ms).  The shared
    machine's speed drifts by tens of percent within seconds; timing this
    next to every measured stretch of work rescales the measurement to one
    speed."""
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_CHUNKS):
        x = 0
        for i in range(100_000):
            x += i
        p, seen = tuple(range(240)), {}
        for k in range(200):
            p = tuple(p[i] for i in _PERM)
            seen[p] = k
    return (time.perf_counter() - t0) / CALIBRATION_CHUNKS


class Tracer:
    """In-memory spans; with enabled=False every span is a no-op."""

    def __init__(self, enabled: bool, parent: str = ""):
        self.enabled = enabled
        self.parent = parent
        self.spans: list[tuple[str, float, float, str]] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, start, time.perf_counter(), self.parent))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _build(tr: Tracer, d: dict):
    from weylzip import ZipDatum, build_group

    with tr.span("coxeter.build_group"):
        g = build_group(d["type"])
    with tr.span("zipdata.datum"):
        z = ZipDatum(g, d["I"], d["J"], psi_map(d))
    return g, z


def _enumerate(tr: Tracer, g, z, counts: dict, dense: bool, out: dict) -> None:
    """First calls of the enumerations: the universe, W_I and, for groups
    in the dense region, the ShortLex list behind the Bruhat matrix and
    the matrix itself (filled by the first bruhat_leq)."""
    with tr.span("coxeter.parabolic_elements"):
        n = len(g.parabolic_elements(z.universe)) + len(z.w_I())
    counts["coxeter.elements_enumerated"] += n
    if dense:
        with tr.span("coxeter.elements"):
            counts["coxeter.elements_enumerated"] += len(g.elements())
        before = _peak_rss_mb()
        with tr.span("coxeter.bruhat_table"):
            g.bruhat_leq(g.identity, g.simple(1))
        out["bruhat_table_rss_mb"] = max(out["bruhat_table_rss_mb"], _peak_rss_mb() - before)


def _param_parts(tr: Tracer, z, howlett: bool) -> None:
    from weylzip import cosets

    with tr.span("cosets.param_set"):
        params = z.param_set("iw")
    if howlett:
        with tr.span("cosets.howlett"):
            for w in params:
                cosets.howlett_decompose(z.group, z.I, z.J, w)
    with tr.span("zipdata.sigma"):
        for w in params:
            z.sigma(w)
    if howlett:
        with tr.span("zipdata.stable_subset"):
            for w in params:
                z.stable_subset(w)


def run_op(op: dict, tr: Tracer) -> dict:
    from weylzip import frobenius_report, serialize
    from weylzip.serialize import extended_str, word_str

    counts = {k: 0 for k in (
        "coxeter.elements_enumerated", "zipdata.params", "zipdata.cover_edges",
        "zipdata.closure_size", "serialize.output_bytes")}
    out = {"bruhat_table_rss_mb": 0.0}
    cmd = op["cmd"]
    lines: list[str] = []
    if cmd in ("pieces", "poset", "closure"):
        g, z = _build(tr, op["datum"])
        dense = g.order <= DENSE_ORDER and cmd != "pieces"
        _enumerate(tr, g, z, counts, dense, out)
        side = op.get("side", "iw")
        if cmd == "closure":
            with tr.span("cosets.param_set"):
                counts["zipdata.params"] += len(z.param_set(side))
            w = g.from_word(op["w"])
            with tr.span("zipdata.closure_set"):
                closure = z.closure_set(w, side)
            counts["zipdata.closure_size"] += len(closure)
            with tr.span("serialize.rows"):
                lines = [word_str(v) for v in closure]
        elif cmd == "pieces":
            _param_parts(tr, z, howlett=True)
            with tr.span("zipdata.pieces"):
                rows = z.pieces()
            counts["zipdata.params"] += len(rows)
            with tr.span("serialize.rows"):
                lines = [
                    json.dumps({
                        "word": word_str(p.rep), "length": p.length, "dim": p.dimension,
                        "inf_stab_dim": p.inf_stab_dim, "K": sorted(p.stable_subset),
                        "sigma": word_str(p.dual_rep),
                    })
                    for p in rows
                ]
        else:
            if side != "iw":
                with tr.span("cosets.param_set"):
                    z.param_set(side)
            _param_parts(tr, z, howlett=False)
            with tr.span("zipdata.hasse_poset"):
                poset = z.hasse_poset(side=side)
            counts["zipdata.params"] += len(poset.nodes)
            counts["zipdata.cover_edges"] += len(poset.cover_edges)
            if op["format"] == "dot":
                with tr.span("serialize.poset_dot"):
                    text = poset.to_dot()
            else:
                with tr.span("serialize.poset_json"):
                    text = json.dumps(poset.to_json_dict(), indent=2, sort_keys=True) + "\n"
            counts["serialize.output_bytes"] += len(text.encode())
            return {"output": text, "counts": counts, **out}
    elif cmd == "isogeny":
        from weylzip import build_group

        with tr.span("coxeter.build_group"):
            build_group(op["doc"]["type"])
        with tr.span("serialize.datum"):
            iso, central_rank = serialize.isogeny_datum_from_json(op["doc"])
        z = iso.zip
        _enumerate(tr, z.group, z, counts, z.group.order <= DENSE_ORDER, out)
        _param_parts(tr, z, howlett=False)
        with tr.span("isogeny.frobenius_report"):
            report = frobenius_report(iso, central_rank)
            text = report.render_text()
        counts["zipdata.params"] += len(report.rows)
        counts["zipdata.cover_edges"] += len(report.cover_edges)
        header = (f"built I={serialize.subset_str(z.I)} J={serialize.subset_str(z.J)} "
                  f"psi={','.join(f'{a}:{b}' for a, b in sorted(z.psi.items()))} "
                  f"x={word_str(iso.x)}\n")
        text = header + text
        counts["serialize.output_bytes"] += len(text.encode())
        return {"output": text, "counts": counts, **out}
    elif cmd == "nonconnected":
        from weylzip import build_group

        with tr.span("coxeter.build_group"):
            g = build_group(op["doc"]["type"])
        with tr.span("serialize.datum"):
            ext = serialize.extended_datum_from_json(op["doc"])
        _enumerate(tr, g, ext.base, counts, g.order <= DENSE_ORDER, out)
        with tr.span("extended.pieces"):
            orbits = ext.pieces("iw")
        counts["zipdata.params"] += sum(len(o) for o in orbits)
        what = ext.extended(g.from_word(op["w"]))
        with tr.span("extended.closure_set"):
            closure = ext.closure_set(what, "iw")
        counts["zipdata.closure_size"] += len(closure)
        with tr.span("serialize.rows"):
            lines = [f"omega {len(ext.omega)}  omega_I {len(ext.omega_I)}  pieces {len(orbits)}"]
            lines += ["orbit " + " ".join(extended_str(e) for e in orb) for orb in orbits]
            lines += ["closure " + extended_str(e) for e in closure]
    text = "".join(line + "\n" for line in lines)
    counts["serialize.output_bytes"] += len(text.encode())
    return {"output": text, "counts": counts, **out}


def run_classify(plan: dict, tr: Tracer, check: bool) -> dict:
    """One classify-stream pass: set up, then the timed loop of
    canonical_rep(w) and sigma of the result, then (untimed) the output
    words and, with `check`, the check calls."""
    from weylzip.serialize import word_str

    data = []
    n_enum = 0
    for d in plan["data"]:
        g, z = _build(tr, d)
        with tr.span("coxeter.parabolic_elements"):
            n_enum += len(z.w_I())
        data.append(z)
    queries = [(data[q["datum"]], data[q["datum"]].group.from_word(q["w"])) for q in plan["queries"]]
    canon_ms, sigma_ms, results = [], [], []
    failed = 0
    # A calibration every QUERY_BLOCK queries: each query's times are
    # rescaled by the two calibrations around its block, so a change of
    # the machine's speed within the loop is followed.
    calibration = [calibration_s()]
    for lo in range(0, len(queries), QUERY_BLOCK):
        block = len(canon_ms)
        for z, w in queries[lo:lo + QUERY_BLOCK]:
            try:
                t0 = time.perf_counter()
                rep = z.canonical_rep(w)
                t1 = time.perf_counter()
                sig = z.sigma(rep)
                t2 = time.perf_counter()
            except Exception as exc:  # a program fault: count it, keep going
                failed += 1
                results.append(repr(exc))
                canon_ms.append(None)
                sigma_ms.append(None)
                continue
            if tr.enabled:
                tr.spans.append(("zipdata.canonical_rep", t0, t1, "classify"))
                tr.spans.append(("zipdata.sigma_query", t1, t2, "classify"))
            canon_ms.append((t1 - t0) * 1e3)
            sigma_ms.append((t2 - t1) * 1e3)
            results.append((rep, sig))
        calibration.append(calibration_s())
        speed = CALIBRATION_REF_S / statistics.mean(calibration[-2:])
        for k in range(block, len(canon_ms)):
            if canon_ms[k] is not None:
                canon_ms[k] *= speed
                sigma_ms[k] *= speed
    query_ms = [c if c is None else c + s for c, s in zip(canon_ms, sigma_ms)]
    # the peak so far, before the output and check calls below grow caches
    loop_rss_mb = _peak_rss_mb()

    rows = []
    with tr.span("serialize.rows"):
        for res in results:
            rows.append(res if isinstance(res, str) else [word_str(res[0]), word_str(res[1])])
    for q, (z, _), res, row in zip(plan["queries"], queries, results, rows):
        if isinstance(res, str) or not check:
            continue
        rep, sig = res
        g = z.group
        twisted = g.from_word(twisted_word(plan["data"][q["datum"]], q["w"], q["y"]))
        param = g.from_word(q["param"])
        row.append([z.canonical_rep(rep) == rep, z.canonical_rep(twisted) == rep,
                    z.canonical_rep(sig) == rep, z.canonical_rep(param) == param])
    counts = {
        "coxeter.elements_enumerated": n_enum,
        "zipdata.queries": len(queries),
        "serialize.output_bytes": sum(len(r[0]) + len(r[1]) + 2 for r in rows
                                      if not isinstance(r, str)),
    }
    return {"loop_rss_mb": loop_rss_mb, "failed": failed,
            "speed": CALIBRATION_REF_S / statistics.mean(calibration),
            "rows": rows, "counts": counts,
            "canonical_rep_ms": canon_ms, "sigma_query_ms": sigma_ms, "query_ms": query_ms}


def run_setup(workload: str) -> None:
    from weylzip import serialize

    specs = setup_specs(workload)
    tr = Tracer(False)
    for d in specs["data"]:
        _, z = _build(tr, d)
        if workload == "classify-stream":
            z.w_I()
    for doc in specs["isogeny"]:
        serialize.isogeny_datum_from_json(doc)
    for doc in specs["extended"]:
        serialize.extended_datum_from_json(doc)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True)
    sub.add_parser("op")
    p = sub.add_parser("classify")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--check", type=int, choices=(0, 1), default=1)
    args = parser.parse_args(argv)

    if args.mode == "setup":
        run_setup(args.workload)
        return 0
    request = json.load(sys.stdin)
    if args.mode == "op":
        tr = Tracer(True, parent=request["cmd"] + " " + request.get("datum", request.get("doc", {}))["type"])
        result = run_op(request, tr)
    else:
        tr = Tracer(bool(args.trace), parent="classify")
        result = run_classify(request, tr, bool(args.check))
    result["spans"] = tr.spans
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
