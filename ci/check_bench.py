#!/usr/bin/env python3
"""Shape and gate checks for the bench harness's BENCH_*.json artifacts.

Usage:
    python3 ci/check_bench.py BENCH_parallel.json [BENCH_runs.json ...]
    python3 ci/check_bench.py           # checks every BENCH_*.json in cwd
    python3 ci/check_bench.py --metrics /tmp/metrics.json
    python3 ci/check_bench.py --metrics-resident /tmp/metrics_resident.json
    python3 ci/check_bench.py --metrics-gated /tmp/metrics_gated.json

Each document carries a "bench" discriminator; the matching validator
checks both shape (fields present, numeric where expected) and the CI
gate the bench is supposed to enforce (determinism, no regression, zero
mismatches).  Exits non-zero on the first failing file.
"""

import glob
import json
import os
import statistics
import sys


def is_num(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def require(cond, msg):
    if not cond:
        raise AssertionError(msg)


def require_recorded(doc, key, med):
    """The median a bench records must be the one its gate recomputes."""
    require(is_num(doc[key]) and abs(doc[key] - med) <= 1e-9,
            f"recorded {key} {doc[key]} differs from the points' median {med}")


def check_parallel(doc):
    require(doc["deterministic"] is True, "parallel run diverged from sequential")
    points = {p["jobs"]: p for p in doc["points"]}
    require(points, "no sweep points")
    for p in points.values():
        for key in ("wall_s", "sim_io_s", "modeled_s", "wall_qps", "modeled_qps"):
            require(is_num(p.get(key)), f"jobs={p['jobs']}: bad {key}")
    jobs = sorted(points)
    if len(jobs) > 1:
        lo, hi = jobs[0], jobs[-1]
        require(
            points[hi]["modeled_qps"] >= points[lo]["modeled_qps"],
            f"jobs={hi} modeled throughput regressed: "
            f"{points[hi]['modeled_qps']:.1f} < {points[lo]['modeled_qps']:.1f} q/s",
        )
    # Wall throughput is reported beside the modeled gate, not gated:
    # CI hosts vary.
    return {
        j: {
            "modeled_qps": round(points[j]["modeled_qps"], 1),
            "wall_qps": round(points[j]["wall_qps"], 1),
        }
        for j in jobs
    }


def check_runs(doc):
    require(doc["identical"] is True, "answers diverged with the run index on")
    require(doc["batch_identical"] is True, "4-domain batch diverged from baseline")
    require(doc["checks_elided"] > 0, "run index elided no page touches")
    points = doc["points"]
    require(points, "no measurement points")
    for p in points:
        for key in ("wall_off_s", "wall_on_s", "modeled_off_s", "modeled_on_s", "speedup"):
            require(is_num(p[key]), f"bad {key} in {p}")
        require(p["identical"] is True, f"point diverged: {p}")
    dense = [p["speedup"] for p in points if p["density"] == "dense"]
    require(dense, "no dense-policy points")
    med = statistics.median(dense)
    require_recorded(doc, "dense_median_speedup", med)
    require(med >= 1.0, f"dense-policy median regressed vs runs-off: {med:.2f}x")
    # Build timings are recorded, not gated: CI hosts vary.
    require(doc["build_identical"] is True, "built runs diverged from the per-node oracle")
    builds = doc["build"]
    require(builds, "no build points")
    for b in builds:
        for key in ("transitions", "runs_per_subject", "build_us_p50",
                    "bytes_per_subject"):
            require(is_num(b[key]), f"bad {key} in build point {b}")
    return {
        "points": len(points),
        "elided": doc["checks_elided"],
        "dense_median": round(med, 2),
        "build_us_p50": {b["density"]: round(b["build_us_p50"], 1) for b in builds},
        "bytes_per_subject": {b["density"]: round(b["bytes_per_subject"]) for b in builds},
    }


def check_summary(doc):
    require(doc["identical"] is True,
            "answers diverged with the path summary on")
    require(doc["batch_identical"] is True, "4-domain batch diverged from baseline")
    require(doc["dense_summary_pruned"] > 0,
            "summary pruning elided no classes on the dense policy")
    points = doc["points"]
    require(points, "no measurement points")
    for p in points:
        for key in ("wall_off_s", "wall_on_s", "modeled_off_s", "modeled_on_s", "speedup"):
            require(is_num(p[key]), f"bad {key} in {p}")
        require(p["identical"] is True, f"point diverged: {p}")
    med = statistics.median(p["speedup"] for p in points)
    require_recorded(doc, "median_speedup", med)
    require(med >= 1.0, f"Table-1 median regressed vs summary-off: {med:.2f}x")
    # The wall-clock median is gated beside the modeled one: with the
    # span-hull walk and the sparse class analysis the summary tier no
    # longer loses in wall time at CI scale (1.02-1.21x over 20 runs).
    wall = doc["wall_median_speedup"]
    require(is_num(wall), "bad wall_median_speedup")
    require(wall >= 1.0,
            f"Table-1 wall-clock median regressed vs summary-off: {wall:.2f}x")
    return {
        "points": len(points),
        "classes_pruned": doc["dense_summary_pruned"],
        "median": round(med, 2),
        "wall_median": round(doc["wall_median_speedup"], 2),
    }


def check_obs(doc):
    require(is_num(doc["nodes"]) and doc["nodes"] > 0, "bad node count")
    require(doc["queries"], "no per-query points")
    for q in doc["queries"]:
        for key in ("answers", "wall_ms", "page_touches", "access_checks"):
            require(is_num(q[key]), f"{q.get('id')}: bad {key}")
    require(is_num(doc["overhead"]["overhead_pct"]), "bad overhead_pct")
    return {"queries": len(doc["queries"]),
            "overhead_pct": round(doc["overhead"]["overhead_pct"], 2)}


def check_fuzz(doc):
    require(doc["mismatches"] == 0,
            f"differential fuzzing found {doc['mismatches']} mismatches: "
            f"{doc.get('failures')}")
    require(is_num(doc["cases"]) and doc["cases"] > 0, "no cases ran")
    require(is_num(doc["cases_per_s"]), "bad cases_per_s")
    lattice = doc["lattice"]
    require(isinstance(lattice, dict) and lattice, "no lattice coverage recorded")
    require(sum(lattice.values()) == doc["cases"], "lattice counts do not sum to cases")
    return {"cases": doc["cases"], "configs": len(lattice),
            "cases_per_s": round(doc["cases_per_s"], 1)}


def check_mvcc(doc):
    r = doc["readers"]
    require(r["answers_identical"] is True,
            "pinned readers observed in-flight updates (snapshot leak)")
    for key in ("idle_qps", "contended_qps", "ratio"):
        require(is_num(r[key]), f"readers: bad {key}")
    require(r["updates_during_run"] > 0, "writer applied no updates during the run")
    require(r["ratio"] >= 0.8,
            f"contended readers at {100 * r['ratio']:.1f}% of idle throughput "
            "(gate: 80%)")
    g = doc["group_commit"]
    require(g["images_identical"] is True,
            "group-commit image diverged from per-record flushing")
    for key in ("modeled_per_record_s", "modeled_batched_s", "speedup"):
        require(is_num(g[key]), f"group_commit: bad {key}")
    require(g["flushes_batched"] < g["flushes_per_record"],
            "batching did not reduce flushes")
    require(g["speedup"] >= 2.0,
            f"group commit speedup {g['speedup']:.2f}x (gate: 2x)")
    return {
        "reader_ratio": round(r["ratio"], 3),
        "updates": r["updates_during_run"],
        "commit_speedup": round(g["speedup"], 2),
        "flushes": f"{g['flushes_per_record']}->{g['flushes_batched']}",
    }


def check_serve(doc):
    require(doc["identical"] is True,
            "streamed answers diverged from materialized Engine.run")
    require(doc["tenants"] >= 4, "serve ran with fewer than 4 tenants")
    require(doc["total_subjects"] >= 1000,
            "serve mix covered fewer than 1000 subjects")
    require(doc["served"] > 0, "serve completed no queries")
    require(is_num(doc["qps"]) and doc["qps"] > 0, "bad qps")
    lat = doc["latency_ms"]
    for key in ("p50", "p95", "p99", "max"):
        require(is_num(lat[key]), f"latency_ms: bad {key}")
    require(lat["count"] > 0, "no latency observations")
    require(is_num(doc["shed"]), "shed count missing")
    require(doc["peak_ok"] is True,
            f"buffered answers {doc['peak_buffered']} exceeded the "
            f"chunk bound {doc['peak_bound']}")
    require(doc["max_answers"] > doc["peak_bound"],
            "largest result within the buffer bound — the memory bound "
            "was never exercised (grow DOLX_BENCH_SERVE_NODES)")
    require(is_num(doc["qps_ratio"]), "bad qps_ratio")
    require(doc["qps_ratio"] >= 0.25,
            f"streaming service at {100 * doc['qps_ratio']:.1f}% of the "
            "sequential materialized drain (gate: 25%)")
    return {
        "qps": round(doc["qps"], 1),
        "qps_ratio": round(doc["qps_ratio"], 3),
        "p99_ms": round(lat["p99"], 3),
        "served": doc["served"],
        "shed": doc["shed"],
        "peak": f"{doc['peak_buffered']}<={doc['peak_bound']}",
    }


def check_wire(doc):
    require(doc["identical"] is True,
            "socket answers diverged from materialized Engine.query")
    require(doc["served"] > 0, "no queries served over the socket")
    require(is_num(doc["qps"]) and doc["qps"] > 0, "bad qps")
    require(doc["clients"] >= 2, "wire bench ran with fewer than 2 clients")
    lat = doc["latency_ms"]
    require(lat["count"] > 0, "no latency observations")
    for key in ("p50", "p95", "p99", "max"):
        require(is_num(lat[key]), f"latency_ms: bad {key}")
    require(lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"],
            f"latency percentiles out of order: p50={lat['p50']} "
            f"p95={lat['p95']} p99={lat['p99']} max={lat['max']}")
    require(is_num(doc["shed"]), "shed count missing")
    require(doc["leaked_pins"] == 0,
            f"{doc['leaked_pins']} reader pin(s) leaked after client "
            "disconnects")
    require(doc["unclean_exits"] == 0,
            f"{doc['unclean_exits']} client process(es) exited unclean")
    # One exchange per short query: a pipelined Submit+Next is answered
    # in one server write and the last chunk is end-marked, so a k-chunk
    # query costs k writes (k + 1 ending on a bare End); strict
    # request->response costs k + 2.
    writes, chunks = doc["writes_per_query"], doc["chunks_per_query"]
    require(is_num(writes) and is_num(chunks) and doc["queries_served"] > 0,
            "writes/chunks per query missing")
    require(writes <= chunks + 1,
            f"{writes:.3f} server writes per query exceed chunks per query "
            f"({chunks:.3f}) + 1: replies are not coalesced")
    return {
        "qps": round(doc["qps"], 1),
        "writes_per_query": round(writes, 3),
        "chunks_per_query": round(chunks, 3),
        "p99_ms": round(lat["p99"], 3),
        "served": doc["served"],
        "clients": f"{doc['clients']} ({doc['client_mode']})",
        "leaked_pins": doc["leaked_pins"],
    }


CHECKS = {
    "parallel": check_parallel,
    "runs": check_runs,
    "summary": check_summary,
    "obs": check_obs,
    "fuzz": check_fuzz,
    "mvcc": check_mvcc,
    "serve": check_serve,
    "wire": check_wire,
}


def check_metrics(path):
    doc = json.load(open(path))
    counters = doc["counters"]
    for key in ("pool.touches", "disk.reads", "store.access_checks", "engine.queries"):
        require(key in counters, f"missing counter {key}")
        require(isinstance(counters[key], int), f"{key} not an int")
    require(counters["engine.queries"] == 1, "expected exactly one query")
    require(counters["pool.touches"] > 0, "no page touches recorded")
    # a read-only query must not build the codebook's intern index
    gauges = doc["gauges"]
    for key in ("codebook.resident_bytes", "codebook.indexed_entries"):
        require(is_num(gauges.get(key)), f"missing gauge {key}")
    require(gauges["codebook.resident_bytes"] > 0, "codebook holds no bytes")
    require(gauges["codebook.indexed_entries"] == 0,
            "a read-only query built the codebook's intern index")
    out = {k: counters[k] for k in ("pool.touches", "disk.reads", "engine.queries")}
    out["codebook.indexed_entries"] = gauges["codebook.indexed_entries"]
    return out


def check_metrics_resident(path):
    """A secure summary-path query whose steps have no predicate (e.g.
    //item//emph) decides every step from the class map and the run
    index: no page is read, and every access check is a run answer."""
    counters = json.load(open(path))["counters"]
    keys = ("pool.touches", "store.access_checks", "store.run_answers",
            "engine.resident_decisions", "engine.queries")
    for key in keys:
        require(isinstance(counters.get(key), int), f"missing int counter {key}")
    require(counters["engine.queries"] == 1, "expected exactly one query")
    require(counters["pool.touches"] == 0,
            f"a resident query read {counters['pool.touches']} pages")
    require(counters["store.access_checks"] > 0, "no access check recorded")
    require(counters["store.run_answers"] == counters["store.access_checks"],
            f"run answers {counters['store.run_answers']} != access checks "
            f"{counters['store.access_checks']}")
    require(counters["engine.resident_decisions"] > 0, "no resident decision recorded")
    return {k: counters[k] for k in keys}


def check_metrics_gated(path):
    """A secure segment-plan query (e.g. //item//emph with the path
    summary off) over a policy that denies a region subtree: its seed
    and join draw their candidates through the run-gated walk, which
    skips the denied run, and the whole query makes one run-list
    lookup."""
    counters = json.load(open(path))["counters"]
    keys = ("engine.joins", "engine.candidates_pruned", "runs.hits",
            "runs.builds", "engine.queries")
    for key in keys:
        require(isinstance(counters.get(key), int), f"missing int counter {key}")
    require(counters["engine.queries"] == 1, "expected exactly one query")
    require(counters["engine.joins"] >= 1, "the segment plan made no join")
    require(counters["engine.candidates_pruned"] > 0,
            "the run gate skipped no candidate")
    lookups = counters["runs.hits"] + counters["runs.builds"]
    require(lookups == 1, f"{lookups} run-list lookups for one query, expected 1")
    return {k: counters[k] for k in keys}


def main(argv):
    for flag, check in (("--metrics", check_metrics),
                        ("--metrics-resident", check_metrics_resident),
                        ("--metrics-gated", check_metrics_gated)):
        if argv and argv[0] == flag:
            require(len(argv) == 2, f"{flag} takes exactly one file")
            print(f"{argv[1]}: metrics JSON OK: {check(argv[1])}")
            return 0
    paths = argv or sorted(glob.glob("BENCH_*.json"))
    require(paths, "no BENCH_*.json files found")
    # Explicitly named artifacts must exist: a bench that crashed before
    # writing its JSON must fail the gate loudly, not be skipped.
    missing = [p for p in paths if not os.path.exists(p)]
    require(not missing,
            "expected bench artifact(s) missing: " + ", ".join(missing)
            + " (did the bench step run and write its JSON?)")
    for path in paths:
        doc = json.load(open(path))
        kind = doc.get("bench")
        require(kind in CHECKS, f"{path}: unknown bench kind {kind!r}")
        summary = CHECKS[kind](doc)
        print(f"{path}: {kind} bench OK: {summary}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (AssertionError, KeyError, OSError, json.JSONDecodeError) as e:
        print(f"check_bench: FAIL: {e}", file=sys.stderr)
        sys.exit(1)
