#!/usr/bin/env python3
"""Host-time benchmark of the ConCORD library: build, run one workload, report.

Usage, from the repository root:

  python3 perfbench/run.py --workload <scan_churn|service_cmd> \
      --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench, runs the workload, checks its oracles, and
prints as the last stdout line one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1. The full result, with the
run's metadata, goes to <build dir>/results/. See perfbench/NOTES.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import pathlib
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

BENCH_DIR = pathlib.Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170

# The operation whose median, traced vs untraced, gives obs.trace_overhead_pct.
PRIMARY = {
    "scan_churn": ["epoch_ns"],
    "service_cmd": ["null_cmd_ns", "ckpt_ns"],
}

# Unique hashes and DHT bytes may drift this much across the timed epochs of
# scan_churn before the palette churn counts as non-stationary.
STATIONARY_DRIFT = {"unique_hashes_series": 0.01, "dht_memory_series": 0.05}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(build_dir / ".lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                sys.stderr.write(log_path.read_text()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return build_dir / "concord_perfbench"


def host_info():
    info = {"nproc": os.cpu_count(), "cpu_model": None, "llc": None}
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = pathlib.Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        levels = []
        for idx in cache.glob("index*"):
            level = int((idx / "level").read_text())
            kind = (idx / "type").read_text().strip()
            if kind in ("Unified", "Data"):
                levels.append((level, (idx / "size").read_text().strip()))
        if levels:
            level, size = max(levels)
            info["llc"] = "L%d %s" % (level, size)
    except (OSError, ValueError):
        pass
    return info


def code_identity(root):
    """The git commit when the checkout is a repository, and in any case a
    digest of the library and benchmark sources."""
    commit = None
    if (root / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0:
                commit = out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for base in (root / "src", BENCH_DIR):
        for path in sorted(p for p in base.rglob("*") if p.is_file()
                           and p.suffix in (".cpp", ".hpp", ".txt", ".py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def end_to_end(raw):
    s = raw["samples"]
    for key in ("epoch_ns", "null_cmd_ns", "ckpt_ns", "lookup_ns", "collective_ns",
                "ckpt_bytes_ratio"):
        if not s[key]:
            fail("no %s samples: raise --seconds" % key)
    tail_pct, tail_ns = stats.tail(s["epoch_ns"])
    values = {
        "setup_s": stats.median(raw["setup_ns"]) / 1e9,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "epoch_ms.p50": stats.median(s["epoch_ns"]) / 1e6,
        "epoch_ms.tail": tail_ns / 1e6,
        "null_cmd_ms.p50": stats.median(s["null_cmd_ns"]) / 1e6,
        "ckpt_ms.p50": stats.median(s["ckpt_ns"]) / 1e6,
        "ckpt_bytes_ratio": stats.median(s["ckpt_bytes_ratio"]),
        "lookup_us.p50": stats.median(s["lookup_ns"]) / 1e3,
        "lookup_us.p99": stats.percentile(s["lookup_ns"], 99) / 1e3,
        # One closed-loop client: its lookup rate is 1 / its lookup latency.
        # The median makes the rate robust to a multi-millisecond host stall.
        "lookups_per_s": 1e9 / stats.median(s["lookup_ns"]),
        "collective_ms.p50": stats.median(s["collective_ns"]) / 1e6,
    }
    counts = {k: len(v) for k, v in s.items()}
    return values, {"epoch_ms.tail_percentile": tail_pct, "sample_counts": counts}


def per_layer(raw, workload):
    """Per-layer metrics from the traced phase's raw counter series, the
    live cluster's totals and the standalone replays' raw timings."""
    c = raw["counters"]
    cl = raw["cluster"]
    rp = raw["replays"]

    def med(key):
        if not c[key]:
            fail("no %s counts in the traced phase: raise --seconds" % key)
        return stats.median(c[key])

    def per_unit(name):
        """Median replay time per unit of work, in ns."""
        return stats.ratio_or_zero(stats.median(rp[name]["ns"]), rp[name]["count"])

    def share(part, other):
        return stats.ratio_or_zero(sum(c[part]), sum(c[part]) + sum(c[other]))

    hit, miss = per_unit("find_hit"), per_unit("find_miss")
    n_hit, n_miss = rp["find_hit"]["count"], rp["find_miss"]["count"]
    find_mix = stats.ratio_or_zero(hit * n_hit + miss * n_miss, n_hit + n_miss)
    ops = len(c["blocks_hashed"]) + len(c["cmd_msgs"])
    values = {
        "hash.md5_4k_ns": per_unit("md5_4k"),
        "hash.md5_64b_ns": per_unit("md5_64b"),
        "hash.bytes_per_op": stats.ratio_or_zero(sum(c["scan_bytes"]) + sum(c["cmd_hash_bytes"]), ops),
        "mem.blocks_hashed_per_epoch": med("blocks_hashed"),
        "mem.updates_per_epoch": med("updates"),
        "mem.emit_ratio": stats.ratio_or_zero(sum(c["updates"]), sum(c["blocks_hashed"])),
        "core.records_per_datagram": stats.ratio_or_zero(sum(c["updates_remote"]), sum(c["batch_msgs"])),
        "core.batcher_ns_per_record": per_unit("batcher"),
        "core.updates_local_share": share("updates_local", "updates_remote"),
        "net.datagrams_per_epoch": med("datagrams"),
        "net.bytes_per_epoch": med("bytes"),
        "net.msgs_per_cmd": med("cmd_msgs"),
        "net.fabric_ns_per_datagram": per_unit("fabric"),
        "net.msgs_dropped": cl["msgs_dropped"],
        "net.codec_encode_ns_per_record": per_unit("codec_encode"),
        "net.codec_decode_ns_per_record": per_unit("codec_decode"),
        "sim.event_ns": per_unit("sim_event"),
        "dht.apply_ns_per_record": per_unit("apply"),
        "dht.tombstones": cl["dht_tombstones"],
        "dht.inserts_new_ratio": stats.ratio_or_zero(sum(c["inserts_new"]), sum(c["inserts"])),
        "dht.find_hit_ns": hit,
        "dht.find_miss_ns": miss,
        "dht.find_shard_vs_flat": stats.ratio_or_zero(hit, per_unit("find_flat")),
        "dht.scan_ns_per_entry": per_unit("scan"),
        "dht.unique_hashes": cl["dht_unique_hashes"],
        "dht.memory_bytes": cl["dht_memory_bytes"],
        "dht.bytes_per_entry": stats.ratio_or_zero(cl["dht_memory_bytes"], cl["dht_unique_hashes"]),
        "dht.load_factor_pct": 100.0 * stats.ratio_or_zero(cl["dht_unique_hashes"], cl["dht_capacity"]),
        # The store's share of a lookup: the key stream's mean find time over
        # the traced phase's mean lookup time.
        "query.lookup_store_share": stats.ratio_or_zero(
            find_mix, stats.mean(raw["traced_samples"]["lookup_ns"])),
        "query.read_refused": cl["read_refused"],
        "svc.callback_ms": med("callback_ns") / 1e6,
        "svc.engine_self_ms": med("engine_self_ns") / 1e6,
        "svc.distinct_hashes": med("distinct_hashes"),
        "svc.local_covered_ratio": stats.ratio_or_zero(sum(c["local_covered"]), sum(c["local_blocks"])),
        "svc.collective_retries": sum(c["retries"]),
        "services.ckpt_collective_ms": med("ckpt_collective_ns") / 1e6,
        "services.ckpt_local_ms": med("ckpt_local_ns") / 1e6,
        "fs.bytes_per_ckpt": med("fs_bytes"),
        "fs.files_per_ckpt": med("fs_files"),
    }
    untraced = sum(stats.median(raw["samples"][k]) for k in PRIMARY[workload])
    traced = sum(stats.median(raw["traced_samples"][k]) for k in PRIMARY[workload])
    values["obs.trace_overhead_pct"] = 100.0 * (stats.ratio_or_zero(traced, untraced) - 1.0)
    return values, {"layer_self_ms": raw.get("layer_self_ms"), "trace_file": raw.get("trace_file")}


def stationarity(raw):
    """scan_churn's DHT must level off: unique hashes and DHT bytes stay
    within STATIONARY_DRIFT of their mean across the timed epochs."""
    report = {}
    ok = True
    for key, limit in STATIONARY_DRIFT.items():
        series = raw.get(key) or []
        if len(series) < 2:
            continue
        drift = stats.ratio_or_zero(max(series) - min(series), sum(series) / len(series))
        report[key] = {"first": series[0], "last": series[-1], "drift": drift, "limit": limit}
        ok = ok and drift <= limit
    # Tombstones are reported, not bounded: they level off slowly under churn.
    tombstones = raw.get("tombstone_series") or []
    if tombstones:
        report["tombstone_series"] = {"first": tombstones[0], "last": tombstones[-1]}
    return ok, report


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(PRIMARY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = pathlib.Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    exe = build(build_dir)
    results = build_dir / "results"
    results.mkdir(exist_ok=True)

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(results)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail("concord_perfbench exited with %d" % proc.returncode)
    raw = json.loads(proc.stdout)

    if args.trace:
        values, extra = per_layer(raw, args.workload)
        declared = spec["per_layer"]
    else:
        values, extra = end_to_end(raw)
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        fail("metrics not produced: " + ", ".join(missing))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    stationary, drift = stationarity(raw)
    correct = raw["ops_failed"] == 0 and stationary
    result = {
        "correct": correct,
        "attempted": int(raw["ops_total"]),
        "failed": int(raw["ops_failed"]),
        "metrics": metrics,
    }
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "host": host_info(),
        "compiler": raw["compiler"],
        "build_type": raw["build_type"],
        "code": code_identity(root),
        "cluster_params": raw["cluster_params"],
        "cost_model": raw["cost_model"],
        "setup_ns": raw["setup_ns"],
        "end_rss_kb": raw["end_rss_kb"],
        "failures": raw["failures"],
        "stationarity": drift,
    }
    meta.update(extra)
    out = results / ("%s_seed%d_trace%d.json" % (args.workload, args.seed, args.trace))
    out.write_text(json.dumps({"meta": meta, "result": result}, indent=1) + "\n")
    print("perfbench: %s seed %d: %d/%d ops failed; result in %s"
          % (args.workload, args.seed, raw["ops_failed"], raw["ops_total"], out))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
