#!/usr/bin/env python3
"""Validate pactsim's machine-readable run artifacts.

Runs pactsim_cli on a small stock workload with all three artifact
flags, then checks:

  * the run manifest parses, carries the expected schema tag, the full
    simulator config, a non-empty stat dump per result, a well-formed
    per-result "tenants" array, well-formed per-result
    "distributions" snapshots, and a per-result "txn" outcome block
    (pact.manifest/6);
  * a poisoned sweep (one unknown policy name among good ones)
    completes, records a structured error for the failed run, keeps
    every surviving result, and stays byte-identical across job
    counts;
  * the time-series JSONL has a schema header, consecutive windows,
    monotone timestamps, rows whose fields match the header layout
    (counters non-negative), and per-window distribution summaries
    matching the header's distribution list (pact.timeseries/2);
  * the Chrome trace parses and every event is well-formed;
  * the JSONL and manifest artifacts are byte-identical between
    PACT_JOBS=1 and PACT_JOBS=4 (the determinism guarantee);
  * malformed numeric flag values (--scale abc, --seed -3, ...) make
    pactsim_cli exit 1 with a message naming the flag.

A decision-provenance mode rides along:

  * --events-only drives a fault-injected multi-tenant run with
    --events and --trace-out and checks the pact.events/2 journal
    (schema, seq/cycle monotonicity, per-kind payload keys, PACT_JOBS
    byte-identity) and that the trace's per-page migration slices
    balance; with --inspect it then drives the pact_inspect reader,
    including explain on a promoted page's full provenance chain.

A multi-tenant mode rides along:

  * --tenants-only drives pactsim_cli --tenants 4 (the masim-coloc4
    colocation) and checks the per-tenant manifest rows, the
    tenant<i>.* stat subtrees, and PACT_JOBS=1 vs =4 byte-identity.

Two trace-store modes ride along:

  * --trace-store FILE|DIR validates .pacttrace headers standalone
    (magic, schema version, size, payload checksum);
  * --trace-store-only drives pactsim_cli cold then warm against a
    temp --trace-dir and checks that the warm run loads from disk with
    zero generation time, that manifests are byte-identical with the
    store off, cold, and warm, and that the persisted store file is
    byte-identical between PACT_JOBS=1 and PACT_JOBS=4.

Pure standard library; wired into the build as ctest entries.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

MANIFEST_SCHEMA = "pact.manifest/6"
TIMESERIES_SCHEMA = "pact.timeseries/2"
EVENTS_SCHEMA = "pact.events/2"
# Fixed log-linear histogram layout (obs::Distribution).
DIST_NUM_BINS = 1 + (63 - (-32) + 1) * 4
EVENT_KINDS = {
    "pebs_sample", "bin_assign", "promote_enqueue", "demote_enqueue",
    "daemon_tick", "txn_prepare", "txn_retry", "txn_commit",
    "txn_abort", "txn_admit_reject",
}
# Per-result migration-transaction outcome counters (pact.manifest/5).
TXN_KEYS = ("prepared", "committed", "aborted", "retries", "exhausted",
            "admission_rejected", "wasted_copy_cycles", "backoff_cycles")
# txn_abort reason vocabulary (obs::TxnAbortReason).
TXN_ABORT_REASONS = {"contention", "mid_copy", "dirty", "write_fail"}
TRACE_STORE_MAGIC = b"PACTTRC1"
TRACE_STORE_VERSION = 1

failures = []


def check(cond, msg):
    if cond:
        print(f"  ok: {msg}")
    else:
        print(f"  FAIL: {msg}")
        failures.append(msg)


def run_cli(cli, outdir, jobs, workload, scale):
    outdir = pathlib.Path(outdir)
    paths = {
        "manifest": outdir / f"manifest.j{jobs}.json",
        "timeseries": outdir / f"timeseries.j{jobs}.jsonl",
        "trace": outdir / f"trace.j{jobs}.json",
    }
    env = dict(os.environ, PACT_JOBS=str(jobs))
    cmd = [
        cli,
        "--workload", workload,
        "--policy", "PACT",
        "--scale", str(scale),
        "--out-json", str(paths["manifest"]),
        "--timeseries", str(paths["timeseries"]),
        "--trace-out", str(paths["trace"]),
    ]
    print(f"+ PACT_JOBS={jobs} {' '.join(cmd)}")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"pactsim_cli failed with exit code {proc.returncode}")
    return paths


def run_poisoned_sweep(cli, outdir, jobs, workload, scale):
    """A sweep with one unknown policy among good ones must complete."""
    outdir = pathlib.Path(outdir)
    path = outdir / f"poisoned.j{jobs}.json"
    env = dict(os.environ, PACT_JOBS=str(jobs))
    cmd = [
        cli,
        "--workload", workload,
        "--scale", str(scale),
        "--sweep",
        "--policies", "PACT,BogusPolicy,NoTier",
        "--out-json", str(path),
    ]
    print(f"+ PACT_JOBS={jobs} {' '.join(cmd)}")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"poisoned sweep failed with exit code {proc.returncode}")
    return path


# Numeric CLI flags with malformed values: each must be refused with
# exit 1 and a message naming the flag, before any workload is built.
BAD_FLAG_VALUES = (
    ("--scale", "abc"),
    ("--scale", "0"),
    ("--seed", "-3"),
    ("--retries", "zz"),
    ("--period", "1e6x"),
    ("--pebs-rate", "64k"),
    ("--ratio", "-1:2"),
    ("--ratio", "1:2x"),
    ("--ratio", "0:0"),
    ("--tenants", "0"),
)


def validate_bad_flags(cli):
    print("numeric flags: malformed values fail loudly")
    for flag, value in BAD_FLAG_VALUES:
        # A small gups base run, so a CLI that accepted the value
        # anyway finishes quickly and fails the check instead of
        # running a full-size workload.
        cmd = [cli, "--workload", "gups", "--scale", "0.05", flag, value]
        print(f"+ {' '.join(cmd)}")
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=300)
            rc, err = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:
            rc, err = None, ""
        check(rc == 1 and flag in err,
              f"{flag} {value} exits 1 naming {flag} (exit {rc})")


def validate_manifest(path):
    print(f"manifest: {path.name}")
    doc = json.loads(path.read_text())
    check(doc.get("schema") == MANIFEST_SCHEMA,
          f"schema tag is {MANIFEST_SCHEMA}")
    check(doc.get("kind") in ("run", "sweep", "bench"), "kind is known")
    check(isinstance(doc.get("producer"), str) and doc["producer"],
          "producer recorded")
    cfg = doc.get("config", {})
    for key in ("daemon_period_cycles", "fast_capacity_pages", "seed",
                "fast", "slow", "cache", "cpu", "pebs", "migration"):
        check(key in cfg, f"config carries {key}")
    for key in ("faults", "audit"):
        check(key in cfg, f"config carries {key}")
    mig_cfg = cfg.get("migration", {})
    for key in ("disabled", "txn_max_retries", "txn_backoff_cycles"):
        check(key in mig_cfg, f"migration config carries {key}")
    results = doc.get("results", [])
    check(len(results) >= 1, "at least one result")
    for r in results:
        check(r.get("workload") and r.get("policy"),
              "result names its workload and policy")
        if not r.get("ok", True):
            # Failed runs record why they died instead of stats.
            err = r.get("error", {})
            check(bool(err.get("kind")) and bool(err.get("message")),
                  "failed result carries error kind and message")
            continue
        check(r.get("runtime_cycles", 0) > 0, "runtime is positive")
        stats = r.get("stats", {})
        check(len(stats) >= 20, f"stat dump is substantial ({len(stats)})")
        check(all(isinstance(v, (int, float)) for v in stats.values()),
              "stat values are numeric")
        check("engine.cache.misses" in stats,
              "engine stat hierarchy present")
        # pact.manifest/6: every ok result carries at least one tenant
        # row (a single-daemon run is one tenant holding every trace).
        tenants = r.get("tenants")
        if not isinstance(tenants, list):
            tenants = []
            check(False, "result carries a tenants array")
        check(len(tenants) >= 1, "result carries at least one tenant row")
        for t in tenants:
            check(isinstance(t.get("name"), str) and t["name"],
                  "tenant row carries a name")
            for key in ("slowdown_pct", "retired_ops", "cycles",
                        "daemon_ticks", "pebs_events"):
                check(isinstance(t.get(key), (int, float)),
                      f"tenant {t.get('name')} carries {key}")
        # Only a colocation of two or more tenants registers
        # "<name>." subtrees; a lone tenant's stats land unprefixed.
        coloc = len(tenants) > 1
        subtrees = {n[:-len(".daemon.ticks")] for n in stats
                    if n.endswith(".daemon.ticks")
                    and n != "engine.daemon.ticks"}
        expected = {t.get("name") for t in tenants} if coloc else set()
        check(subtrees == expected,
              f"<name>.daemon.ticks subtrees exist exactly for a "
              f"colocation ({len(tenants)} rows, {len(subtrees)} "
              f"subtrees)")
        if r["policy"].startswith("PACT"):
            prefix = tenants[0].get("name", "") + "." if coloc else ""
            check(f"{prefix}pact.ticks" in stats,
                  "policy stat hierarchy present")
        # Per-phase daemon accounting: for every daemon (machine-wide
        # or per-tenant subtree), pact.daemon.tick_cycles is defined as
        # the exact sum of the four phase counters.
        phase_suffixes = ("attribute_cycles", "select_cycles",
                          "migrate_cycles", "lruscan_cycles")
        for name in sorted(stats):
            if not name.endswith("pact.daemon.tick_cycles"):
                continue
            prefix = name[:-len("tick_cycles")]
            phases = [stats.get(prefix + s) for s in phase_suffixes]
            check(all(isinstance(v, (int, float)) for v in phases),
                  f"{prefix}* carries all four phase counters")
            if all(isinstance(v, (int, float)) for v in phases):
                check(sum(phases) == stats[name],
                      f"{name} equals the sum of its four phases")
        # pact.manifest/4: every ok result carries distribution stats.
        dists = r.get("distributions")
        check(isinstance(dists, dict) and dists,
              "result carries a distributions object")
        if isinstance(dists, dict):
            check("engine.dist.migration.latency" in dists,
                  "engine distribution hierarchy present")
            for name, d in dists.items():
                validate_distribution(name, d)
        # pact.manifest/5: every ok result carries migration-txn
        # outcome counters, consistent with each other.
        txn = r.get("txn")
        check(isinstance(txn, dict), "result carries a txn object")
        if isinstance(txn, dict):
            check(all(isinstance(txn.get(k), int) and txn[k] >= 0
                      for k in TXN_KEYS),
                  "txn counters present and non-negative")
            check(sorted(txn.keys()) == sorted(TXN_KEYS),
                  "txn object carries exactly the schema keys")
            if all(isinstance(txn.get(k), int) for k in TXN_KEYS):
                check(txn["committed"] + txn["aborted"] -
                      txn["retries"] == txn["prepared"],
                      "txn ledger balances "
                      "(committed + aborted - retries == prepared)")


def validate_distribution(name, d):
    """Shape-check one manifest distribution snapshot."""
    ok = (isinstance(d, dict) and
          all(k in d for k in ("count", "sum", "max", "p50", "p90",
                               "p99", "bins")))
    if not ok:
        check(False, f"distribution {name} carries the summary keys")
        return
    bins = d["bins"]
    shaped = (isinstance(bins, list) and
              all(isinstance(p, list) and len(p) == 2 and
                  isinstance(p[0], int) and 0 <= p[0] < DIST_NUM_BINS and
                  isinstance(p[1], int) and p[1] > 0 for p in bins))
    indices = [p[0] for p in bins] if shaped else []
    shaped = shaped and indices == sorted(indices) and \
        len(indices) == len(set(indices))
    total = sum(p[1] for p in bins) if shaped else -1
    consistent = shaped and total == d["count"]
    quantiles = d["count"] == 0 or \
        (d["p50"] <= d["p90"] <= d["p99"] <= d["max"])
    if not (shaped and consistent and quantiles):
        check(False, f"distribution {name} is well-formed "
                     f"(sparse ascending bins summing to count, "
                     f"ordered quantiles)")
        return
    check(True, f"distribution {name} well-formed ({d['count']} samples)")


def validate_poisoned_sweep(path):
    print(f"poisoned sweep: {path.name}")
    validate_manifest(path)
    doc = json.loads(path.read_text())
    results = doc.get("results", [])
    check(len(results) == 3, "every sweep slot produced a record")
    by_policy = {r.get("policy"): r for r in results}
    bogus = by_policy.get("BogusPolicy", {})
    check(bogus.get("ok") is False, "unknown policy recorded as failed")
    check(bogus.get("error", {}).get("kind") == "PolicyError",
          "failure kind is PolicyError")
    check("BogusPolicy" in bogus.get("error", {}).get("message", ""),
          "failure message names the policy")
    for name in ("PACT", "NoTier"):
        check(by_policy.get(name, {}).get("ok") is True,
              f"{name} survived the poisoned sweep")


def validate_timeseries(path):
    print(f"timeseries: {path.name}")
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    check(len(rows) >= 2, "header plus at least one window")
    header, body = rows[0], rows[1:]
    check(header.get("schema") == TIMESERIES_SCHEMA,
          f"schema tag is {TIMESERIES_SCHEMA}")
    check(header.get("window_cycles", 0) > 0, "window length recorded")
    fields = header.get("fields", [])
    names = [f["name"] for f in fields]
    kinds = {f["name"]: f["kind"] for f in fields}
    check(len(names) >= 20 and names == sorted(names),
          "field layout is substantial and name-sorted")
    check(all(f["kind"] in ("counter", "gauge") for f in fields),
          "field kinds are counter/gauge")
    # pact.timeseries/2: the header lists distribution names and each
    # row summarizes the window's delta histogram per distribution.
    dist_names = header.get("distributions")
    check(isinstance(dist_names, list) and
          dist_names == sorted(dist_names),
          "header distribution list present and name-sorted")
    dist_names = dist_names if isinstance(dist_names, list) else []

    prev_t1 = 0
    for i, row in enumerate(body):
        if row.get("window") != i:
            check(False, f"window indices consecutive (row {i})")
            break
        if not (row.get("t0", -1) >= prev_t1 - 0
                and row.get("t1", -1) > row.get("t0", 0) - 1):
            check(False, f"timestamps monotone (row {i})")
            break
        prev_t1 = row["t1"]
        stats = row.get("stats", {})
        if sorted(stats.keys()) != names:
            check(False, f"row {i} fields match the header layout")
            break
        bad = [n for n, v in stats.items()
               if kinds[n] == "counter" and v < 0]
        if bad:
            check(False, f"counter deltas non-negative (row {i}: {bad})")
            break
        dist = row.get("dist", {})
        if sorted(dist.keys()) != dist_names:
            check(False, f"row {i} dist keys match the header list")
            break
        bad_dist = [n for n, d in dist.items()
                    if not (isinstance(d, dict) and
                            d.get("count", -1) >= 0 and
                            all(k in d for k in ("p50", "p90", "p99")))]
        if bad_dist:
            check(False,
                  f"dist rows carry count/p50/p90/p99 (row {i}: "
                  f"{bad_dist})")
            break
    else:
        check(True, f"{len(body)} rows consistent with the header")


def validate_trace(path):
    print(f"trace: {path.name}")
    doc = json.loads(path.read_text())
    events = doc.get("traceEvents", [])
    check(isinstance(events, list) and events, "traceEvents non-empty")
    phases = set()
    ok = True
    for e in events:
        phases.add(e.get("ph"))
        if e.get("ph") == "X":
            ok = ok and e.get("ts") is not None and e.get("dur") is not None
        if e.get("ph") in ("X", "C", "M"):
            ok = ok and bool(e.get("name"))
    check(ok, "every event is well-formed")
    check("X" in phases, "complete ('X') span events present")
    check("M" in phases, "thread-name metadata present")
    names = {e.get("name") for e in events}
    check("daemon.tick" in names, "daemon ticks traced")


def trace_store_checksum(data):
    """FNV-1a-64 over little-endian 8-byte words, tail bytes singly —
    the same function as src/trace_store/trace_store.cc."""
    h = 0xCBF29CE484222325
    prime = 0x100000001B3
    mask = (1 << 64) - 1
    whole = len(data) - (len(data) % 8)
    for i in range(0, whole, 8):
        w = int.from_bytes(data[i:i + 8], "little")
        h = ((h ^ w) * prime) & mask
    for b in data[whole:]:
        h = ((h ^ b) * prime) & mask
    return h


def validate_trace_store_file(path):
    """Header/checksum-check one .pacttrace file.

    Returns a list of error strings; empty means the file is sound.
    """
    errors = []

    def need(cond, msg):
        if not cond:
            errors.append(f"{path}: {msg}")

    try:
        data = pathlib.Path(path).read_bytes()
    except OSError as e:
        return [f"{path}: unreadable ({e})"]
    if len(data) < 64:
        return [f"{path}: shorter than the 64-byte header"]
    need(data[:8] == TRACE_STORE_MAGIC,
         f"magic is {TRACE_STORE_MAGIC.decode()}")
    version = int.from_bytes(data[8:12], "little")
    need(version == TRACE_STORE_VERSION,
         f"schema version is {TRACE_STORE_VERSION} (got {version})")
    file_bytes = int.from_bytes(data[32:40], "little")
    need(file_bytes == len(data),
         f"header length {file_bytes} matches file size {len(data)}")
    checksum = int.from_bytes(data[40:48], "little")
    need(checksum == trace_store_checksum(data[64:]),
         "payload checksum verifies")
    return errors


def validate_trace_store_tree(target):
    """Standalone --trace-store entry: one file or every .pacttrace
    under a directory."""
    target = pathlib.Path(target)
    files = sorted(target.glob("*.pacttrace")) if target.is_dir() \
        else [target]
    check(bool(files), f"{target} contains .pacttrace files")
    for f in files:
        errors = validate_trace_store_file(f)
        for e in errors:
            print(f"  FAIL: {e}")
            failures.append(e)
        if not errors:
            print(f"  ok: {f.name} header and checksum verify")


def run_store_cli(cli, outdir, tag, jobs, workload, scale, trace_dir):
    """One CLI run with an optional --trace-dir; returns (manifest
    path, stderr text)."""
    outdir = pathlib.Path(outdir)
    manifest = outdir / f"store.{tag}.json"
    env = dict(os.environ, PACT_JOBS=str(jobs))
    cmd = [
        cli,
        "--workload", workload,
        "--policy", "PACT",
        "--scale", str(scale),
        "--out-json", str(manifest),
    ]
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir)]
    print(f"+ PACT_JOBS={jobs} {' '.join(cmd)}")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"pactsim_cli failed with exit code {proc.returncode}")
    return manifest, proc.stderr


def validate_trace_store_e2e(cli, tmp, workload, scale):
    """Cold-write/warm-read through the real CLI."""
    tmp = pathlib.Path(tmp)
    tdir = tmp / "traces"

    print("trace store: cold vs warm")
    base, _ = run_store_cli(cli, tmp, "nostore", 4, workload, scale,
                            None)
    cold, cold_err = run_store_cli(cli, tmp, "cold", 4, workload,
                                   scale, tdir)
    check("trace-store: source=generated" in cold_err,
          "cold run reports source=generated")
    warm, warm_err = run_store_cli(cli, tmp, "warm", 4, workload,
                                   scale, tdir)
    check("trace-store: source=disk generation_ms=0" in warm_err,
          "warm run loads from disk with zero generation time")
    check(cold.read_bytes() == warm.read_bytes(),
          "cold and warm manifests byte-identical")
    check(base.read_bytes() == cold.read_bytes(),
          "manifest byte-identical with the store off vs on")

    stores = sorted(tdir.glob("*.pacttrace"))
    check(len(stores) == 1, "cold run persisted exactly one bundle")
    for f in stores:
        errors = validate_trace_store_file(f)
        for e in errors:
            print(f"  FAIL: {e}")
            failures.append(e)
        if not errors:
            print(f"  ok: {f.name} header and checksum verify")

    print("trace store: PACT_JOBS=1 vs PACT_JOBS=4 generation")
    d1, d4 = tmp / "traces-j1", tmp / "traces-j4"
    m1, _ = run_store_cli(cli, tmp, "j1", 1, workload, scale, d1)
    m4, _ = run_store_cli(cli, tmp, "j4", 4, workload, scale, d4)
    check(m1.read_bytes() == m4.read_bytes(),
          "manifest byte-identical across job counts with store on")
    f1 = sorted(d1.glob("*.pacttrace"))
    f4 = sorted(d4.glob("*.pacttrace"))
    check(len(f1) == 1 and len(f4) == 1,
          "both job counts persisted one bundle")
    if len(f1) == 1 and len(f4) == 1:
        check(f1[0].name == f4[0].name,
              "store file names agree across job counts")
        check(f1[0].read_bytes() == f4[0].read_bytes(),
              "persisted traces byte-identical across job counts")


def run_tenants_cli(cli, outdir, jobs, tenants, scale):
    """One multi-tenant CLI run; returns the manifest path."""
    outdir = pathlib.Path(outdir)
    manifest = outdir / f"tenants{tenants}.j{jobs}.json"
    env = dict(os.environ, PACT_JOBS=str(jobs))
    cmd = [
        cli,
        "--workload", "masim-coloc",
        "--tenants", str(tenants),
        "--policy", "PACT",
        "--scale", str(scale),
        "--out-json", str(manifest),
    ]
    print(f"+ PACT_JOBS={jobs} {' '.join(cmd)}")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"pactsim_cli failed with exit code {proc.returncode}")
    return manifest


def validate_tenants_e2e(cli, tmp, scale):
    """Multi-tenant mode through the real CLI: a 4-tenant colocation
    run produces a manifest with one row and one stat subtree per
    tenant, byte-identical between PACT_JOBS=1 and PACT_JOBS=4."""
    n = 4
    m1 = run_tenants_cli(cli, tmp, 1, n, scale)
    m4 = run_tenants_cli(cli, tmp, 4, n, scale)

    validate_manifest(m1)
    doc = json.loads(m1.read_text())
    check(doc.get("params", {}).get("mode") == "tenants",
          "manifest records mode=tenants")
    r = doc["results"][0]
    tenants = r.get("tenants", [])
    check(len(tenants) == n, f"result carries {n} tenant rows")
    names = [t.get("name") for t in tenants]
    check(names == [f"tenant{i}" for i in range(n)],
          "tenant rows are tenant0..tenant3 in order")
    stats = r.get("stats", {})
    for i in range(n):
        check(stats.get(f"tenant{i}.daemon.ticks", 0) > 0,
              f"tenant{i} stat subtree present with live daemon")
    check(sum(stats.get(f"tenant{i}.daemon.ticks", 0)
              for i in range(n)) == stats.get("engine.daemon.ticks"),
          "per-tenant daemon ticks sum to the machine total")
    check(all(t.get("retired_ops", 0) > 0 for t in tenants),
          "every tenant retired ops")

    print("tenant determinism: PACT_JOBS=1 vs PACT_JOBS=4")
    check(m1.read_bytes() == m4.read_bytes(),
          "tenant manifest byte-identical across job counts")


def run_events_cli(cli, outdir, jobs, tenants, scale, faults):
    """One fault-injected multi-tenant run with --events and
    --trace-out; returns (manifest path, events path, trace path)."""
    outdir = pathlib.Path(outdir)
    manifest = outdir / f"events{tenants}.j{jobs}.json"
    events = outdir / f"events{tenants}.j{jobs}.jsonl"
    trace = outdir / f"events{tenants}.j{jobs}.trace.json"
    env = dict(os.environ, PACT_JOBS=str(jobs))
    cmd = [
        cli,
        "--workload", "masim-coloc",
        "--tenants", str(tenants),
        "--policy", "PACT",
        "--scale", str(scale),
        "--faults", faults,
        "--events", str(events),
        "--trace-out", str(trace),
        "--out-json", str(manifest),
    ]
    print(f"+ PACT_JOBS={jobs} {' '.join(cmd)}")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"pactsim_cli failed with exit code {proc.returncode}")
    return manifest, events, trace


# Journal payload keys required per event kind (pact.events/2).
EVENT_PAYLOAD = {
    "pebs_sample": ("src_tier", "latency"),
    "bin_assign": ("pac", "bin", "mlp"),
    "promote_enqueue": ("pac", "bin"),
    "demote_enqueue": ("pac", "bin"),
    "daemon_tick": ("latency",),
    "txn_prepare": ("src_tier", "dst_tier", "pages"),
    "txn_retry": ("attempt", "latency"),
    "txn_commit": ("attempt", "src_tier", "dst_tier", "pages", "latency"),
    "txn_abort": ("reason", "attempt", "src_tier", "dst_tier", "pages",
                  "latency"),
    "txn_admit_reject": ("src_tier", "dst_tier", "pages"),
}


def validate_events_journal(path):
    """Schema/consistency-check a pact.events/2 journal; returns the
    parsed event list."""
    print(f"events: {path.name}")
    lines = path.read_text().splitlines()
    check(len(lines) >= 2, "header plus at least one event")
    header = json.loads(lines[0])
    check(header.get("schema") == EVENTS_SCHEMA,
          f"schema tag is {EVENTS_SCHEMA}")
    check(header.get("capacity", 0) > 0, "ring capacity recorded")
    emitted, dropped = header.get("emitted", 0), header.get("dropped", 0)
    check(emitted > 0, "journal recorded events")
    held = min(emitted, header.get("capacity", 0))
    check(len(lines) - 1 == held,
          f"line count matches held events ({held})")
    events = [json.loads(line) for line in lines[1:]]
    seqs = [e.get("seq") for e in events]
    check(seqs == list(range(emitted - held, emitted)),
          "seq numbers are consecutive and end at emitted-1")
    check(all(e.get("kind") in EVENT_KINDS for e in events),
          "every event kind is known")
    # Events are emission-ordered (seq), not timestamp-sorted: cores
    # advance in bounded slices and may overshoot a window boundary by
    # up to one slice before the daemon tick is stamped with the
    # nominal boundary time, so `now` may step back by at most that.
    slice_cycles = 100000
    peak, bounded = 0, True
    for now in (e.get("now") for e in events):
        bounded = bounded and now >= peak - slice_cycles
        peak = max(peak, now)
    check(bounded,
          "event cycles are monotone within one slice of jitter")
    payload_ok = all(
        all(k in e for k in EVENT_PAYLOAD[e["kind"]])
        for e in events if e.get("kind") in EVENT_PAYLOAD)
    check(payload_ok, "per-kind payload keys present")
    kinds = {e.get("kind") for e in events}
    # The transaction lifecycle is the only migration record; the
    # retryable fault classes must leave retries in the journal.
    for needed in ("pebs_sample", "bin_assign", "promote_enqueue",
                   "daemon_tick", "txn_prepare", "txn_commit",
                   "txn_abort", "txn_retry"):
        check(needed in kinds, f"journal contains {needed} events")
    reasons = {e.get("reason") for e in events
               if e.get("kind") == "txn_abort"}
    check(reasons and reasons <= TXN_ABORT_REASONS,
          f"txn_abort reasons drawn from the known vocabulary "
          f"({sorted(reasons)})")
    check("contention" in reasons,
          "fault injection produced contention aborts")
    tenants = {e.get("tenant") for e in events}
    check(len(tenants) >= 2, "events span multiple tenant lanes")
    return events


def validate_migration_slices(path):
    """Every async 'e' in the merged trace closes an open 'b' of the
    same (name, id), and no 'b' is left open: one slice per
    transaction attempt."""
    print(f"migration slices: {path.name}")
    doc = json.loads(path.read_text())
    depth, begins, orphans = {}, 0, 0
    for e in doc.get("traceEvents", []):
        if e.get("ph") not in ("b", "e"):
            continue
        key = (e.get("name"), e.get("id"))
        if e["ph"] == "b":
            depth[key] = depth.get(key, 0) + 1
            begins += 1
        elif depth.get(key, 0) > 0:
            depth[key] -= 1
        else:
            orphans += 1
    check(begins > 0, "migration slices traced")
    check(orphans == 0, f"every 'e' closes an open 'b' ({orphans} do not)")
    left = sum(depth.values())
    check(left == 0, f"no 'b' left open ({left} are)")


def find_provenance_page(events):
    """A promoted page whose full decision chain survived in the ring:
    binning decision, promote enqueue, transaction prepare + commit."""
    needed = {"bin_assign", "promote_enqueue", "txn_prepare",
              "txn_commit"}
    by_page = {}
    for e in events:
        if e.get("kind") in needed and e.get("dst_tier", 0) == 0:
            by_page.setdefault(e["page"], set()).add(e["kind"])
    for page, kinds in sorted(by_page.items()):
        if kinds == needed:
            return page
    return None


def find_retried_page(events):
    """A page whose migration aborted, retried, and then committed —
    the full transactional recovery arc in one provenance chain."""
    needed = {"txn_abort", "txn_retry", "txn_commit"}
    by_page = {}
    for e in events:
        if e.get("kind") in needed:
            by_page.setdefault(e["page"], set()).add(e["kind"])
    for page, kinds in sorted(by_page.items()):
        if kinds == needed:
            return page
    return None


def run_inspect(inspect, args_list):
    cmd = [inspect] + [str(a) for a in args_list]
    print(f"+ {' '.join(cmd)}")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def validate_inspect_e2e(inspect, manifest, events_path, page):
    """Drive the pact_inspect reader over freshly produced artifacts."""
    print("pact-inspect: summary/dist/diff/explain")
    rc, out = run_inspect(inspect, ["summary", manifest])
    check(rc == 0 and "distributions" in out,
          "summary renders the manifest with distributions")
    rc, out = run_inspect(inspect, ["dist", manifest,
                                    "engine.dist.migration.latency"])
    check(rc == 0 and "p99" in out, "dist prints percentile tables")
    rc, out = run_inspect(inspect, ["diff", manifest, manifest])
    check(rc == 0 and "0 differing stat(s)" in out,
          "self-diff reports zero differing stats")
    rc, out = run_inspect(inspect, ["explain", events_path, page])
    chain_ok = all(k in out for k in
                   ("bin_assign", "promote_enqueue", "txn_prepare",
                    "txn_commit", "pac=", "bin="))
    check(rc == 0 and chain_ok,
          f"explain reconstructs page {page}'s provenance chain")


def validate_inspect_txn(inspect, events_path, page):
    """explain on an aborted-then-retried page must render the
    transaction lifecycle: the abort with its reason, the retry with
    its attempt count, and the eventual commit."""
    rc, out = run_inspect(inspect, ["explain", events_path, page])
    arc_ok = all(k in out for k in
                 ("txn_abort", "txn_retry", "txn_commit", "reason=",
                  "attempt="))
    check(rc == 0 and arc_ok,
          f"explain renders page {page}'s abort/retry/commit arc")


def validate_events_e2e(cli, inspect, tmp, scale):
    """The decision-provenance pipeline end to end: fault-injected
    multi-tenant run, journal schema, jobs byte-identity, and the
    pact_inspect reader over the results."""
    n = 4
    # Contention (non-retryable) plus mid-copy aborts (retryable), so
    # the journal carries both a bare abort and the abort/retry/commit
    # arc.
    faults = "migabort:p=0.2;midabort:p=0.3,at=0.5"
    m1, e1, t1 = run_events_cli(cli, tmp, 1, n, scale, faults)
    m4, e4, _ = run_events_cli(cli, tmp, 4, n, scale, faults)

    events = validate_events_journal(e1)
    validate_migration_slices(t1)
    print("events determinism: PACT_JOBS=1 vs PACT_JOBS=4")
    check(e1.read_bytes() == e4.read_bytes(),
          "events journal byte-identical across job counts")
    check(m1.read_bytes() == m4.read_bytes(),
          "manifest byte-identical across job counts")

    page = find_provenance_page(events)
    check(page is not None,
          "a promoted page retains its full provenance chain")
    retried = find_retried_page(events)
    check(retried is not None,
          "an aborted-then-retried page retains its transaction arc")
    if inspect and page is not None:
        validate_inspect_e2e(inspect, m1, e1, page)
    if inspect and retried is not None:
        validate_inspect_txn(inspect, e1, retried)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cli",
                    help="path to the pactsim_cli binary")
    ap.add_argument("--trace-store",
                    help="only validate a .pacttrace file (or every "
                         "one under a directory)")
    ap.add_argument("--trace-store-only", action="store_true",
                    help="with --cli: run only the cold/warm trace-"
                         "store checks")
    ap.add_argument("--tenants-only", action="store_true",
                    help="with --cli: run only the multi-tenant "
                         "manifest checks (masim-coloc4 --tenants)")
    ap.add_argument("--events-only", action="store_true",
                    help="with --cli: run only the decision-provenance "
                         "journal checks (fault-injected masim-coloc4)")
    ap.add_argument("--inspect",
                    help="path to the pact_inspect binary (drives the "
                         "reader over the --events-only artifacts)")
    ap.add_argument("--workload", default="silo")
    ap.add_argument("--scale", default="0.1")
    args = ap.parse_args()

    if args.trace_store:
        validate_trace_store_tree(args.trace_store)
        if failures:
            print(f"\n{len(failures)} check(s) failed")
            return 1
        print("\nall trace-store checks passed")
        return 0
    if not args.cli:
        ap.error("--cli is required unless --trace-store is given")

    if args.trace_store_only:
        with tempfile.TemporaryDirectory(prefix="pact-store-") as tmp:
            validate_trace_store_e2e(args.cli, tmp, args.workload,
                                     args.scale)
        if failures:
            print(f"\n{len(failures)} check(s) failed")
            return 1
        print("\nall trace-store checks passed")
        return 0

    if args.tenants_only:
        with tempfile.TemporaryDirectory(prefix="pact-tenants-") as tmp:
            validate_tenants_e2e(args.cli, tmp, args.scale)
        if failures:
            print(f"\n{len(failures)} check(s) failed")
            return 1
        print("\nall tenant-mode checks passed")
        return 0

    if args.events_only:
        with tempfile.TemporaryDirectory(prefix="pact-events-") as tmp:
            validate_events_e2e(args.cli, args.inspect, tmp, args.scale)
        if failures:
            print(f"\n{len(failures)} check(s) failed")
            return 1
        print("\nall provenance checks passed")
        return 0

    with tempfile.TemporaryDirectory(prefix="pact-artifacts-") as tmp:
        j1 = run_cli(args.cli, tmp, 1, args.workload, args.scale)
        j4 = run_cli(args.cli, tmp, 4, args.workload, args.scale)

        validate_manifest(j1["manifest"])
        validate_timeseries(j1["timeseries"])
        validate_trace(j1["trace"])

        print("determinism: PACT_JOBS=1 vs PACT_JOBS=4")
        check(j1["timeseries"].read_bytes() == j4["timeseries"].read_bytes(),
              "time-series JSONL byte-identical across job counts")
        check(j1["manifest"].read_bytes() == j4["manifest"].read_bytes(),
              "manifest byte-identical across job counts")
        check(j1["trace"].read_bytes() == j4["trace"].read_bytes(),
              "trace byte-identical across job counts")

        p1 = run_poisoned_sweep(args.cli, tmp, 1, args.workload,
                                args.scale)
        p4 = run_poisoned_sweep(args.cli, tmp, 4, args.workload,
                                args.scale)
        validate_poisoned_sweep(p1)
        check(p1.read_bytes() == p4.read_bytes(),
              "poisoned-sweep manifest byte-identical across job counts")

    validate_bad_flags(args.cli)

    if failures:
        print(f"\n{len(failures)} check(s) failed")
        return 1
    print("\nall artifact checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
