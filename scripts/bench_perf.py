#!/usr/bin/env python3
"""Record the repo's performance trajectory into BENCH_hotpath.json.

Runs the bench/hotpath google-benchmark binary (end-to-end Engine runs,
items_per_second = retired trace ops per second), parses its JSON
output, and appends one labelled entry to the tracked artifact:

    scripts/bench_perf.py --bin build/bench/hotpath --label after-pr4

Entries with the same label are replaced (reruns are idempotent), so
the artifact reads as an ordered trajectory: one entry per recorded
point, each carrying every benchmark's ops/sec. When at least two
entries exist the script prints a per-benchmark speedup table of the
new entry against the previous one.

For a tracked measurement build with the perf configuration:

    cmake -B build-perf -S . -DCMAKE_BUILD_TYPE=Release -DPACT_LTO=ON
    cmake --build build-perf -j --target hotpath

The workload scale is pinned (default 0.5) via PACT_SCALE so entries
stay comparable across commits, and only Release binaries are accepted
into the trajectory (the binary self-reports via the pact_build_type
context key; --allow-debug records a tagged entry anyway). --scale/
--filter/--allow-debug exist for the bench_perf_smoke ctest entry,
which runs a tiny configuration and only checks the artifact schema
(scripts/validate_artifacts.py --bench-json).

Regression gate: --check <baseline-label> skips running anything and
instead compares the artifact's *latest* entry against the best prior
result per benchmark — the highest items_per_second any earlier entry
recorded for that benchmark, and never less than the named baseline
entry — exiting non-zero if any benchmark regressed by more than
--threshold percent (default 10):

    scripts/bench_perf.py --check pr6-multicore

Comparing against the per-benchmark best (not just the named label)
closes the ratchet-decay hole: a PR that regresses a benchmark an
intermediate entry had improved would otherwise pass by picking the
older, slower label as its baseline.

--self-test exercises the gate against synthetic trajectories (no
benchmark binary needed) and exits non-zero on any logic regression.

Pure standard library.
"""

import argparse
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

SCHEMA = "pact.bench_perf/1"


def run_benchmark(binary, scale, bench_filter, repetitions):
    cmd = [binary, "--benchmark_format=json"]
    if bench_filter:
        cmd.append(f"--benchmark_filter={bench_filter}")
    if repetitions > 1:
        cmd += [f"--benchmark_repetitions={repetitions}",
                "--benchmark_report_aggregates_only=true"]
    env = dict(os.environ, PACT_SCALE=str(scale))
    env.pop("PACT_QUICK", None)  # would silently override the scale
    print(f"+ PACT_SCALE={scale} {' '.join(cmd)}", file=sys.stderr)
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"benchmark binary failed with exit code {proc.returncode}")
    return json.loads(proc.stdout)


def report_build_type(report):
    """The benched binary's own build type.

    bench/hotpath records it as the "pact_build_type" custom context
    key (the stock library_build_type only describes how the
    google-benchmark library was compiled). Unknown when the binary
    predates the key.
    """
    return report.get("context", {}).get("pact_build_type", "unknown")


def extract_entry(label, scale, report):
    """One artifact entry from a google-benchmark JSON report."""
    benchmarks = {}
    for b in report.get("benchmarks", []):
        # With aggregates, keep the median; plain runs have run_type
        # "iteration" and no aggregate_name.
        if b.get("run_type") == "aggregate" and \
                b.get("aggregate_name") != "median":
            continue
        name = b["name"]
        for suffix in ("_median",):
            if name.endswith(suffix):
                name = name[: -len(suffix)]
        benchmarks[name] = {
            "items_per_second": b.get("items_per_second", 0.0),
            "real_time_ms": b.get("real_time", 0.0),
            "iterations": b.get("iterations", 0),
        }
    if not benchmarks:
        sys.exit("benchmark report contained no benchmarks")
    ctx = report.get("context", {})
    return {
        "label": label,
        "scale": scale,
        "host": {
            "num_cpus": ctx.get("num_cpus", 0),
            "library_build_type": ctx.get("library_build_type", ""),
        },
        "build_type": report_build_type(report),
        "date": ctx.get("date", ""),
        "benchmarks": benchmarks,
    }


def load_artifact(path):
    if path.exists():
        doc = json.loads(path.read_text())
        if doc.get("schema") != SCHEMA:
            sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
        return doc
    return {"schema": SCHEMA, "entries": []}


def print_comparison(prev, cur):
    print(f"\nspeedup: {cur['label']} vs {prev['label']}")
    width = max((len(n) for n in cur["benchmarks"]), default=10)
    for name, b in sorted(cur["benchmarks"].items()):
        p = prev["benchmarks"].get(name)
        if not p or not p["items_per_second"]:
            continue
        ratio = b["items_per_second"] / p["items_per_second"]
        print(f"  {name:<{width}}  {p['items_per_second'] / 1e6:8.2f} -> "
              f"{b['items_per_second'] / 1e6:8.2f} Mops/s   {ratio:.2f}x")


def best_prior(entries, base, name):
    """Best items_per_second any prior entry recorded for @name.

    Candidates are every entry except the latest, plus the named
    baseline entry itself (so a one-entry artifact self-compares at
    ratio 1.0, the bench_perf_check smoke contract). Returns
    (value, label) or (None, None) when no candidate has the bench.
    """
    candidates = list(entries[:-1])
    if all(e is not base for e in candidates):
        candidates.append(base)
    best_v, best_label = None, None
    for e in candidates:
        b = e.get("benchmarks", {}).get(name)
        if not b or not b.get("items_per_second"):
            continue
        v = b["items_per_second"]
        if best_v is None or v > best_v:
            best_v, best_label = v, e.get("label")
    return best_v, best_label


def check_regression(path, baseline_label, threshold_pct):
    """Gate the latest entry against the best prior entry per bench.

    The named baseline must exist (it anchors the trajectory and is
    always a comparison candidate), but each benchmark is judged
    against the *best* items_per_second any prior entry recorded for
    it — a regression vs an intermediate improvement fails the gate
    even if the older named label would have let it pass.

    Returns the process exit code: 0 when every benchmark of the
    latest entry is within threshold_pct of its best prior result, 1
    when any regressed further. Benchmarks with no prior result, and
    prior benchmarks the latest entry dropped, are reported but do not
    fail the gate (the set evolves across PRs).
    """
    if not path.exists():
        sys.exit(f"{path}: no artifact to check")
    doc = load_artifact(path)
    if not doc["entries"]:
        sys.exit(f"{path}: artifact has no entries")
    by_label = {e.get("label"): e for e in doc["entries"]}
    base = by_label.get(baseline_label)
    if base is None:
        sys.exit(f"{path}: no entry labelled {baseline_label!r} "
                 f"(have: {', '.join(sorted(by_label))})")
    cur = doc["entries"][-1]

    print(f"check: {cur['label']} vs best prior entry per benchmark "
          f"(anchor {base['label']}, threshold {threshold_pct:.0f}%)")
    regressions = []
    prior_names = set()
    for e in doc["entries"][:-1] + [base]:
        prior_names.update(e.get("benchmarks", {}))
    width = max((len(n) for n in cur["benchmarks"]), default=10)
    for name, b in sorted(cur["benchmarks"].items()):
        best_v, best_label = best_prior(doc["entries"], base, name)
        if not best_v:
            print(f"  {name:<{width}}  (no prior entry; skipped)")
            continue
        ratio = b["items_per_second"] / best_v
        verdict = f"ok          (best: {best_label})"
        if ratio < 1.0 - threshold_pct / 100.0:
            verdict = f"REGRESSED vs {best_label}"
            regressions.append(name)
        print(f"  {name:<{width}}  {best_v / 1e6:8.2f} -> "
              f"{b['items_per_second'] / 1e6:8.2f} Mops/s   "
              f"{ratio:.3f}x  {verdict}")
    for name in sorted(prior_names - set(cur["benchmarks"])):
        print(f"  {name:<{width}}  (dropped since baseline; skipped)")
    if regressions:
        print(f"FAIL: {len(regressions)} benchmark(s) regressed >"
              f"{threshold_pct:.0f}% vs their best prior entry: "
              f"{', '.join(regressions)}")
        return 1
    print("ok: no benchmark regressed beyond the threshold")
    return 0


def self_test():
    """Unit-test the gate logic against synthetic artifacts.

    Covers the ratchet-decay hole directly: a latest entry that beats
    the named baseline but regresses vs an intermediate best must
    fail, and the same trajectory within threshold must pass.
    """
    import tempfile

    def artifact(tmpdir, entries):
        p = pathlib.Path(tmpdir) / "bench.json"
        p.write_text(json.dumps({"schema": SCHEMA, "entries": entries}))
        return p

    def entry(label, **ops):
        return {"label": label, "benchmarks": {
            n: {"items_per_second": v * 1e6, "real_time_ms": 1.0,
                "iterations": 1} for n, v in ops.items()}}

    failures = []

    def expect(desc, got, want):
        tag = "ok" if got == want else "FAIL"
        print(f"  {tag}: {desc} (exit {got}, want {want})")
        if got != want:
            failures.append(desc)

    with tempfile.TemporaryDirectory() as tmp:
        # Fast-then-slow: latest (120) beats the named seed (100) but
        # regresses >10% vs the intermediate best (150). The old
        # named-label-only gate passed this; the best-prior gate must
        # not.
        p = artifact(tmp, [entry("seed", engineRun=100),
                           entry("mid", engineRun=150),
                           entry("latest", engineRun=120)])
        expect("regression vs intermediate best fails even when the "
               "named baseline would pass",
               check_regression(p, "seed", 10.0), 1)

        # Same trajectory, latest within threshold of the best.
        p = artifact(tmp, [entry("seed", engineRun=100),
                           entry("mid", engineRun=150),
                           entry("latest", engineRun=145)])
        expect("within threshold of the best prior entry passes",
               check_regression(p, "seed", 10.0), 0)

        # Strictly worse than the named baseline still fails.
        p = artifact(tmp, [entry("seed", engineRun=100),
                           entry("latest", engineRun=50)])
        expect("regression vs the named baseline fails",
               check_regression(p, "seed", 10.0), 1)

        # One-entry self-compare (the bench_perf_check smoke): the
        # latest entry is the named baseline, ratio exactly 1.0.
        p = artifact(tmp, [entry("smoke", engineRun=100)])
        expect("single-entry self-compare passes at ratio 1.0",
               check_regression(p, "smoke", 10.0), 0)

        # A brand-new benchmark with no prior result is reported but
        # never gates.
        p = artifact(tmp, [entry("seed", engineRun=100),
                           entry("latest", engineRun=100,
                                 engineNew=1)])
        expect("benchmark with no prior entry is skipped",
               check_regression(p, "seed", 10.0), 0)

        # A benchmark a prior entry has but the latest entry lacks (a
        # retired bench family) is reported as dropped and never gates.
        p = artifact(tmp, [entry("seed", engineRun=100, engineOld=50),
                           entry("latest", engineRun=100)])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = check_regression(p, "seed", 10.0)
        expect("benchmark dropped since the baseline is skipped", code, 0)
        reported = any("engineOld" in line and "dropped since baseline"
                       in line for line in out.getvalue().splitlines())
        expect("benchmark dropped since the baseline is reported",
               0 if reported else 1, 0)

        # An unknown baseline label is a hard usage error.
        p = artifact(tmp, [entry("seed", engineRun=100)])
        try:
            check_regression(p, "nope", 10.0)
            expect("unknown baseline label exits non-zero", 0, 2)
        except SystemExit as e:
            expect("unknown baseline label exits non-zero",
                   0 if isinstance(e.code, int) and e.code == 0 else 1,
                   1)

    if failures:
        print(f"self-test FAILED: {len(failures)} case(s)")
        return 1
    print("self-test ok")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bin",
                    help="path to the bench/hotpath binary")
    ap.add_argument("--label",
                    help="entry label, e.g. 'seed' or 'after-pr4'")
    ap.add_argument("--check", metavar="BASELINE_LABEL",
                    help="compare the artifact's latest entry against "
                         "the best prior entry per benchmark (anchored "
                         "by this baseline label) instead of running; "
                         "exit 1 on any >threshold regression")
    ap.add_argument("--self-test", action="store_true",
                    help="run the regression-gate unit tests against "
                         "synthetic artifacts and exit")
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="--check regression threshold in percent "
                         "(default 10)")
    ap.add_argument("--out", default="BENCH_hotpath.json",
                    help="artifact path (default: BENCH_hotpath.json)")
    ap.add_argument("--scale", type=float, default=0.5,
                    help="pinned PACT_SCALE for the run (default 0.5)")
    ap.add_argument("--filter", default="",
                    help="--benchmark_filter regex (smoke runs)")
    ap.add_argument("--repetitions", type=int, default=1,
                    help="benchmark repetitions; >1 records the median")
    ap.add_argument("--allow-debug", action="store_true",
                    help="record an entry from a non-Release binary "
                         "anyway (tagged build_type=debug; smoke runs)")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if args.check:
        return check_regression(pathlib.Path(args.out), args.check,
                                args.threshold)
    if not args.bin or not args.label:
        ap.error("--bin and --label are required (unless using --check)")

    report = run_benchmark(args.bin, args.scale, args.filter,
                           args.repetitions)

    # Unoptimized numbers poison the trajectory: one debug entry makes
    # every later Release entry look like a 10x win. Refuse unless the
    # caller explicitly opts in (the entry still carries its tag).
    build_type = report_build_type(report)
    if build_type != "release" and not args.allow_debug:
        sys.exit(f"{args.bin} reports build type {build_type!r}; the "
                 "tracked trajectory only accepts Release binaries "
                 "(cmake -DCMAKE_BUILD_TYPE=Release). Pass "
                 "--allow-debug to record a tagged entry anyway.")

    entry = extract_entry(args.label, args.scale, report)

    out = pathlib.Path(args.out)
    doc = load_artifact(out)
    doc["entries"] = [e for e in doc["entries"]
                      if e.get("label") != args.label]
    doc["entries"].append(entry)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(doc['entries'])} entries)")

    # Self-check the artifact so a malformed write fails loudly here
    # rather than in a later bench_perf_smoke run.
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    import validate_artifacts
    errors = validate_artifacts.validate_bench_json(out)
    if errors:
        sys.exit("\n".join(f"FAIL: {e}" for e in errors))

    if len(doc["entries"]) >= 2:
        print_comparison(doc["entries"][-2], doc["entries"][-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
