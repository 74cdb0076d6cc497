#!/usr/bin/env python3
"""Measure a change against its parent in interleaved perfbench pairs.

    scripts/perf_pairs.py --parent <rev|dir> [--pairs 10]

The change is the working tree this script sits in. The parent is a
directory used as it is (labelled by its HEAD when it is a git
checkout, such as a `git clone` of the parent commit), or a git
revision checked out as a temporary `git worktree` under the build
directory. Both trees are measured with their own unchanged
`perfbench/run.py`, each built into its own directory (one shared
build when both are the same tree).

Every workload, the run length and each end-to-end metric's `better`
direction and `bound` come from the change's BENCHMARK.json. For each
workload the script runs N pairs (pair i uses seed i, and the side that
goes first alternates), then appends one row to BENCH_perfbench.json:
per metric the parent and change medians, their ratio, the change's
wins out of N, the parent's interquartile spread (a fraction of its
median) and a verdict:

    regression  the change's median is worse than the parent's by more
                than the bound
    unresolved  the parent's spread exceeds the bound
    gain        at least 90% of the pairs won, and the median moved by
                more than the parent's spread
    none        otherwise

The row also records the seeds, whether every pair's `digest` lines
were equal, each side's failed-run share, and in its `host` dict the
share of the host's CPU time stolen by other guests while the
workload's pairs ran (`steal_frac`, from /proc/stat; null where that
file is unreadable, absent in rows written before it was recorded). A row is a regression
when any metric is, or when the change's failed-run share rose. The
exit status is 0 once the rows are written, except that a tree paired
with itself exits 1 unless every digest matched (a self-pair is a
determinism check).

    scripts/perf_pairs.py --check [--out FILE]   schema check only
    scripts/perf_pairs.py --self-test            verdict logic, no runs

Pure standard library.
"""

import argparse
import contextlib
import datetime
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "pact.perf_pairs/1"
VERDICTS = ("gain", "none", "regression", "unresolved")
GAIN_WIN_SHARE = 0.9

ROW_KEYS = {
    "workload": str, "date": str, "host": dict, "parent": str,
    "change": str, "pairs": int, "seconds": (int, float),
    "scale": (int, float, type(None)), "seeds": list,
    "digests_equal": bool, "failed_share": dict, "incorrect_runs": dict,
    "metrics": dict, "verdict": str,
}
METRIC_KEYS = {
    "better": str, "bound": (int, float),
    "parent_median": (int, float), "change_median": (int, float),
    "ratio": (int, float, type(None)), "wins": int,
    "parent_iqr_frac": (int, float), "verdict": str,
}


def git(*args, tree=ROOT):
    return subprocess.run(["git", "-C", str(tree), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def describe(tree):
    """HEAD of a checkout, marked when it has local edits; else its path."""
    if not (tree / ".git").exists():
        return str(tree)
    try:
        head = git("rev-parse", "--short", "HEAD", tree=tree)
        dirty = git("status", "--porcelain", tree=tree)
        return head + ("+dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return str(tree)


@contextlib.contextmanager
def parent_tree(spec, build_dir):
    """The parent as a directory; a revision gets a temporary worktree."""
    if Path(spec).is_dir():
        tree = Path(spec).resolve()
        yield tree, describe(tree)
        return
    sha = git("rev-parse", "--verify", spec + "^{commit}")
    tree = build_dir / "parent-src"
    if tree.exists():
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove",
                        "--force", str(tree)], capture_output=True)
        shutil.rmtree(tree, ignore_errors=True)
    git("worktree", "prune")
    git("worktree", "add", "--detach", str(tree), sha)
    try:
        yield tree, sha[:12]
    finally:
        git("worktree", "remove", "--force", str(tree))


def run_once(tree, target_dir, workload, seed, seconds, scale):
    """One perfbench invocation: its metrics, digest and op counts."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    if scale is not None:
        cmd += ["--scale", str(scale)]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit(f"perf_pairs: {tree} printed no result for {workload} "
                 f"seed {seed} (exit {proc.returncode})")
    digest = next((ln.split()[2] for ln in lines
                   if ln.startswith("digest ")), None)
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "digest": digest,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": bool(result["correct"]),
    }


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def judge(parent, change, better, bound):
    """Summary and verdict of one metric over aligned pair samples."""
    pm, cm = statistics.median(parent), statistics.median(change)
    sign = 1.0 if better == "higher" else -1.0
    scale = abs(pm) if pm else 1.0
    improvement = sign * (cm - pm) / scale
    spread = iqr(parent) / scale
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    if improvement < -bound:
        verdict = "regression"
    elif spread > bound:
        verdict = "unresolved"
    elif wins >= math.ceil(GAIN_WIN_SHARE * len(parent)) and \
            improvement > spread:
        verdict = "gain"
    else:
        verdict = "none"
    return {
        "better": better, "bound": bound,
        "parent_median": pm, "change_median": cm,
        "ratio": cm / pm if pm else None,
        "wins": wins, "parent_iqr_frac": spread, "verdict": verdict,
    }


def cpu_ticks():
    """(steal, total) jiffies of the host's aggregate /proc/stat line,
    or None where it cannot be read."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    # user nice system idle iowait irq softirq steal; guest time is
    # already counted in user.
    ticks = [int(v) for v in fields[1:9]]
    return ticks[7], sum(ticks)


def steal_share(before, after):
    """Stolen share of the CPU time between two cpu_ticks() readings."""
    if before is None or after is None:
        return None
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def summarise(workload, pairs, bench, seeds, context):
    """One BENCH_perfbench.json row from N {parent, change} samples."""
    sides = {s: [p[s] for p in pairs] for s in ("parent", "change")}
    metrics = {}
    for m in bench["end_to_end"]:
        name = m["name"]
        metrics[name] = judge([r["metrics"][name] for r in sides["parent"]],
                              [r["metrics"][name] for r in sides["change"]],
                              m["better"], m["bound"])
    share = {s: failed_share(runs) for s, runs in sides.items()}
    verdicts = {m["verdict"] for m in metrics.values()}
    if share["change"] > share["parent"]:
        verdicts.add("regression")
    verdict = next((v for v in ("regression", "unresolved", "gain")
                    if v in verdicts), "none")
    return dict(context, workload=workload, pairs=len(pairs),
                seeds=list(seeds),
                digests_equal=all(p["parent"]["digest"] is not None and
                                  p["parent"]["digest"] ==
                                  p["change"]["digest"] for p in pairs),
                failed_share=share,
                incorrect_runs={s: sum(not r["correct"] for r in runs)
                                for s, runs in sides.items()},
                metrics=metrics, verdict=verdict)


def row_problems(row):
    """Schema violations of one row (empty when it is well formed)."""
    out = []
    for key, kind in ROW_KEYS.items():
        if not isinstance(row.get(key), kind) or \
                isinstance(row.get(key), bool) and kind is int:
            out.append(f"{row.get('workload')}: bad or missing '{key}'")
    if out:
        return out
    if row["verdict"] not in VERDICTS:
        out.append(f"{row['workload']}: verdict '{row['verdict']}'")
    if len(row["seeds"]) != row["pairs"] or row["pairs"] < 1:
        out.append(f"{row['workload']}: {len(row['seeds'])} seeds for "
                   f"{row['pairs']} pairs")
    for side in ("parent", "change"):
        if not isinstance(row["failed_share"].get(side), (int, float)) or \
                not isinstance(row["incorrect_runs"].get(side), int):
            out.append(f"{row['workload']}: no {side} failure counts")
    steal = row["host"].get("steal_frac")
    if steal is not None and (not isinstance(steal, (int, float)) or
                              isinstance(steal, bool) or
                              not 0 <= steal <= 1):
        out.append(f"{row['workload']}: host steal_frac {steal!r}")
    if not row["metrics"]:
        out.append(f"{row['workload']}: no metrics")
    for name, m in row["metrics"].items():
        for key, kind in METRIC_KEYS.items():
            if not isinstance(m.get(key), kind):
                out.append(f"{row['workload']}.{name}: bad '{key}'")
        if m.get("verdict") not in VERDICTS or \
                m.get("better") not in ("higher", "lower") or \
                not 0 <= m.get("wins", -1) <= row["pairs"]:
            out.append(f"{row['workload']}.{name}: inconsistent values")
    return out


def load(path):
    """The artifact's rows; exits on any schema violation."""
    if not path.exists():
        return []
    doc = json.loads(path.read_text())
    if doc.get("schema") != SCHEMA or not isinstance(doc.get("rows"), list):
        sys.exit(f"perf_pairs: {path} is not a {SCHEMA} artifact")
    problems = [p for row in doc["rows"] for p in row_problems(row)]
    if problems:
        sys.exit(f"perf_pairs: {path}: " + "; ".join(problems))
    return doc["rows"]


def save(path, rows):
    problems = [p for row in rows for p in row_problems(row)]
    if problems:
        sys.exit("perf_pairs: refusing to write: " + "; ".join(problems))
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"schema": SCHEMA, "rows": rows}, indent=1) +
                   "\n")
    tmp.replace(path)


def steal_note(row):
    steal = row["host"].get("steal_frac")
    return "" if steal is None else f"; host steal {100 * steal:.1f}%"


def table(rows):
    """The rows as a markdown table."""
    out = ["| workload | metric | parent | change | ratio | wins | "
           "parent IQR | verdict |", "|---|---|---|---|---|---|---|---|"]
    for row in rows:
        for name, m in row["metrics"].items():
            ratio = "-" if m["ratio"] is None else f"{m['ratio']:.3f}"
            out.append(
                f"| {row['workload']} | {name} | {m['parent_median']:.4g} | "
                f"{m['change_median']:.4g} | {ratio} | "
                f"{m['wins']}/{row['pairs']} | "
                f"{100 * m['parent_iqr_frac']:.1f}% | {m['verdict']} |")
        out.append(
            f"| {row['workload']} | digests equal: "
            f"{str(row['digests_equal']).lower()}; failed share "
            f"{row['failed_share']['parent']:.3f} -> "
            f"{row['failed_share']['change']:.3f}"
            f"{steal_note(row)} | | | | | | "
            f"**{row['verdict']}** |")
    return "\n".join(out)


def measure(args):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None \
        else bench["run_seconds"]
    build_dir = Path(args.build_dir).resolve()
    build_dir.mkdir(parents=True, exist_ok=True)
    out = Path(args.out)
    rows = load(out)
    seeds = range(1, args.pairs + 1)
    with parent_tree(args.parent, build_dir) as (parent, parent_label):
        self_pair = parent == ROOT
        trees = {"parent": (parent, build_dir / "parent"),
                 "change": (ROOT, build_dir / "change")}
        if self_pair:
            trees = {side: (ROOT, build_dir / "tree") for side in trees}
        context = {
            "date": datetime.date.today().isoformat(),
            "host": {"cpus": os.cpu_count() or 0},
            "parent": parent_label, "change": describe(ROOT),
            "seconds": seconds, "scale": args.scale,
        }
        new = []
        for w in bench["workloads"]:
            ticks = cpu_ticks()
            pairs = []
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 \
                    else ("change", "parent")
                pair = {}
                for side in order:
                    pair[side] = run_once(*trees[side], w["name"], seed,
                                          seconds, args.scale)
                    ops = pair[side]["metrics"].get("sim_ops_per_s", 0.0)
                    print(f"perf_pairs: {w['name']} pair {i + 1}/"
                          f"{args.pairs} seed {seed} {side}: "
                          f"{ops:.4g} ops/s", file=sys.stderr)
                pairs.append(pair)
            host = dict(context["host"],
                        steal_frac=steal_share(ticks, cpu_ticks()))
            new.append(summarise(w["name"], pairs, bench, seeds,
                                 dict(context, host=host)))
    save(out, rows + new)
    print(table(new))
    if self_pair and not all(r["digests_equal"] for r in new):
        print("perf_pairs: a tree paired with itself simulated "
              "differently", file=sys.stderr)
        return 1
    return 0


def self_test():
    """Verdict logic against synthetic pair sets; no binary is run."""
    bench = {"end_to_end": [
        {"name": "sim_ops_per_s", "better": "higher", "bound": 0.25},
        {"name": "setup_s", "better": "lower", "bound": 0.25}]}
    failures = []

    def sample(ops, setup=1.0, digest="d1", failed=0):
        return {"metrics": {"sim_ops_per_s": ops, "setup_s": setup},
                "digest": digest, "attempted": 10, "failed": failed,
                "correct": True}

    def row(parent_ops, change_ops, **change):
        pairs = [{"parent": sample(p), "change": sample(c, **change)}
                 for p, c in zip(parent_ops, change_ops)]
        return summarise("w", pairs, bench, range(1, len(pairs) + 1),
                         {"date": "2000-01-01", "host": {"cpus": 1},
                          "parent": "p", "change": "c", "seconds": 1,
                          "scale": None})

    def expect(desc, got, want):
        if got != want:
            failures.append(f"{desc}: got {got!r}, want {want!r}")

    base = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    gain = row(base, [v * 1.10 for v in base])
    expect("gain", gain["metrics"]["sim_ops_per_s"]["verdict"], "gain")
    expect("gain wins", gain["metrics"]["sim_ops_per_s"]["wins"], 10)
    expect("gain row", gain["verdict"], "gain")
    expect("gain digests", gain["digests_equal"], True)
    expect("lower-better unchanged", gain["metrics"]["setup_s"]["verdict"],
           "none")

    eight = [v * 1.10 for v in base[:8]] + [v * 0.99 for v in base[8:]]
    expect("8/10 wins is no gain",
           row(base, eight)["metrics"]["sim_ops_per_s"]["verdict"], "none")
    expect("no change", row(base, list(reversed(base)))["verdict"], "none")
    small = row(base, [v * 1.005 for v in base])
    expect("delta within spread",
           small["metrics"]["sim_ops_per_s"]["verdict"], "none")

    slow = row(base, [v * 0.70 for v in base])
    expect("regression", slow["metrics"]["sim_ops_per_s"]["verdict"],
           "regression")
    expect("regression row", slow["verdict"], "regression")
    expect("regression ratio",
           round(slow["metrics"]["sim_ops_per_s"]["ratio"], 6), 0.7)
    slower_setup = row(base, base, setup=1.5)
    expect("lower-better regression",
           slower_setup["metrics"]["setup_s"]["verdict"], "regression")

    noisy = [50.0, 150, 60, 140, 70, 130, 100, 100, 80, 120]
    wide = row(noisy, noisy)
    expect("unresolved", wide["metrics"]["sim_ops_per_s"]["verdict"],
           "unresolved")
    expect("unresolved row", wide["verdict"], "unresolved")

    expect("digest mismatch",
           row(base, base, digest="d2")["digests_equal"], False)
    expect("digest mismatch is not a verdict",
           row(base, base, digest="d2")["verdict"], "none")
    failing = row(base, base, failed=1)
    expect("failed share", failing["failed_share"]["change"], 0.1)
    expect("failed rise", failing["verdict"], "regression")

    expect("synthetic rows are well formed",
           [p for r in (gain, slow, wide, failing) for p in row_problems(r)],
           [])
    stolen = dict(gain, host={"cpus": 1, "steal_frac": 0.05})
    expect("steal share accepted", row_problems(stolen), [])
    expect("unreadable steal accepted",
           row_problems(dict(gain, host={"cpus": 1, "steal_frac": None})),
           [])
    expect("steal share range checked",
           bool(row_problems(dict(gain, host={"steal_frac": 1.5}))), True)
    expect("steal share", steal_share((10, 1000), (60, 2000)), 0.05)
    expect("steal share without ticks", steal_share(None, (1, 2)), None)
    expect("steal share over no time", steal_share((1, 5), (1, 5)), 0.0)
    expect("steal in table", "host steal 5.0%" in table([stolen]), True)
    expect("no steal in old rows", "steal" in table([gain]), False)
    broken = dict(gain, seeds=[1])
    expect("seed count checked", bool(row_problems(broken)), True)
    broken = dict(gain, verdict="maybe")
    expect("verdict checked", bool(row_problems(broken)), True)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pairs.json"
        save(path, [gain, slow, stolen])
        expect("round trip", load(path), [gain, slow, stolen])

    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    print(f"perf_pairs self-test: {len(failures)} failure(s)")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="parent revision or directory")
    ap.add_argument("--pairs", type=int, default=10,
                    help="interleaved pairs per workload (default 10)")
    ap.add_argument("--seconds", type=float,
                    help="seconds per run (default: BENCHMARK.json's "
                         "run_seconds)")
    ap.add_argument("--scale", type=float,
                    help="workload scale passed to pactbench (default: "
                         "its own)")
    ap.add_argument("--build-dir", default=str(ROOT / ".bench_build" /
                                               "pairs"),
                    help="where both trees are built")
    ap.add_argument("--out", default=str(ROOT / "BENCH_perfbench.json"),
                    help="artifact the rows are appended to")
    ap.add_argument("--check", action="store_true",
                    help="only check the artifact's schema")
    ap.add_argument("--self-test", action="store_true",
                    help="check the verdict logic on synthetic pairs")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.check:
        rows = load(Path(args.out))
        if not rows:
            sys.exit(f"perf_pairs: {args.out} has no rows")
        print(f"perf_pairs: {args.out}: {len(rows)} well-formed row(s)")
        return 0
    if not args.parent or args.pairs < 1:
        ap.error("--parent is required and --pairs must be >= 1")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
