#!/usr/bin/env python3
"""Compares a parent revision with the current checkout on one benchmark workload.

    python3 tools/ab_pairs.py --parent <rev> --workload <name> --seed <n> [--parent-dir <dir>]

Run it from anywhere inside the checkout. The parent revision is exported
with `git archive` into --parent-dir (default: a new directory under the
system's temporary directory); a directory that already holds that revision
is reused, so its benchmark build is too. The tool then runs ten alternating
pairs of

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

in the parent's tree and in the checkout, with T the run_seconds of the
checkout's BENCHMARK.json, the parent first in even pairs and the change
first in odd ones. It prints for every end-to-end metric of BENCHMARK.json:
each side's median and quartiles, the change/parent ratio of the medians,
the pairs the change won out of all pairs run (ties, and pairs whose change
run gave no result, count as not won), the pairs on which both sides read
the same value, and the failed operations of each side. A metric shows a
gain when the change wins at least nine of the ten pairs, the medians differ
by more than the parent's interquartile range, every change run gave a
result, and the change runs failed no more operations than the parent runs.

It also prints a no-regression verdict for every metric, with the metric's
bound B from BENCHMARK.json: `ok`; `worse` when the change median is worse
than the parent median by more than B times the parent median; `unresolved`
when the parent's interquartile range exceeds B times its median, so the
spread is too wide to tell, unless every change run reads better than every
parent run. A metric that is worse by more than its bound reads `worse`
whatever the spread. One summary line counts the verdicts.

Last comes a table of every pair's readings, parent then change, for each
metric, with the side that ran first and each run's failed operations, so a
pair that stalled shows in the record and not only in a wide quartile range.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

REV_MARK = ".ab_pairs_rev"
PAIRS = 10


def git(root, *args):
    return subprocess.run(["git", *args], cwd=root, check=True, stdout=subprocess.PIPE, text=True).stdout.strip()


def export_parent(root, rev, dest):
    """Extracts `rev` into `dest` unless it already holds it; returns the directory."""
    sha = git(root, "rev-parse", "--verify", rev + "^{commit}")
    if dest is None:
        dest = tempfile.mkdtemp(prefix="ab_pairs_")
    mark = os.path.join(dest, REV_MARK)
    if os.path.exists(mark):
        with open(mark) as fh:
            if fh.read().strip() == sha:
                return dest
        sys.exit(f"ab_pairs: {dest} holds another revision; pass an empty or new --parent-dir")
    os.makedirs(dest, exist_ok=True)
    if os.listdir(dest):
        sys.exit(f"ab_pairs: {dest} is not empty; pass an empty or new --parent-dir")
    archive = subprocess.Popen(["git", "archive", sha], cwd=root, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit(f"ab_pairs: git archive {sha} failed")
    with open(mark, "w") as fh:
        fh.write(sha)
    return dest


def run_once(tree, args, seconds):
    """One benchmark run in `tree`: (metrics by name, failed count); failed is None if no result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(p.stderr[-2000:])
        return {}, None
    return {k: v["value"] for k, v in result["metrics"].items()}, result["failed"]


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def verdict(ps, cs, pq, cq, better, bound):
    """No-regression verdict of one metric: ok, worse or unresolved."""
    sign = 1 if better == "higher" else -1
    if sign * (pq[1] - cq[1]) > bound * abs(pq[1]):
        return "worse"
    if all(sign * (c - p) > 0 for p in ps for c in cs):
        return "ok"
    if pq[2] - pq[0] > bound * abs(pq[1]):
        return "unresolved"
    return "ok"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--parent-dir", help="where to export the parent revision")
    args = ap.parse_args()

    change = git(os.getcwd(), "rev-parse", "--show-toplevel")
    parent = export_parent(change, args.parent, args.parent_dir)
    with open(os.path.join(change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    metrics = [(m["name"], m["better"], m["bound"]) for m in bench["end_to_end"]]
    seconds = bench["run_seconds"]

    runs = {"parent": [], "change": []}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            values, failed = run_once(parent if side == "parent" else change, args, seconds)
            runs[side].append((values, failed))
            shown = " ".join(f"{n}={values[n]:.6g}" for n, _, _ in metrics if n in values)
            print(f"pair {i + 1} {side:6} failed={failed} {shown}", flush=True)

    failed = {side: [f for _, f in runs[side]] for side in runs}
    failed_ops = {side: sum(f for f in failed[side] if f is not None) for side in runs}
    missing = {side: sum(1 for f in failed[side] if f is None) for side in runs}
    # A gain needs every change run to give a result and no more failures than the parent.
    change_ok = missing["change"] == 0 and failed_ops["change"] <= failed_ops["parent"]

    print(f"\n{args.workload} seed {args.seed}, {PAIRS} pairs of {seconds} s, parent {args.parent} in {parent}")
    print(f"{'metric':18} {'parent median [q1, q3]':>32} {'change median [q1, q3]':>32} {'ratio':>7} {'wins':>6} {'equal':>6}  gain  verdict")
    verdicts = {}
    for name, better, bound in metrics:
        pairs = [(p[0].get(name), c[0].get(name)) for p, c in zip(runs["parent"], runs["change"])]
        pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
        if not pairs:
            verdicts[name] = "unresolved"
            print(f"{name:18} no results, unresolved")
            continue
        ps, cs = [p for p, _ in pairs], [c for _, c in pairs]
        pq, cq = quartiles(ps), quartiles(cs)
        sign = 1 if better == "higher" else -1
        wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
        equal = sum(1 for p, c in pairs if p == c)
        gain = change_ok and wins >= 0.9 * PAIRS and sign * (cq[1] - pq[1]) > pq[2] - pq[0]
        ratio = cq[1] / pq[1] if pq[1] else float("nan")
        verdicts[name] = verdict(ps, cs, pq, cq, better, bound)
        print(f"{name:18} {pq[1]:12.6g} [{pq[0]:.6g}, {pq[2]:.6g}]".ljust(51)
              + f" {cq[1]:12.6g} [{cq[0]:.6g}, {cq[2]:.6g}]".ljust(33)
              + f" {ratio:7.3f} {wins:>2}/{PAIRS:<3} {equal:>2}/{len(pairs):<3}  {'yes' if gain else 'no':4}  {verdicts[name]}")
    for side in ("parent", "change"):
        print(f"failed ({side}): {failed_ops[side]} operations, {missing[side]} runs without a result")
    counts = {v: [n for n, _, _ in metrics if verdicts[n] == v] for v in ("ok", "worse", "unresolved")}
    print("no regression: " + ", ".join(f"{len(ns)} {v}" + (f" ({' '.join(ns)})" if ns and v != "ok" else "")
                                        for v, ns in counts.items()))
    print_pairs(runs, [n for n, _, _ in metrics])


def print_pairs(runs, names):
    """Every pair's parent and change reading of each metric; `-` where a run gave none."""
    def cell(values, name):
        return f"{values[name]:.6g}" if name in values else "-"
    print("\nper pair: parent / change")
    print(f"{'pair':>4} {'first':6} {'failed':>7}" + "".join(f" {n:>25}" for n in names))
    for i, ((pv, pf), (cv, cf)) in enumerate(zip(runs["parent"], runs["change"])):
        first = "parent" if i % 2 == 0 else "change"
        failed = f"{'-' if pf is None else pf}/{'-' if cf is None else cf}"
        print(f"{i + 1:>4} {first:6} {failed:>7}" + "".join(f" {cell(pv, n) + ' / ' + cell(cv, n):>25}" for n in names))


if __name__ == "__main__":
    main()
