#!/usr/bin/env python3
"""A/B pairs of benchmark runs: a base revision against the working tree.

    python3 tools/ab_pairs.py --base <rev> --workload <w> --pairs N --seeds S [S ...]

Run from the repository root. The base revision is unpacked with
`git archive` into one temporary directory ("parent"), and the working
tree's files (tracked and untracked, less what .gitignore lists) are copied
into another ("change"), so that both sides run from fresh directories of
the same shape. Each pair runs `perfbench/run.py --trace 0` once on each
side, on the same seed, alternating which side runs first. Pair i uses
seed S[i mod len(S)]. Each side builds its own perfbench on its first run.
Every run lasts the `run_seconds` of BENCHMARK.json.

For every end-to-end metric in BENCHMARK.json the script prints each
side's median and quartiles over its successful runs, the change/parent
ratio of the medians, the pairs the change won out of all pairs run (ties,
and pairs with a failed run, count for neither side) and a verdict:

  unresolved  either side's interquartile range is wider than the metric's
              bound in BENCHMARK.json, relative to that side's median; the
              verdict names that side (parent, change or both) and its
              IQR as a share of its median
  gain        the change won at least 9 of every 10 pairs run, the medians
              differ by more than the parent's interquartile range, and no
              more of the change's runs failed than of the parent's
  worse       the change's median is worse than the parent's by more than
              the metric's bound
  no gain     anything else

It also prints whether each pair's `# counters:` lines (blocks, rows,
rounds and bitmap probes per query) are identical. Where they differ, it
names each query and field that differs, with the parent's and the
change's values, and it counts the pairs whose blocks, rows and rounds
agree, so that a change that only probes the bitmaps differently reads
as such. It exits with status 1 unless every pair completed with
identical counters lines.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def unpack(rev, dest):
    """Write the tree of `rev` into `dest`."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)


def copy_worktree(dest):
    """Copy the working tree's files, less ignored ones, into `dest`."""
    out = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                         cwd=ROOT, capture_output=True, check=True).stdout
    for rel in filter(None, out.decode().split("\0")):
        src = os.path.join(ROOT, rel)
        if os.path.isfile(src):
            os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))


def run_once(tree, workload, seed, seconds):
    """One untraced benchmark run in `tree`: (metrics, counters line, error)."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, stdin=subprocess.DEVNULL)
    lines = proc.stdout.splitlines()
    counters = next((l for l in lines if l.startswith(COUNTERS)), None)
    if proc.returncode != 0 or not lines:
        return None, counters, f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        return None, counters, f"correct={result['correct']} failed={result['failed']}"
    return {k: v["value"] for k, v in result["metrics"].items()}, counters, None


COUNTERS = "# counters: "
FETCHED = ("blocks", "rows", "rounds")


def parse_counters(line):
    """[(query, {field: value})] from a `# counters:` line, in its order."""
    out = []
    for entry in line[len(COUNTERS):].split("; "):
        name, *fields = entry.split()
        out.append((name, dict(f.split("=", 1) for f in fields)))
    return out


def counter_diffs(parent, change):
    """(query, field, parent value, change value) for every counter that
    differs between two `# counters:` lines, in the lines' order."""
    p, c = parse_counters(parent), parse_counters(change)
    if [q for q, _ in p] != [q for q, _ in c]:
        return [("queries", "names", " ".join(q for q, _ in p), " ".join(q for q, _ in c))]
    return [(q, f, pf.get(f), cf.get(f))
            for (q, pf), (_, cf) in zip(p, c)
            for f in dict.fromkeys([*pf, *cf]) if pf.get(f) != cf.get(f)]


def quartiles(xs):
    """(q1, median, q3) of `xs`."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def relative_iqr(q1, median, q3):
    """Interquartile range as a share of the median's magnitude."""
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(spec, parent, change, wins, pairs, more_failures):
    """Verdict on one metric: its successful runs per side, the change's wins
    over all `pairs` run, and whether more change runs failed than parent runs.
    An unresolved verdict names the side (or sides) too spread to tell, with
    that side's IQR as a share of its median against the bound."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    bound = spec["bound"]
    wide = [f"{side} IQR {relative_iqr(q1, m, q3):.0%} of median"
            for side, (q1, m, q3) in (("parent", (p1, pm, p3)), ("change", (c1, cm, c3)))
            if q3 - q1 > bound * abs(m)]
    if wide:
        return f"unresolved: {', '.join(wide)} > bound {bound:.0%}"
    lower = spec["better"] == "lower"
    improved = cm < pm if lower else cm > pm
    if 10 * wins >= 9 * pairs and improved and abs(cm - pm) > p3 - p1 and not more_failures:
        return "gain"
    if pm != 0 and ((cm - pm) / pm if lower else (pm - cm) / pm) > bound:
        return "worse"
    return "no gain"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    specs = bench["end_to_end"]

    base_dir = tempfile.mkdtemp(prefix="ab_pairs_base_")
    change_dir = tempfile.mkdtemp(prefix="ab_pairs_change_")
    runs = []
    try:
        unpack(args.base, base_dir)
        copy_worktree(change_dir)
        sides = {"parent": base_dir, "change": change_dir}
        for i in range(args.pairs):
            seed = args.seeds[i % len(args.seeds)]
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            pair = {"pair": i + 1, "seed": seed, "first": order[0]}
            for side in order:
                metrics, counters, err = run_once(sides[side], args.workload, seed, seconds)
                pair[side] = {"metrics": metrics, "counters": counters, "error": err}
                if err:
                    print(f"pair {i + 1} seed {seed} {side}: FAILED {err}", flush=True)
            runs.append(pair)
            if pair["parent"]["counters"] and pair["change"]["counters"]:
                diffs = counter_diffs(pair["parent"]["counters"], pair["change"]["counters"])
                pair["fetched_same"] = not any(f in FETCHED or q == "queries" for q, f, _, _ in diffs)
                if diffs:
                    print(f"pair {i + 1} seed {seed} counters differ (parent -> change): " +
                          "; ".join(f"{q} {f} {pv} -> {cv}" for q, f, pv, cv in diffs), flush=True)
            if all(pair[s]["metrics"] for s in sides):
                cells = " ".join(f"{m['name']}={pair['parent']['metrics'][m['name']]:.4g}/"
                                 f"{pair['change']['metrics'][m['name']]:.4g}" for m in specs)
                print(f"pair {i + 1} seed {seed} first={order[0]} (parent/change) {cells}",
                      flush=True)
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)
        shutil.rmtree(change_dir, ignore_errors=True)

    done = [p for p in runs if p["parent"]["metrics"] and p["change"]["metrics"]]
    failed = len(runs) - len(done)
    fails = {s: sum(1 for p in runs if not p[s]["metrics"]) for s in ("parent", "change")}
    same = sum(1 for p in runs if p["parent"]["counters"] and
               p["parent"]["counters"] == p["change"]["counters"])
    print(f"\n# {args.workload}: {len(done)} complete pairs of {len(runs)} "
          f"({failed} with a failed run; failed runs: parent {fails['parent']}, "
          f"change {fails['change']}), {seconds:g} s runs, base {args.base}")
    print(f"# counters lines identical in {same} of {len(runs)} pairs")
    print(f"# blocks/rows/rounds identical in {sum(1 for p in runs if p.get('fetched_same'))} "
          f"of {len(runs)} pairs")
    if not done:
        sys.exit(1)
    row = "{:<20} {:<32} {:<32} {:>6} {:>6}  {}"
    print(row.format("metric", "parent median [q1, q3]", "change median [q1, q3]", "ratio",
                     "wins", "verdict"))
    for spec in specs:
        name = spec["name"]
        parent = [p["parent"]["metrics"][name] for p in runs if p["parent"]["metrics"]]
        change = [p["change"]["metrics"][name] for p in runs if p["change"]["metrics"]]
        lower = spec["better"] == "lower"
        wins = sum(1 for p in done
                   if (p["change"]["metrics"][name] < p["parent"]["metrics"][name] if lower
                       else p["change"]["metrics"][name] > p["parent"]["metrics"][name]))
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        ratio = cm / pm if pm else float("nan")
        print(row.format(name, f"{pm:.4g} [{p1:.4g}, {p3:.4g}]", f"{cm:.4g} [{c1:.4g}, {c3:.4g}]",
                         f"{ratio:.3f}", f"{wins}/{len(runs)}",
                         verdict(spec, parent, change, wins, len(runs),
                                 fails["change"] > fails["parent"])))
    if failed or same != len(runs):
        sys.exit(1)


if __name__ == "__main__":
    main()
