#!/usr/bin/env python3
"""Diff two sets of BENCH_*.json files across commits.

Compares the bench artifacts of an old (baseline) and a new run:

* **Breakage** (exit 1): a sweep, summary metric, cell, or per-group metric
  name that existed in the baseline is gone, or a document lost a required
  top-level key. Renames and removals invalidate the repo's performance
  trajectory, so they must be deliberate (update the baseline expectations
  in the same PR).
* **Warning** (exit 0): per-cell wall time or total wall time drifted more
  than --wall-drift-pct (default 25%). Wall clock is hardware-noisy, so
  drift never fails the check; CI runs this step non-blocking anyway.
* Additions (new sweeps, metrics, cells) are reported as info.

Summary metric *values* are printed with their deltas for human review;
only names are contractual. When GITHUB_ACTIONS is set, breakages and
warnings are also emitted as ::error::/::warning:: workflow annotations.

A rolling history of runs (the CI `bench-history` artifact: one
subdirectory per run, lexically ordered oldest-first) can be rendered as a
trajectory instead: per sweep, every summary metric's series across runs
plus the wall-time series. Trajectory mode is informational (exit 0).

Wall-time focus (--walls): in diff mode, prints a per-sweep wall-time table
(old, new, speedup; per-cell totals and the slowest cells) — the view used
to demonstrate engine speedups against a committed BENCH_baseline capture.
In trajectory mode, adds the per-cell wall series to the per-sweep output.

Parallel runs: a document produced with --island-threads N > 1 is keyed
(and labeled in every table) as 'name@islN', so sequential and parallel
captures of the same sweep coexist in one artifact directory. --walls
matches a '@islN' run against its sequential baseline when no
same-threaded baseline exists — the row that turns CI's sequential-vs-
parallel fleet-island probe into a speedup number. Documents whose
options.socket_threads is above 1 are skipped: aql_bench no longer has
--socket-threads, and only older captures (such as those in a rolling
history artifact) carry it.

Usage: scripts/bench_diff.py [--wall-drift-pct P] [--walls] OLD_DIR NEW_DIR
       scripts/bench_diff.py --trajectory HISTORY_DIR [--walls]
"""

import argparse
import glob
import json
import os
import sys

REQUIRED_KEYS = ("bench", "options", "summary", "cells")
# Wall times under this many seconds are dominated by scheduler noise;
# drift on them is not worth a warning.
WALL_FLOOR_SECONDS = 0.005


def annotate(level, message):
    print(f"{level.upper()}: {message}")
    if os.environ.get("GITHUB_ACTIONS"):
        print(f"::{level}::{message}")


def load_benches(path):
    """Returns {bench_name: doc} for every BENCH_*.json under path."""
    if os.path.isdir(path):
        files = sorted(glob.glob(os.path.join(path, "**", "BENCH_*.json"), recursive=True))
    else:
        files = [path]
    out = {}
    for f in files:
        # A corrupt or truncated capture (killed run, partial copy) must not
        # take the whole diff down with it: warn, skip, diff the rest.
        try:
            with open(f, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as err:
            annotate("warning", f"skipping unreadable bench file {f}: {err}")
            continue
        if not isinstance(doc, dict):
            annotate("warning", f"skipping {f}: top-level JSON is not an object")
            continue
        name = doc.get("bench", os.path.basename(f))
        sockets = doc.get("options", {}).get("socket_threads", 1)
        if isinstance(sockets, int) and sockets > 1:
            print(f"info: skipping {f}: captured with --socket-threads {sockets}, "
                  "an option aql_bench no longer has")
            continue
        # Label parallel captures so they never collide with (or silently
        # compare against) the sequential capture of the same sweep. Stable
        # JSON omits execution options, so only timing documents ever carry
        # a suffix.
        islands = doc.get("options", {}).get("island_threads", 1)
        if isinstance(islands, int) and islands > 1:
            name = f"{name}@isl{islands}"
        out[name] = doc
    return out


def base_name(name):
    """Sweep name with any '@islN' thread-count label stripped."""
    return name.split("@isl", 1)[0]


def walls_baseline(old_benches, name):
    """Baseline doc for --walls: exact match, else the sequential capture."""
    doc = old_benches.get(name)
    return doc if doc is not None else old_benches.get(base_name(name))


def cell_metrics(cell):
    """{(group, metric_name)} for one cell."""
    names = set()
    for group in cell.get("groups", []):
        for metric in group.get("metrics", {}):
            names.add((group.get("name", "?"), metric))
    return names


def diff_bench(name, old, new, wall_drift_pct, breakages, warnings):
    for key in REQUIRED_KEYS:
        if key in old and key not in new:
            breakages.append(f"{name}: lost required key '{key}'")
    # Summary metric names are the sweep's public contract.
    old_summary = old.get("summary", {})
    new_summary = new.get("summary", {})
    for metric in old_summary:
        if metric not in new_summary:
            breakages.append(f"{name}: summary metric '{metric}' disappeared")
    for metric in sorted(set(new_summary) - set(old_summary)):
        print(f"info: {name}: new summary metric '{metric}' = {new_summary[metric]}")
    for metric, old_value in sorted(old_summary.items()):
        new_value = new_summary.get(metric)
        if new_value is None or new_value == old_value:
            continue
        delta = ""
        if isinstance(old_value, (int, float)) and isinstance(new_value, (int, float)) and old_value:
            delta = f" ({100.0 * (new_value - old_value) / abs(old_value):+.1f}%)"
        print(f"info: {name}: summary '{metric}': {old_value} -> {new_value}{delta}")

    old_cells = {c["id"]: c for c in old.get("cells", []) if "id" in c}
    new_cells = {c["id"]: c for c in new.get("cells", []) if "id" in c}
    for cell_id in old_cells:
        if cell_id not in new_cells:
            breakages.append(f"{name}: cell '{cell_id}' disappeared")
    added = len(set(new_cells) - set(old_cells))
    if added:
        print(f"info: {name}: {added} new cells")

    slow, fast = [], []
    for cell_id, old_cell in old_cells.items():
        new_cell = new_cells.get(cell_id)
        if new_cell is None:
            continue
        missing = cell_metrics(old_cell) - cell_metrics(new_cell)
        for group, metric in sorted(missing):
            breakages.append(f"{name}: cell '{cell_id}' group '{group}' lost metric '{metric}'")
        old_wall = old_cell.get("wall_seconds")
        new_wall = new_cell.get("wall_seconds")
        if old_wall is None or new_wall is None or old_wall < WALL_FLOOR_SECONDS:
            continue
        drift = 100.0 * (new_wall - old_wall) / old_wall
        if drift > wall_drift_pct:
            slow.append((drift, cell_id, old_wall, new_wall))
        elif drift < -wall_drift_pct:
            fast.append((drift, cell_id, old_wall, new_wall))

    for drift, cell_id, old_wall, new_wall in sorted(slow, reverse=True)[:10]:
        warnings.append(
            f"{name}: cell '{cell_id}' wall time {old_wall:.3f}s -> {new_wall:.3f}s ({drift:+.0f}%)")
    if len(slow) > 10:
        warnings.append(f"{name}: ...and {len(slow) - 10} more cells slower than {wall_drift_pct}%")
    if fast:
        print(f"info: {name}: {len(fast)} cells more than {wall_drift_pct}% faster")

    old_total = old.get("timing", {}).get("total_wall_seconds")
    new_total = new.get("timing", {}).get("total_wall_seconds")
    if old_total and new_total and old_total >= WALL_FLOOR_SECONDS:
        drift = 100.0 * (new_total - old_total) / old_total
        line = f"{name}: total wall {old_total:.2f}s -> {new_total:.2f}s ({drift:+.1f}%)"
        if drift > wall_drift_pct:
            warnings.append(line)
        else:
            print(f"info: {line}")


def fmt(value):
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def cell_walls(doc):
    """{cell_id: wall_seconds} for one bench document."""
    return {c["id"]: c["wall_seconds"] for c in doc.get("cells", [])
            if "id" in c and isinstance(c.get("wall_seconds"), (int, float))}


def walls_report(old_benches, new_benches):
    """Per-sweep wall-time comparison table (the --walls diff view).

    Sweeps present only in the new run (a PR adding a sweep compares against
    a baseline that predates it) still get a row: old columns show '-' and
    the speedup column is blank, so new work is visible without pretending
    there is a baseline for it.
    """
    rows = []
    for name in sorted(new_benches):
        new_w = cell_walls(new_benches[name])
        if not new_w:
            continue
        old_doc = walls_baseline(old_benches, name)
        old_w = cell_walls(old_doc) if old_doc is not None else {}
        shared = sorted(set(old_w) & set(new_w))
        if shared:
            old_total = sum(old_w[c] for c in shared)
            new_total = sum(new_w[c] for c in shared)
            speedup = old_total / new_total if new_total > 0 else float("inf")
            rows.append((name, len(shared), old_total, new_total, speedup))
        else:
            # No comparable baseline cells: report the new walls alone.
            rows.append((name, len(new_w), None, sum(new_w.values()), None))
    if not rows:
        print("walls: no sweeps with comparable per-cell wall times")
        return
    print("\n== wall times (per-cell sums over shared cells) ==")
    header = f"{'sweep':<26} {'cells':>5} {'old s':>9} {'new s':>9} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    total_old = total_new = 0.0
    for name, n, old_total, new_total, speedup in rows:
        if old_total is None:
            print(f"{name:<26} {n:>5} {'-':>9} {new_total:>9.3f} {'':>8}")
            continue
        total_old += old_total
        total_new += new_total
        print(f"{name:<26} {n:>5} {old_total:>9.3f} {new_total:>9.3f} {speedup:>7.2f}x")
    overall = total_old / total_new if total_new > 0 else float("inf")
    print("-" * len(header))
    print(f"{'TOTAL':<26} {'':>5} {total_old:>9.3f} {total_new:>9.3f} {overall:>7.2f}x")

    # Slowest cells of the new run, with their old walls ('-' for cells the
    # baseline never ran): a single-cell regression must not be able to hide
    # inside a sweep total.
    slowest = []
    for name in sorted(new_benches):
        old_doc = walls_baseline(old_benches, name)
        old_w = cell_walls(old_doc) if old_doc is not None else {}
        for cell, wall in cell_walls(new_benches[name]).items():
            slowest.append((wall, f"{name}:{cell}", old_w.get(cell)))
    slowest.sort(key=lambda t: (t[0], t[1]), reverse=True)
    if slowest:
        print("\nslowest cells (new run):")
        for wall, label, old_wall in slowest[:10]:
            if old_wall is None:
                print(f"  {label:<48} {'-':>8}  -> {wall:>7.3f}s")
                continue
            ratio = old_wall / wall if wall > 0 else float("inf")
            print(f"  {label:<48} {old_wall:>8.3f}s -> {wall:>7.3f}s ({ratio:.2f}x)")


def trajectory(history_dir, walls=False):
    """Prints per-sweep metric/wall series across a history of runs."""
    runs = sorted(d for d in os.listdir(history_dir)
                  if os.path.isdir(os.path.join(history_dir, d)))
    if not runs:
        print(f"bench_diff: no runs under {history_dir}; nothing to plot")
        return 0
    series = [(run, load_benches(os.path.join(history_dir, run))) for run in runs]
    print(f"bench trajectory over {len(runs)} runs: {', '.join(runs)}")
    sweeps = sorted({name for _, benches in series for name in benches})
    for sweep in sweeps:
        docs = [benches.get(sweep) for _, benches in series]
        present = [d for d in docs if d is not None]
        print(f"\n== {sweep} ({len(present)}/{len(runs)} runs) ==")
        metrics = sorted({m for d in present for m in d.get("summary", {})})
        for metric in metrics:
            values = [
                "-" if d is None or metric not in d.get("summary", {})
                else fmt(d["summary"][metric])
                for d in docs
            ]
            print(f"  {metric}: {' -> '.join(values)}")
        totals = [
            "-" if d is None or "timing" not in d
            else fmt(d["timing"].get("total_wall_seconds", "-"))
            for d in docs
        ]
        if any(w != "-" for w in totals):
            print(f"  total_wall_seconds: {' -> '.join(totals)}")
        if walls:
            # Per-cell wall series (the --walls trajectory view).
            per_doc = [{} if d is None else cell_walls(d) for d in docs]
            cells = sorted({c for w in per_doc for c in w})
            for cell in cells:
                cell_series = [
                    "-" if cell not in w else fmt(w[cell])
                    for w in per_doc
                ]
                print(f"  wall[{cell}]: {' -> '.join(cell_series)}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--wall-drift-pct", type=float, default=25.0,
                        help="warn when per-cell wall time drifts more than this percent")
    parser.add_argument("--trajectory", metavar="HISTORY_DIR",
                        help="render a run-history directory as per-metric series "
                             "instead of diffing two runs")
    parser.add_argument("--walls", action="store_true",
                        help="wall-time focus: per-sweep speedup table in diff "
                             "mode, per-cell wall series in trajectory mode")
    parser.add_argument("old", nargs="?", help="baseline dir (or file) of BENCH_*.json")
    parser.add_argument("new", nargs="?", help="candidate dir (or file) of BENCH_*.json")
    args = parser.parse_args()

    if args.trajectory:
        return trajectory(args.trajectory, walls=args.walls)
    if not args.old or not args.new:
        parser.error("OLD_DIR and NEW_DIR are required unless --trajectory is used")

    old_benches = load_benches(args.old)
    new_benches = load_benches(args.new)
    if not old_benches:
        print(f"bench_diff: no baseline BENCH_*.json under {args.old}; nothing to compare")
        return 0

    breakages, warnings = [], []
    for name in sorted(old_benches):
        if name not in new_benches:
            # A thread-count variant of the same sweep is a re-labeling,
            # not a disappearance (e.g. diffing a sequential capture against
            # an --island-threads one of the same cells).
            if any(base_name(k) == base_name(name) for k in new_benches):
                print(f"info: sweep '{name}' present only at a different "
                      f"thread count in the candidate run")
                continue
            breakages.append(f"sweep '{name}' disappeared from the artifacts")
            continue
        diff_bench(name, old_benches[name], new_benches[name],
                   args.wall_drift_pct, breakages, warnings)
    for name in sorted(set(new_benches) - set(old_benches)):
        print(f"info: new sweep '{name}' ({len(new_benches[name].get('cells', []))} cells)")

    if args.walls:
        walls_report(old_benches, new_benches)

    for message in warnings:
        annotate("warning", message)
    for message in breakages:
        annotate("error", message)
    print(f"bench_diff: {len(old_benches)} baseline sweeps, "
          f"{len(breakages)} breakages, {len(warnings)} wall-time warnings")
    return 1 if breakages else 0


if __name__ == "__main__":
    sys.exit(main())
