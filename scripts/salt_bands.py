#!/usr/bin/env python3
"""Compares two aql_bench builds over seed salts: seed bands and a verdict.

    python3 scripts/salt_bands.py PARENT_BENCH CHANGE_BENCH --salts 1-5
    python3 scripts/salt_bands.py A B --salts default,1-15 --work DIR

Runs `aql_bench --all --jobs J --stable-json --seed-salt S` with both
binaries for every salt, into WORK/<side>/<salt>; a run that completed
before is not repeated. `default` runs without `--seed-salt`. Results are
a function of the binary and the salt, so the order of runs does not
matter. Then it prints, as markdown:

  * the health numbers of every salt and side: Table 3, table3x, fig4,
    fig5, both fig6 means and fig7's ratio;
  * for every summary key, the parent's min, median and max over the
    salts, the change's median, the median paired shift (change minus
    parent at the same salt) and a verdict. A key is `ok` when the change's
    median lies inside the parent's [min, max] widened by 1% of the
    parent's median. Keys docs/BENCH_FORMAT.md calls chaotic are reported
    but not judged;
  * per Table 3 application, the weakest lead of its expected type's
    cursor over the best other cursor, with its salt, and how many salts
    misread it.

Exits 1 if a judged key is out of its band.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
# docs/BENCH_FORMAT.md, "The ablation spin/lock keys are chaotic".
CHAOTIC = {("ablation", "fifo_cycle_time_ratio")}
TABLE3 = "Table 3: application type recognition by the online vTRS"
CURSOR_COLUMN = {"IOInt": "IO", "ConSpin": "ConSpin", "LoLCF": "LoLCF", "LLCF": "LLCF",
                 "LLCO": "LLCO"}
WIDEN = 0.01  # of the parent's median


def parse_salts(text):
    salts = []
    for part in text.split(","):
        if part == "default":
            salts.append(part)
        elif "-" in part:
            lo, hi = part.split("-")
            salts.extend(str(s) for s in range(int(lo), int(hi) + 1))
        else:
            salts.append(str(int(part)))
    return salts


def run(binary, salt, jobs, out):
    done = os.path.join(out, "complete")
    if os.path.exists(done):
        return
    cmd = [binary, "--all", "--jobs", str(jobs), "--stable-json", "--out", out]
    if salt != "default":
        cmd += ["--seed-salt", salt]
    print(f"running {' '.join(cmd)}", file=sys.stderr, flush=True)
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    open(done, "w").close()


def load(out):
    docs = {}
    for path in sorted(glob.glob(os.path.join(out, "BENCH_*.json"))):
        with open(path) as f:
            doc = json.load(f)
        docs[doc["bench"]] = doc
    return docs


def table3_leads(doc):
    """Per Table 3 application: its expected cursor minus the best other
    cursor, and whether the vTRS read it right."""
    for table in doc["tables"]:
        if table["title"] == TABLE3:
            header = table["header"]
            col = {name: header.index(name) for name in CURSOR_COLUMN.values()}
            leads = {}
            for row in table["rows"]:
                mine = CURSOR_COLUMN[row[header.index("expected")]]
                others = [float(row[c]) for name, c in col.items() if name != mine]
                leads[row[0]] = (float(row[col[mine]]) - max(others),
                                 row[header.index("ok")] == "yes")
            return leads
    sys.exit("salt_bands: no Table 3 in BENCH_table3x_recognition.json")


def fmt(x):
    return f"{x:.4g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="aql_bench of the parent commit")
    parser.add_argument("change", help="aql_bench of the change")
    parser.add_argument("--salts", required=True, help="e.g. 1-5 or default,1-15")
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--work", default="salt_bands_out", help="output directory")
    args = parser.parse_args()

    salts = parse_salts(args.salts)
    docs = {side: {} for side in SIDES}
    for salt in salts:
        for side, binary in zip(SIDES, (args.parent, args.change)):
            out = os.path.join(args.work, side, salt)
            os.makedirs(out, exist_ok=True)
            run(os.path.abspath(binary), salt, args.jobs, out)
            docs[side][salt] = load(out)

    print(f"## Health per salt ({len(salts)} salts)\n")
    print("| salt | side | Table 3 | table3x | fig4 | fig5 | fig6 single | fig6 four | fig7 |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for salt in salts:
        for side in SIDES:
            d = {name: doc["summary"] for name, doc in docs[side][salt].items()}
            t3 = d["table3x_recognition"]
            print(f"| {salt} | {side} | {t3['paper_recognized_correctly']}/{t3['paper_apps']} "
                  f"| {t3['recognized_correctly']}/{t3['apps']} "
                  f"| {d['fig4_vtrs_traces']['detected_correctly']}/"
                  f"{d['fig4_vtrs_traces']['apps_traced']} "
                  f"| {d['fig5_validation']['consistency_ok']}/"
                  f"{d['fig5_validation']['consistency_checked']} "
                  f"| {fmt(d['fig6_effectiveness']['single_socket_mean_normalized'])} "
                  f"| {fmt(d['fig6_effectiveness']['four_socket_mean_normalized'])} "
                  f"| {fmt(d['fig7_customization']['worst_fixed_quantum_ratio'])} |")

    print("\n## Summary keys\n")
    print("| sweep | key | parent min | parent median | parent max | change median "
          "| paired shift | shift / band | verdict |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    judged = out_of_band = 0
    first = docs["parent"][salts[0]]
    for sweep in sorted(first):
        for key, value in first[sweep]["summary"].items():
            if not isinstance(value, (int, float)):
                continue
            p = [docs["parent"][s][sweep]["summary"][key] for s in salts]
            c = [docs["change"][s][sweep]["summary"][key] for s in salts]
            pmed, cmed = statistics.median(p), statistics.median(c)
            shift = statistics.median([b - a for a, b in zip(p, c)])
            rel = f"{100 * shift / abs(pmed):+.2f}%" if pmed else fmt(shift)
            band = max(p) - min(p)
            per_band = f"{shift / band:+.2f}" if band else ("0" if shift == 0 else "inf")
            slack = WIDEN * abs(pmed)
            if (sweep, key) in CHAOTIC:
                verdict = "chaotic"
            else:
                judged += 1
                ok = min(p) - slack <= cmed <= max(p) + slack
                out_of_band += 0 if ok else 1
                verdict = "ok" if ok else "OUT"
            print(f"| {sweep} | {key} | {fmt(min(p))} | {fmt(pmed)} | {fmt(max(p))} "
                  f"| {fmt(cmed)} | {rel} | {per_band} | {verdict} |")

    print("\n## Table 3: weakest lead of the expected cursor\n")
    print("| application | parent lead (salt) | parent misses | change lead (salt) "
          "| change misses |")
    print("| --- | --- | --- | --- | --- |")
    leads = {side: {s: table3_leads(docs[side][s]["table3x_recognition"]) for s in salts}
             for side in SIDES}
    misses = {side: 0 for side in SIDES}
    for app in leads["parent"][salts[0]]:
        cells = []
        for side in SIDES:
            lead, salt = min((leads[side][s][app][0], s) for s in salts)
            missed = sum(1 for s in salts if not leads[side][s][app][1])
            misses[side] += missed
            cells += [f"{lead:+.0f} ({salt})", str(missed)]
        print(f"| {app} | " + " | ".join(cells) + " |")

    print(f"\n{judged} keys judged, {out_of_band} out of band; Table 3 misses over "
          f"apps and salts: parent {misses['parent']}, change {misses['change']}")
    return 1 if out_of_band else 0


if __name__ == "__main__":
    sys.exit(main())
