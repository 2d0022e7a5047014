#!/usr/bin/env python3
"""Compares two benchmark results (run.py's results JSON), metric by metric.

    python3 benchmark/compare.py base.json head.json
    python3 benchmark/compare.py benchmark/results/seed.json   # its two sets

For every workload and every end-to-end metric of BENCHMARK.json it applies
the metric's bound to the medians and prints one verdict:

  worse       the head's median is worse than the base's by more than the bound,
              and either both spreads (interquartile range over median) are
              within the bound or every head run reads worse than every base run
  better      the claim rule holds: at least 10 pairs of runs, the head wins at
              least 9 in 10 of them (ties count for neither), and the medians
              differ by more than the base's interquartile range
  unchanged   none of the others
  unresolved  the spread of either side is wider than the bound, and the runs
              of the two sides overlap

fail_frac (failed over attempted) may not rise at all, and a gain does not
count on a workload whose fail_frac rose. Run i of the base pairs with run i
of the head, so run.py --runs 10 on each side, alternating, gives the pairs.
Outputs (the hash of every training unit's history and final metrics) must
be identical at every fl.seed both sides ran.
Exits 1 when any verdict is worse or missing, or when any output differs.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import SPEC, median, quartiles  # noqa: E402

MIN_PAIRS = 10
WIN_SHARE = 0.9


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def gain(base, head, better):
    """The head's median improvement over the base's, as a share of it."""
    sign = 1 if better == "higher" else -1
    mb = median(base)
    return sign * (median(head) - mb) / abs(mb) if mb else 0.0


def claim_holds(base, head, better):
    sign = 1 if better == "higher" else -1
    pairs = list(zip(base, head))
    if len(pairs) < MIN_PAIRS:
        return False
    wins = sum(1 for b, h in pairs if sign * (h - b) > 0)
    q1, _, q3 = quartiles(base)
    return (wins >= WIN_SHARE * len(pairs)
            and sign * (median(head) - median(base)) > q3 - q1)


def verdict(base, head, bound, better):
    sign = 1 if better == "higher" else -1
    every_run_better = all(sign * (h - b) > 0 for h in head for b in base)
    every_run_worse = all(sign * (h - b) < 0 for h in head for b in base)
    steady = max(spread(base), spread(head)) <= bound
    if gain(base, head, better) < -bound and (steady or every_run_worse):
        return "worse"
    if not steady and not every_run_better:
        return "unresolved"
    if claim_holds(base, head, better):
        return "better"
    return "unchanged"


def fail_frac(entry):
    return entry["failed"] / entry["attempted"]


def compare(base, head):
    """One row per (workload, metric): (workload, metric, base values, head
    values, verdict). fail_frac rows carry one value per side."""
    rows = []
    for w in (x["name"] for x in SPEC["workloads"]):
        b, h = base["workloads"].get(w), head["workloads"].get(w)
        if b is None or h is None:
            rows.append((w, "*", [], [], "missing"))
            continue
        failures_rose = fail_frac(h) > fail_frac(b)
        for m in SPEC["end_to_end"]:
            bv = [r["metrics"][m["name"]] for r in b["runs"]]
            hv = [r["metrics"][m["name"]] for r in h["runs"]]
            v = verdict(bv, hv, m["bound"], m["better"])
            if v == "better" and failures_rose:
                v = "unchanged"
            rows.append((w, m["name"], bv, hv, v))
        rows.append((w, "fail_frac", [fail_frac(b)], [fail_frac(h)],
                     "worse" if failures_rose else "unchanged"))
    return rows


def output_differences(base, head):
    """(number of (workload, fl.seed) outputs both sides ran, the sorted
    (workload, fl.seed) pairs whose output hashes differ)."""
    common, differ = 0, []
    for w, b in base["workloads"].items():
        if w not in head["workloads"]:
            continue
        bh = {s: x for r in b["runs"] for s, x in r["hashes"].items()}
        hh = {s: x for r in head["workloads"][w]["runs"]
              for s, x in r["hashes"].items()}
        for s in bh.keys() & hh.keys():
            common += 1
            if bh[s] != hh[s]:
                differ.append((w, int(s)))
    return common, sorted(differ)


def fmt(values):
    if len(values) == 1:
        return f"{values[0]:.4g}"
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def load(path):
    return json.loads(Path(path).read_text())


def main(argv):
    if len(argv) == 1 and "sets" in load(argv[0]):
        base, head = load(argv[0])["sets"][:2]
    elif len(argv) == 2:
        base, head = load(argv[0]), load(argv[1])
    else:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    rows = compare(base, head)
    print(f"{'workload':24s} {'metric':20s} {'base median [q1, q3]':32s} "
          f"{'head median [q1, q3]':32s} {'change':>8s} {'bound':>6s}  verdict")
    for w, name, bv, hv, v in rows:
        change = gain(bv, hv, "higher") if bv and hv and bv[0] else 0.0
        bound = f"{bounds[name]:.2f}" if name in bounds else "+0"
        print(f"{w:24s} {name:20s} {fmt(bv) if bv else '-':32s} "
              f"{fmt(hv) if hv else '-':32s} {change:+8.2%} {bound:>6s}  {v}")
    common, differ = output_differences(base, head)
    print(f"\noutputs at common seeds: {common - len(differ)}/{common} "
          f"identical")
    for w, s in differ:
        print(f"OUTPUT DIFFERS: {w} fl.seed {s}")
    worse = any(r[4] in ("worse", "missing") for r in rows)
    return 1 if worse or differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
