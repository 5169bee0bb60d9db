#!/usr/bin/env python3
"""Summaries and comparisons of benchmark result sets.

A result set is a directory of `<workload>.<n>.json` files, each holding the
two lines one run printed (the `info` line and the result line); a traced
run is `<workload>.traced.json`. `benchmark/run.sh` writes them.

    summarize.py summary DIR       median, quartiles and spread per metric
    summarize.py compare A B       every end-to-end metric x workload of B
                                   against A, by its BENCHMARK.json bound
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
# What must repeat exactly for a seed: the inputs and the accuracy pair.
EXACT = ("input_digest", "rel_err_p50_pct", "ci_coverage")


def load(path):
    """Returns (info, result) of one run file."""
    lines = [l for l in Path(path).read_text().splitlines() if l.startswith("{")]
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def runs_of(directory, workload, traced=False):
    pattern = f"{workload}.traced.json" if traced else f"{workload}.[0-9]*.json"
    return [load(p) for p in sorted(Path(directory).glob(pattern))]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    """Inter-quartile distance as a share of the median, as the driver takes it."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def column(runs, metric):
    return [r["metrics"][metric]["value"] for _, r in runs if metric in r["metrics"]]


def summary(directory):
    over = 0
    for workload in WORKLOADS:
        runs = runs_of(directory, workload)
        if not runs:
            continue
        digests = {i["input_digest"] for i, _ in runs}
        failed = sum(r["failed"] for _, r in runs)
        attempted = sum(r["attempted"] for _, r in runs)
        wrong = sum(not r["correct"] for _, r in runs)
        print(f"\n{workload}: {len(runs)} runs, {len(digests)} distinct inputs, "
              f"{failed}/{attempted} operations failed, {wrong} runs incorrect")
        print(f"  {'metric':<22}{'unit':>9}{'q1':>15}{'median':>15}{'q3':>15}"
              f"{'spread':>9}{'bound':>8}")
        for name, spec in E2E.items():
            values = column(runs, name)
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            s = spread(values)
            over += s > spec["bound"]
            flag = "  > bound" if s > spec["bound"] else ""
            print(f"  {name:<22}{spec['unit']:>9}{q1:>15.4f}{med:>15.4f}{q3:>15.4f}"
                  f"{100 * s:>8.2f}%{100 * spec['bound']:>7.0f}%{flag}")
        # The lowest coverage is what the gate's floor is set under.
        for name in ("ci_coverage", "rel_err_p50_pct"):
            values = [i[name] for i, _ in runs]
            print(f"  {name:<22}{'':>9}{min(values):>15.4f}{statistics.median(values):>15.4f}"
                  f"{max(values):>15.4f}{100 * spread(values):>8.2f}%   (min, median, max)")
        # Every timing, end-to-end or demoted, as the passes and windows
        # estimated it and as one long pass would have.
        print(f"  {'timing':<22}{'median':>15}{'spread':>9}{'one long pass':>19}{'spread':>9}")
        for name in runs[0][0]["estimates"]:
            best = [i["estimates"][name]["best_of_pass"] for i, _ in runs]
            plain = [i["estimates"][name]["plain"] for i, _ in runs]
            print(f"  {name:<22}{statistics.median(best):>15.4f}{100 * spread(best):>8.2f}%"
                  f"{statistics.median(plain):>19.4f}{100 * spread(plain):>8.2f}%")
        traced = runs_of(directory, workload, traced=True)
        if traced:
            _, result = traced[0]
            metrics = result["metrics"]
            print("  traced pass:")
            for name in ("harness.trace_overhead_pct", "harness.unattributed_pct",
                         "selftime.core_pct", "selftime.cluster_pct", "selftime.net_pct",
                         "selftime.harness_pct"):
                print(f"    {name:<32}{metrics[name]['value']:>12.3f} {metrics[name]['unit']}")
            print("    traced vs untraced (median), the measured tracing overhead:")
            for name in runs[0][0]["estimates"]:
                base = statistics.median(i["estimates"][name]["best_of_pass"] for i, _ in runs)
                got = metrics[f"run.{name}"]["value"]
                print(f"      {name:<22}{got:>15.3f} vs {base:>15.3f} ({100 * (got / base - 1):+.1f}%)")
    print(f"\n{over} metric x workload cells spread by more than their bound")


def compare(a, b):
    """B against A: `worse` beyond the bound, `unresolved` where either
    set's own spread exceeds the bound, `ok` otherwise; and, for the seeds
    both sets ran, whether what must repeat exactly did."""
    verdicts = {"ok": 0, "worse": 0, "unresolved": 0}
    print(f"{'workload':<17}{'metric':<22}{'A median':>15}{'B median':>15}{'change':>9}"
          f"{'bound':>7}{'spread A':>10}{'spread B':>10}  verdict")
    for workload in WORKLOADS:
        runs_a, runs_b = runs_of(a, workload), runs_of(b, workload)
        if not runs_a or not runs_b:
            continue
        for name, spec in E2E.items():
            va, vb = column(runs_a, name), column(runs_b, name)
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / abs(ma) if ma else 0.0
            worsening = -change if spec["better"] == "higher" else change
            sa, sb = spread(va), spread(vb)
            if worsening > spec["bound"]:
                verdict = "worse"
            elif max(sa, sb) > spec["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            verdicts[verdict] += 1
            print(f"{workload:<17}{name:<22}{ma:>15.4f}{mb:>15.4f}{100 * change:>+8.2f}%"
                  f"{100 * spec['bound']:>6.0f}%{100 * sa:>9.2f}%{100 * sb:>9.2f}%  {verdict}")
    print(f"\n{verdicts['ok']} ok, {verdicts['unresolved']} unresolved, {verdicts['worse']} worse")

    differing = 0
    print(f"\nper seed, {', '.join(EXACT)}:")
    for workload in WORKLOADS:
        by_seed = {i["seed"]: i for i, _ in runs_of(a, workload)}
        shared = [(i["seed"], by_seed[i["seed"]], i) for i, _ in runs_of(b, workload)
                  if i["seed"] in by_seed]
        moved = [seed for seed, x, y in shared if any(x[k] != y[k] for k in EXACT)]
        differing += len(moved)
        print(f"  {workload:<17}{len(shared)} seeds in both sets, "
              f"{'identical' if not moved else f'differ on seeds {moved}'}")
    return 1 if verdicts["worse"] or differing else 0


def main(argv):
    if len(argv) == 3 and argv[1] == "summary":
        summary(argv[2])
        return 0
    if len(argv) == 4 and argv[1] == "compare":
        return compare(argv[2], argv[3])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
