"""Steadiness check: two sets of runs of the same code, compared metric by
metric against the bounds in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10]

Each set runs every workload once per seed (seeds 1 ... runs), with
BENCHMARK.json's command and run length.  For each end-to-end metric on each
workload it prints both sets' medians and quartiles, the spread (quartile
distance over median) and the shift of the second median in the metric's
worse direction, next to the metric's bound.  A metric passes when its
spread is within the bound in both sets and the shift is within the bound.
The failed share of operations must be the same in both sets.  Raw results
go to perfbench/out/steady.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(command, workload, seed, seconds) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("need --runs >= 2")

    seeds = range(1, args.runs + 1)
    results = {}  # (set, workload) -> list of run results
    for s in (1, 2):
        for workload in names:
            runs = results[f"{s}:{workload}"] = []
            for seed in seeds:
                runs.append(one_run(spec["command"], workload, seed, spec["run_seconds"]))
                print(f"set {s} {workload} seed {seed}: {json.dumps(runs[-1]['metrics'])}",
                      file=sys.stderr)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steady.json").write_text(json.dumps(results, indent=1))

    ok = True
    print(f"{'workload':18} {'metric':12} {'median 1':>10} {'q1-q3 (1)':>21} {'spread':>7} "
          f"{'median 2':>10} {'q1-q3 (2)':>21} {'spread':>7} {'worse':>7} {'bound':>6}")
    for workload in names:
        a, b = results[f"1:{workload}"], results[f"2:{workload}"]
        share = [sum(r["failed"] for r in x) / sum(r["attempted"] for r in x) for x in (a, b)]
        if share[0] != share[1] or not all(r["correct"] for r in a + b):
            ok = False
            print(f"{workload}: failed share {share[0]} then {share[1]}, "
                  f"correct in every run: {all(r['correct'] for r in a + b)}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            s1 = summary([r["metrics"][name]["value"] for r in a])
            s2 = summary([r["metrics"][name]["value"] for r in b])
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (s2[1] - s1[1]) / s1[1]
            passed = worse <= bound and max(s1[3], s2[3]) <= bound
            ok &= passed
            print(f"{workload:18} {name:12} {s1[1]:10.4g} {s1[0]:10.4g}-{s1[2]:<10.4g} "
                  f"{s1[3]:7.1%} {s2[1]:10.4g} {s2[0]:10.4g}-{s2[2]:<10.4g} {s2[3]:7.1%} "
                  f"{worse:7.1%} {bound:6.0%}{'' if passed else '  FAIL'}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
