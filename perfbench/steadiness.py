"""The benchmark's own steadiness test.

    python3 perfbench/steadiness.py

Makes two back-to-back sets of untraced runs on the current checkout, ten
per workload of BENCHMARK.json in each set, every run with another seed
(seeds 1-10, then 11-20) and the workloads interleaved.  It echoes each
run's report: every end-to-end metric with its unit, sample count and
failures, and the output hashes.  Then, for every workload and end-to-end
metric, it prints each set's median and quartile spread (q3 - q1) / median
and checks them against the bounds in BENCHMARK.json: every spread within
its bound, and the second set's median no worse than the first set's by
more than the bound.  A spread above a third of its bound is flagged as too
close.  Exits 1 if a check fails or a run is not correct.  Run it from the
root of a checkout.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RUNS = 10  # per workload and set
SETS = 2


def _run(workload: str, seed: int) -> dict:
    """One untraced run; echoes its report and returns its JSON result."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-800:]}")
    print(f"seed {seed} " + "\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def _spread(values) -> tuple[float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / abs(median)


def main() -> int:
    workloads = [w["name"] for w in SPEC["workloads"]]
    metrics = SPEC["end_to_end"]

    values = {(s, w, m["name"]): [] for s in range(SETS) for w in workloads for m in metrics}
    ok = True
    for s in range(SETS):
        for i in range(RUNS):
            seed = s * RUNS + i + 1
            for w in workloads:
                result = _run(w, seed)
                if not result["correct"]:
                    print(f"NOT CORRECT {w} seed {seed}: {result['failed']} of "
                          f"{result['attempted']} runs failed")
                    ok = False
                for m in metrics:
                    if m["name"] in result["metrics"]:
                        values[s, w, m["name"]].append(result["metrics"][m["name"]]["value"])

    report = []
    for w in workloads:
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            stats = [_spread(values[s, w, name]) for s in range(SETS)]
            first = stats[0][0]
            notes = []
            for s, (median, spread) in enumerate(stats):
                if spread > bound:
                    notes.append(f"set {s} spread over bound")
                    ok = False
                elif spread > bound / 3:
                    notes.append(f"set {s} spread over bound/3")
                worse = (median - first) / first if lower else (first - median) / first
                if worse > bound:
                    notes.append(f"set {s} median worse than set 0 by {worse:.3f}")
                    ok = False
            line = f"{w:>18} {name:>12} bound {bound:<5}" + "".join(
                f" | set {s}: median {med:.6g} spread {spr:.4f}"
                for s, (med, spr) in enumerate(stats))
            print(line + ("  <- " + "; ".join(notes) if notes else ""))
            report.append({"workload": w, "metric": name, "bound": bound,
                           "sets": [{"median": med, "spread": spr, "values": values[s, w, name]}
                                    for s, (med, spr) in enumerate(stats)]})
    out = Path.cwd() / ".perfbench_out" / "steadiness.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
