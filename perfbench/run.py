"""Stage-by-stage benchmark of ``rtm run`` on seeded synthetic workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``rtm`` from ``src/``.  It
generates the workload's inputs from the seed, then (closed loop, one client)
starts fresh single-threaded driver processes back to back until S seconds
have passed and the workload's ``min_runs`` are done, each running the six
stages once (``driver.py``).  Where the front half is cheap, drivers that
stop after it bring ``front_s`` to seven samples; drivers that stop after
set-up bring ``setup_s`` to fifteen, half of them before the runs.  With
``--trace 1`` one more driver runs with every layer's public functions
wrapped and must write bit-for-bit the same outputs.

Every run is checked: the driver exits 0, every stage writes its outputs,
quality is at or above the workload's floor, and the sha256 of the
deterministic outputs matches the other runs of this invocation and any
earlier run in this checkout of the same sources on the same input files,
Python, numpy and hash seed.  A run
that breaks a check counts as failed.

The report goes to stdout, one line per metric with its unit, sample count
and failures, then a last line of JSON: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  The full record of
the run, hashes and environment included, is written to
``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import monotonic, perf_counter

import numpy as np

from driver import STAGES
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
FRONT_SAMPLES = 7  # of front_s, where the front half is cheap
SETUP_SAMPLES = 15
TIME_LIMIT_S = 170.0  # the whole invocation, spawns included

# One BLAS thread per driver, and one driver at a time.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

HASHED = ("interpretants.tsv", "features_train.tsv", "features_test.tsv",
          "cv_table.tsv", "predictions.tsv", "report.txt")

# The metric names and units this script must print are those of BENCHMARK.json.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
FRONT = STAGES[:3]


class Failed(Exception):
    """A run broke a correctness check."""


def _spawn(args, env, deadline):
    """Run one driver; returns (seconds to ``ready``, exit code, stderr)."""
    cmd = [sys.executable, str(HERE / "driver.py"), *args]
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - monotonic()))
        line = proc.stdout.readline() if ready else b""
        setup = perf_counter() - start
        _, err = proc.communicate(timeout=max(0.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        raise Failed("driver ran past the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if line.strip() != b"ready":
        raise Failed(f"driver never became ready: {err.decode(errors='replace')[-400:]}")
    return setup, proc.returncode, err.decode(errors="replace")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _digest(root: Path, pattern: str) -> str:
    """sha256 over the relative names and bytes of the files under ``root``."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob(pattern) if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _rows(path: Path):
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#")]


def _quality(task: str, inputs: Path, out: Path) -> float:
    """Pearson r of predictions (intensity) or class F1 (triples), on test gold."""
    gold_rows = _rows(inputs / "test.tsv")
    pred_rows = _rows(out / "predictions.tsv")
    if task == "intensity":
        gold = {r[0]: float(r[3]) for r in gold_rows[1:]}
        pred = np.array([float(r[1]) for r in pred_rows])
        y = np.array([gold[r[0]] for r in pred_rows])
        return float(np.corrcoef(pred, y)[0, 1])
    gold = {r[0]: int(r[4]) for r in gold_rows}
    pred = np.array([int(r[2]) for r in pred_rows])
    y = np.array([gold[r[0]] for r in pred_rows])
    tp = int(((pred == 1) & (y == 1)).sum())
    return 2.0 * tp / max(1, 2 * tp + int((pred != y).sum()))


class Bench:
    def __init__(self, name: str, seed: int, root: Path):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.src = root / "src"
        self.work = root / ".perfbench_out" / f"{name}-seed{seed}"
        self.store = root / ".perfbench_out" / "hashes.json"
        self.results = root / ".perfbench_out" / "results"
        self.deadline = monotonic() + TIME_LIMIT_S
        self.env = {**os.environ, **{var: "1" for var in THREAD_VARS},
                    "PYTHONHASHSEED": str(seed % 2**32)}
        self.samples = {name: [] for name in
                        ("run_s", "setup_s", "front_s", "train_s", "peak_rss_mb", "quality")}
        self.runs: list[dict] = []  # completed six-stage runs
        self.hashes: dict[str, str] = {}
        self.failures: list[str] = []
        self.attempted = 0

    def prepare(self):
        shutil.rmtree(self.work, ignore_errors=True)
        self.inputs = self.work / "inputs"
        self.config = generate(self.workload.name, self.seed, self.inputs)
        # Outputs are compared with earlier runs of the same code on the same
        # bytes of input, under the same interpreter, numpy and hash seed.
        self.key = ":".join((_digest(self.src, "*.py"), _digest(self.inputs, "*"),
                             platform.python_version(), np.__version__,
                             self.env["PYTHONHASHSEED"]))

    def _driver(self, out: Path, *flags, env=None) -> tuple[int, str, Path]:
        result = out.with_suffix(".json")
        setup, code, err = _spawn(["--src", str(self.src), "--config", str(self.config),
                                   "--out", str(out), "--result", str(result), *flags],
                                  env or self.env, self.deadline)
        self.samples["setup_s"].append(setup)
        return code, err, result

    def run(self, tag: str, *flags, front_only: bool = False) -> dict | None:
        """One driver run of the six stages, or of the front three.

        Returns the driver's result, or None after recording a failure if a
        check breaks.
        """
        stages, files = (STAGES[:3], HASHED[:3]) if front_only else (STAGES, HASHED)
        self.attempted += 1
        out = self.work / tag
        try:
            code, err, result_path = self._driver(out, "--stop-after", stages[-1], *flags)
            if code != 0 or not result_path.exists():
                raise Failed(f"{tag}: driver exited {code}: {err[-400:]}")
            result = json.loads(result_path.read_text())
            if list(result["codes"]) != list(stages) or any(result["codes"].values()):
                raise Failed(f"{tag}: stage failed {result['codes']}: {result['stderr'][-400:]}")
            missing = [name for name in files if not (out / name).is_file()]
            if missing:
                raise Failed(f"{tag}: missing outputs {missing}")
            result["hashes"] = {name: _sha256(out / name) for name in files}
            if not front_only:
                try:
                    result["quality"] = _quality(self.workload.task, self.inputs, out)
                except (KeyError, IndexError, ValueError) as exc:
                    raise Failed(f"{tag}: unreadable predictions.tsv: {exc!r}") from None
                result["artifact_bytes"] = sum(p.stat().st_size for p in out.iterdir())
                if not result["quality"] >= self.workload.quality_floor:  # NaN fails too
                    raise Failed(f"{tag}: quality {result['quality']:.4f} below floor "
                                 f"{self.workload.quality_floor}")
            self._check_hashes(tag, result["hashes"])
        except Failed as exc:
            self.failures.append(str(exc))
            return None
        times = result["stages"]
        result["front_s"] = sum(times[s] for s in FRONT)
        result["train_s"] = times.get("train")
        result["run_s"] = sum(times.values())
        return result

    def measure(self, seconds: float):
        """Six-stage runs back to back for ``seconds``, then top-ups.

        At least the workload's ``min_runs`` six-stage runs are attempted, so
        that every output is compared with another run of this invocation.
        Front-only runs bring front_s to FRONT_SAMPLES samples where the front
        half is cheap (under a tenth of ``seconds``), and set-up-only drivers
        bring setup_s to SETUP_SAMPLES.  Half of those come before the runs:
        set-up samples taken at both ends move less with the machine's speed,
        which drifts over tens of seconds.
        """
        self._setup_only(SETUP_SAMPLES // 2)
        start, full = monotonic(), 0
        while full < self.workload.min_runs or monotonic() - start < seconds:
            full += 1
            result = self.run(f"run{self.attempted}")
            if result is None and not self.runs:
                return
            if result is not None:
                self.runs.append(result)
                for name in self.samples.keys() - {"setup_s"}:
                    self.samples[name].append(result[name])
        fronts = self.samples["front_s"]
        while len(fronts) < FRONT_SAMPLES and median(fronts) < seconds / 10:
            result = self.run(f"front{self.attempted}", front_only=True)
            if result is None:
                break
            fronts.append(result["front_s"])
        self._setup_only(SETUP_SAMPLES)

    def _setup_only(self, samples: int):
        """Set-up-only drivers until setup_s has ``samples`` samples."""
        while len(self.samples["setup_s"]) < samples:
            code, err, _ = self._driver(self.work / "setup", "--setup-only")
            if code != 0:
                raise Failed(f"set-up driver exited {code}: {err[-400:]}")

    def hashseed_dependence(self) -> int:
        """How many front-half outputs change when only PYTHONHASHSEED changes.

        The program promises byte-identical outputs for the same config, but
        some of its floating-point sums run over sets, whose order follows
        the interpreter's string hash seed.  Every other driver of one
        invocation shares a hash seed, so the identity checks compare like
        with like; this count keeps the dependence visible until it is fixed.
        """
        out = self.work / "hashseed"
        env = {**self.env, "PYTHONHASHSEED": str((self.seed + 1) % 2**32)}
        code, err, _ = self._driver(out, "--stop-after", STAGES[2], env=env)
        if code != 0:
            raise Failed(f"hashseed: driver exited {code}: {err[-400:]}")
        return sum(_sha256(out / name) != self.hashes[name] for name in HASHED[:3])

    def _check_hashes(self, tag: str, hashes: dict):
        """Outputs must equal every other run of the same code, workload and seed."""
        store = json.loads(self.store.read_text()) if self.store.exists() else {}
        self.hashes = store.setdefault(self.key, {})
        differ = [name for name, digest in hashes.items()
                  if self.hashes.setdefault(name, digest) != digest]
        tmp = self.store.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
        os.replace(tmp, self.store)
        if differ:
            raise Failed(f"{tag}: outputs differ from an earlier run of the same code: {differ}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    if not (root / "src" / "rtm" / "__init__.py").is_file():
        print(f"perfbench: no rtm sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, root)
    bench.prepare()
    try:
        bench.measure(args.seconds)
        traced = bench.run("traced", "--trace") if args.trace and bench.runs else None
        hashseed_files = bench.hashseed_dependence() if traced else None
    except Failed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if not bench.runs:
        print("perfbench: no run completed\n" + "\n".join(bench.failures), file=sys.stderr)
        return 1

    end_to_end = bench.samples
    per_layer = {}
    if args.trace:
        per_layer = {f"pipeline.{s}_s": median(r["stages"][s] for r in bench.runs)
                     for s in STAGES}
        per_layer["pipeline.artifact_bytes"] = median(r["artifact_bytes"] for r in bench.runs)
        if traced is not None:
            per_layer.update(traced["layers"])
            per_layer["pipeline.trace_overhead_s"] = traced["run_s"] - median(end_to_end["run_s"])
            per_layer["pipeline.hashseed_dependent_files"] = hashseed_files

    failed = len(bench.failures)
    report = {
        "workload": args.workload,
        "size": bench.workload.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": bench.attempted,
        "failed": failed,
        "failures": bench.failures,
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            **{var: bench.env[var] for var in (*THREAD_VARS, "PYTHONHASHSEED")},
        },
        "hashes": bench.hashes,
        "samples": end_to_end,
        "runs": [{k: r[k] for k in ("stages", "peak_rss_mb", "quality")} for r in bench.runs],
        "per_layer": per_layer,
    }
    bench.results.mkdir(parents=True, exist_ok=True)
    (bench.results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))

    print(f"workload {args.workload}: {bench.workload.size}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in report["environment"].items()))
    for name, values in end_to_end.items():
        print(f"{name:>12} {median(values):12.6g} {UNITS[name]:<5} median of "
              f"{len(values)}, failed {failed} of {bench.attempted} runs")
    for name, value in per_layer.items():
        print(f"{name:>36} {value:14.6g} {UNITS[name]}")
    for name, digest in report["hashes"].items():
        print(f"sha256 {digest} {name}")
    for failure in bench.failures:
        print(f"FAILED {failure}")

    values = per_layer if args.trace else {k: median(v) for k, v in end_to_end.items()}
    listed = [m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]]
    missing, extra = set(listed) - set(values), set(values) - set(listed)
    if missing or extra:
        print(f"FAILED metrics not measured: {sorted(missing)}; not listed: {sorted(extra)}")
    metrics = {name: {"value": values[name], "unit": UNITS[name]}
               for name in listed if name in values}
    correct = failed == 0 and not missing and not extra
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
