"""One benchmark driver process: import rtm, parse the config, run the six stages.

    python3 perfbench/driver.py --src SRC --config CFG --out DIR --result FILE
                                [--trace] [--setup-only] [--stop-after STAGE]

The driver prints ``ready`` once ``rtm`` is imported and the config parsed, so
its parent can time set-up from the spawn.  It then makes one
``rtm.cli.main([<stage>, "--config", CFG, "--out", DIR, "--jobs", "2"])``
call per stage, the way ``rtm run`` walks them, timing each call from outside,
and writes stage times, return codes and its peak RSS to FILE as JSON.  With
``--trace`` the public functions of each layer are wrapped first (see
``layers.py``) and the per-layer metrics are written too.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
from time import perf_counter

STAGES = (
    "select-interpretants",
    "build-resources",
    "extract-features",
    "train",
    "predict",
    "evaluate",
)

# Equal to the benchmark machine's core count; a no-op while runs are
# single-process, and measured unchanged once --jobs does something.
JOBS = "2"


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest finished child, in MB."""
    kb = sum(resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--stop-after", choices=STAGES, default=STAGES[-1])
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    import rtm.cli
    from rtm.pipeline import parse_config

    parse_config(args.config)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import layers

        tracer = layers.install()
    stages, codes, glue = {}, {}, 0.0
    stderr = io.StringIO()
    for stage in STAGES:
        if tracer is not None:
            tracer.outermost = 0.0
        argv = [stage, "--config", args.config, "--out", args.out, "--jobs", JOBS]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            start = perf_counter()
            code = rtm.cli.main(argv)
            stages[stage] = perf_counter() - start
        codes[stage] = code
        if tracer is not None:
            glue += stages[stage] - tracer.outermost
        if code != 0 or stage == args.stop_after:
            break
    result = {
        "stages": stages,
        "codes": codes,
        "stderr": stderr.getvalue(),
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None and all(c == 0 for c in codes.values()) and len(codes) == len(STAGES):
        result["layers"] = {**layers.layer_metrics(tracer), "pipeline.glue_s": glue}
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
