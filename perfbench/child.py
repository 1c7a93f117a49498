"""One workload process: runs steps in order and writes a JSON result.

Usage: python3 perfbench/child.py REQUEST.json

The request names its steps and where to write the result. A step is a CLI
command (``{"cli": argv}``, run in-process through ``dwac_kit.cli.main``)
or an input generator (``{"adult_csv": path, "rows": n, "seed": s}`` or
``{"blob_labels": spec, "path": p}``). With ``"trace": true`` the tracer
wraps the package's public functions before the first step.

A step that returns nonzero or raises is recorded as failed, with its
traceback on stderr; the remaining steps still run.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import adult  # noqa: E402
import layers  # noqa: E402
from tracer import Tracer, max_rss_mb  # noqa: E402


def _blas() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def _sys_time() -> float:
    """Kernel-mode CPU seconds of this process: mostly page faults on fresh
    arrays, which cpu_s includes."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_stime


def _run_step(step: dict, cli, tracer: Tracer | None) -> dict:
    if "adult_csv" in step:
        adult.write_adult_csv(step["adult_csv"], step["rows"], step["seed"])
        return {"name": "adult_csv", "rc": 0}
    if "blob_labels" in step:
        # the CLI's own spec parser, so the labels are those of the rows it scores
        labels = cli._parse_blob_spec(step["blob_labels"], 0).y
        with open(step["path"], "w", encoding="utf-8") as f:
            json.dump(labels.tolist(), f)
        return {"name": "blob_labels", "rc": 0}

    argv = step["cli"]
    clock = tracer.now if tracer else time.perf_counter
    cpu_clock = tracer.cpu_now if tracer else time.process_time
    rss0 = max_rss_mb()
    span = tracer.begin(f"cli.{argv[0]}") if tracer else None
    t0, c0, s0 = clock(), cpu_clock(), _sys_time()
    try:
        rc = cli.main(argv)
    except SystemExit as e:  # argparse exits on a flag it rejects
        rc = e.code if isinstance(e.code, int) else 1
    except Exception:  # a traceback is a failed operation, not a crashed benchmark
        traceback.print_exc()
        rc = -1
    wall, cpu = clock() - t0, cpu_clock() - c0
    record = {"name": argv[0], "rc": rc, "wall_s": wall, "cpu_s": cpu, "sys_s": _sys_time() - s0,
              "wait_s": wall - cpu, "rss_growth_mb": max_rss_mb() - rss0}
    if tracer:
        tracer.end(span)
        span.attrs.update((k, record[k]) for k in layers.COMMAND_FIGURES)
    return record


def main(request_path: str) -> int:
    with open(request_path, "r", encoding="utf-8") as f:
        request = json.load(f)
    from dwac_kit import cli
    if not os.path.abspath(cli.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"dwac_kit imported from {cli.__file__}, not from {ROOT}/src")

    tracer = None
    if request.get("trace"):
        tracer = Tracer()
        tracer.install(layers.TARGETS, rss=layers.RSS_TARGETS)
    steps = [_run_step(step, cli, tracer) for step in request["steps"]]

    result = {
        "steps": steps,
        "peak_rss_mb": max_rss_mb(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
    }
    if tracer:
        result["layers"] = layers.layer_metrics(tracer)
        result["absent"] = tracer.absent
        result["shapes"] = layers.shape_counts(tracer)
        result["trace_check_s"] = tracer.paused_s
    with open(request["result"], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
