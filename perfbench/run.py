"""dwac-kit benchmark: one workload per invocation, end-to-end or traced.

Usage:
    python3 perfbench/run.py --workload {blobs-train,adult-shape,serve-20k}
        --seed N --seconds S --trace {0,1}

Run from the root of a dwac-kit checkout; the package is imported from its
``src`` directory. Inputs are generated from ``--seed``. Every workload
process is a fresh ``python3 perfbench/child.py`` that calls
``dwac_kit.cli.main`` in-process with BLAS pinned to one thread; outputs go
to a temporary directory under ``.bench_work/`` that is removed at exit.

``--trace 0`` sets up three times (``setup_s`` is the median), then repeats
the job, at least twice, while another repetition still fits in
``--seconds``, touching the job's peak memory before each one. It reports
the end-to-end metrics as medians over repetitions. ``--trace 1`` sets up once and runs the job once untraced and
once traced; it reports the per-layer metrics. Either way the outputs of all
repetitions must be byte-identical, and each command's return code and the
workload's checks count as operations in ``attempted``/``failed``.

The last line of stdout is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A directory that is not a
checkout (no ``src/dwac_kit``) exits 2 without printing a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import TRACED_UNITS  # noqa: E402
from workloads import SCHEMA, WORKLOADS, Operations  # noqa: E402

SETUP_REPEATS = 3
MIN_REPEATS = 2
RUN_LIMIT_S = 170  # workload processes still running then are killed, so a run ends within 180 s
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "setup_s": "s", "job_s": "s", "peak_rss_mb": "MB",
    "test_accuracy": "ratio", "coverage_0.05": "ratio",
}
PER_LAYER_UNITS = {
    **TRACED_UNITS,
    "trace.overhead_s": "s", "trace.check_s": "s",
    "train_s": "s", "ood_s": "s", "predict_rows_per_s": "rows/s",
    "conformal_rows_per_s": "rows/s", "explain_rows_per_s": "rows/s",
}


def _run_child(work: str, tag: str, steps: list[dict], trace: bool, ops: Operations,
               deadline: float):
    """Run ``steps`` in a fresh workload process, killed at ``deadline``
    (a ``perf_counter`` time); returns (wall_s, result or None)."""
    request = os.path.join(work, f"{tag}.request.json")
    result_path = os.path.join(work, f"{tag}.result.json")
    with open(request, "w", encoding="utf-8") as f:
        json.dump({"steps": steps, "trace": trace, "result": result_path}, f)
    env = {**os.environ, **THREAD_ENV, "PYTHONHASHSEED": "0", "TMPDIR": work}
    log_path = os.path.join(work, f"{tag}.log")
    t0 = time.perf_counter()
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), request],
                                  cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=max(deadline - t0, 1.0), check=False)
            exit_code = proc.returncode
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            exit_code = None
    wall = time.perf_counter() - t0
    result = None
    if exit_code == 0 and os.path.exists(result_path):
        with open(result_path, "r", encoding="utf-8") as f:
            result = json.load(f)
    if result is None:
        for i, step in enumerate(steps):
            ops.record(f"{tag} step {i}: process exit {exit_code}", False)
    else:
        for i, step in enumerate(result["steps"]):
            ops.record(f"{tag} step {i} ({step['name']}): rc {step['rc']}", step["rc"] == 0)
    if result is None or any(s["rc"] != 0 for s in result["steps"]):
        with open(log_path, "r", encoding="utf-8", errors="replace") as f:
            sys.stderr.write(f"--- {tag} log (tail) ---\n" + "".join(f.readlines()[-30:]))
    return wall, result


def _prefault(mb: int, deadline: float) -> None:
    """Touch ``mb`` MB in a process of its own; see prefault.py."""
    if not mb:
        return
    try:
        subprocess.run([sys.executable, os.path.join(HERE, "prefault.py"), str(mb)],
                       check=False, timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:  # killed and reaped; the repetition just starts colder
        pass


def _tree_digest(path: str) -> dict[str, str]:
    digests = {}
    for dirpath, _, files in os.walk(path):
        for name in files:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as f:
                digests[os.path.relpath(full, path)] = hashlib.sha256(f.read()).hexdigest()
    return dict(sorted(digests.items()))


def _job_wall(result: dict) -> float:
    return sum(s["wall_s"] for s in result["steps"])


def _command_figures(result: dict, query_rows: dict[str, int]) -> dict[str, float]:
    """Untraced per-command figures: train/ood seconds and rows per second."""
    wall = {name: 0.0 for name in ("train", "ood", "predict", "conformal", "explain")}
    for step in result["steps"]:
        wall[step["name"]] += step["wall_s"]
    out = {"train_s": wall["train"], "ood_s": wall["ood"]}
    for name in ("predict", "conformal", "explain"):
        rows = query_rows.get(name, 0)
        out[f"{name}_rows_per_s"] = rows / wall[name] if rows and wall[name] else 0.0
    return out


def _machine() -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as f:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in f
                                if line.startswith("model name")), "unknown")
        with open("/proc/meminfo", "r", encoding="utf-8") as f:
            info["mem_total"] = next((line.split(":", 1)[1].strip() for line in f
                                      if line.startswith("MemTotal")), "unknown")
    except OSError:
        pass
    return info


def _loadavg() -> list[float]:
    return list(os.getloadavg())


def run(workload, seed: int, seconds: float, trace: bool, work: str) -> tuple[dict, dict, Operations]:
    ops = Operations()
    deadline = time.perf_counter() + RUN_LIMIT_S
    record: dict = {"workload": workload.name, "seed": seed, "trace": int(trace),
                    **_machine(), "thread_env": THREAD_ENV, "loadavg_start": _loadavg()}

    setup_walls, setup_digests = [], []
    for i in range(1 if trace else SETUP_REPEATS):
        inputs = os.path.join(work, f"setup{i}")
        os.makedirs(inputs)
        wall, result = _run_child(work, f"setup{i}", workload.setup(inputs, seed), False, ops,
                                  deadline)
        setup_walls.append(wall)
        setup_digests.append(_tree_digest(inputs))
        if result:
            record.update(numpy=result["numpy"], blas=result["blas"])
    ops.record("setups produce identical inputs", all(d == setup_digests[0] for d in setup_digests))
    inputs = os.path.join(work, "setup0")

    # Traced: one untraced repetition, then one traced; the difference of their
    # job times is the tracing overhead.
    reps = []  # (out dir, result)
    start = time.perf_counter()
    while True:
        _prefault(workload.prefault_mb, deadline)
        tag = f"rep{len(reps)}"
        out = os.path.join(work, tag)
        steps = [{"cli": argv} for argv in workload.job(inputs, out, seed)]
        _, result = _run_child(work, tag, steps, trace and len(reps) == 1, ops, deadline)
        reps.append((out, result))
        if result is None or (trace and len(reps) == 2):
            break
        if not trace and len(reps) >= MIN_REPEATS and (
                time.perf_counter() - start + _job_wall(result) > seconds):
            break

    digests = [_tree_digest(out) for out, _ in reps]
    ops.record("repetitions write byte-identical outputs", all(d == digests[0] for d in digests))
    values: dict[str, float] = {}
    if all(result is not None for _, result in reps):
        try:
            values = workload.check(inputs, reps[0][0], ops)
        except (OSError, ValueError, KeyError, StopIteration) as e:
            ops.record(f"outputs readable ({type(e).__name__}: {e})", False)

    results = [r for _, r in reps if r is not None]
    record["job_walls_s"] = [_job_wall(r) for r in results]
    record["commands"] = [[{k: s[k] for k in ("name", "wall_s", "cpu_s", "sys_s", "wait_s")}
                           for s in r["steps"]] for r in results]
    record["setup_walls_s"] = setup_walls
    record["loadavg_end"] = _loadavg()

    metrics: dict[str, float] = {}
    if trace:
        untraced = next((r for r in results if "layers" not in r), None)
        traced = next((r for r in results if "layers" in r), None)
        if untraced and traced:
            metrics.update(traced["layers"])
            metrics["trace.overhead_s"] = _job_wall(traced) - _job_wall(untraced)
            metrics["trace.check_s"] = traced["trace_check_s"]
            metrics.update(_command_figures(untraced, workload.query_rows))
            record["absent_layers"] = traced["absent"]
            record["kernel_shapes"] = traced["shapes"]
    elif results:
        metrics["setup_s"] = statistics.median(setup_walls)
        metrics["job_s"] = statistics.median(_job_wall(r) for r in results)
        metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in results)
        metrics.update(values)
    return metrics, record, ops


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="dwac-kit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [os.path.join("src", "dwac_kit", "cli.py"), SCHEMA]
    missing = [p for p in needed if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: {ROOT} is not a dwac-kit checkout: missing {missing}", file=sys.stderr)
        return 2

    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        metrics, record, ops = run(WORKLOADS[args.workload], args.seed, args.seconds,
                                   bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print("run record: " + json.dumps(record, sort_keys=True))
    for failure in ops.failures:
        print(f"FAILED: {failure}")
    for name, unit in units.items():
        print(f"{name:<48} {metrics.get(name, float('nan')):>16.6g} {unit}")
    print(json.dumps({
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
