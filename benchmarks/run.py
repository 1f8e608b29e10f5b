"""Run one helflow benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

The run is a closed loop of operations for S seconds: each operation is a
fresh process (``op.py``) that makes one call into helflow, and the next one
starts when it has ended.  Every operation's outputs are checked.  The command
prints a table (median, quartiles and sample count per metric) and, as its
last line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A traced run alternates untraced and traced operations, so
``trace.overhead_frac`` compares the two within one run.

Inputs come from the seed; files go to ``.bench_work/`` in the checkout and
are removed when their operation passed its check.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import NOMINAL_S
from tracer import LAYER_METRICS, OVERHEAD_METRIC, layer_metrics
from workloads import (FRAME_AMPLITUDES, FRAME_LEVEL, WORKLOADS, check_flow,
                       check_frames, frame_snapshot_radii, write_ellipsoid_off)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# One BLAS thread: the host has 2 cores shared with other tenants, and
# OpenBLAS threads spin, which costs CPU time without saving wall time here.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
HARD_LIMIT_S = 170.0       # the whole command ends well within 180 s

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
RAW_TIMES = (("wall_raw_s", "s"), ("cpu_raw_s", "s"), ("setup_raw_s", "s"),
             ("host_factor", "1"))
OUTCOME_METRICS = (("accepted_steps", "count"), ("rejected_steps", "count"),
                   ("frames_emitted", "count"), ("remesh_count", "count"),
                   ("oracle_rel_err", "1"))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def prepare(wl, seed, run_dir):
    """Write the run's inputs; returns the parts of the op spec they fill."""
    if wl.kind == "frames":
        return {"seed": seed, "level": FRAME_LEVEL,
                "amplitudes": list(FRAME_AMPLITUDES),
                "radii": frame_snapshot_radii(seed)}
    if "ellipsoid.off" in wl.config:
        write_ellipsoid_off(run_dir / "ellipsoid.off")
    config = run_dir / "run.cfg"
    config.write_text(wl.config.format(seed=seed), encoding="utf-8")
    return {"config": str(config)}


def run_op(wl, run_dir, index, inputs, traced, timeout):
    """One operation in a fresh process; returns its record."""
    op_dir = run_dir / f"op{index:03d}"
    op_dir.mkdir()
    spec = {"kind": wl.kind, "src": str(SRC), "out": str(op_dir / "out"),
            "trace": traced, **inputs}
    spec_path = op_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(SRC)}

    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "op.py"),
                               str(spec_path)], cwd=op_dir, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "errors": [f"timed out after {timeout:.0f} s"]}
    try:
        result = json.loads((op_dir / "result.json").read_text("utf-8"))
    except (OSError, ValueError):
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"traced": traced,
                "errors": [f"op exited {proc.returncode}: {' | '.join(tail)}"]}

    if result["first"] is None:
        return {"traced": traced,
                "errors": ["no first step or frame call was recorded"]}
    if wl.kind == "flow":
        outcome = check_flow(wl, spec["out"], result["exit_code"])
    else:
        outcome = check_frames(wl, result)
    # Times are reported at nominal host speed (see hostspeed.py); the raw
    # measurements are kept next to them.
    factor = result["calibration_s"] / NOMINAL_S
    raw = {"wall_raw_s": result["end"] - result["first"],
           "cpu_raw_s": result["cpu_s"],
           "setup_raw_s": result["first"] - t_spawn}
    record = {
        "traced": traced,
        "errors": outcome.errors,
        **raw,
        "host_factor": factor,
        **{name[:-6] + "_s": value / factor for name, value in raw.items()},
        "peak_rss_mb": result["peak_rss_mb"],
        "missing": result["missing"],
        **{name: getattr(outcome, name) for name, _ in OUTCOME_METRICS},
    }
    if traced:
        record["layers"] = layer_metrics(
            result["spans"], result["missing"],
            accepted_steps=outcome.accepted_steps or 0,
            remesh_count=outcome.remesh_count)
    if not outcome.errors:
        shutil.rmtree(op_dir)
    return record


def summarize(records, metrics):
    """name -> (unit, [values]) over the records that carry the metric."""
    out = {}
    for name, unit in metrics:
        values = [r[name] for r in records if r.get(name) is not None]
        if values:
            out[name] = (unit, values)
    return out


def print_table(title, table):
    print(title)
    print(f"  {'metric':34s} {'unit':6s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'n':>3s}")
    for name, (unit, values) in table.items():
        med, q1, q3 = quartiles(values)
        print(f"  {name:34s} {unit:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{len(values):3d}")


def environment():
    import numpy
    import scipy

    def blas(cfg):
        try:
            b = cfg(mode="dicts")["Build Dependencies"]["blas"]
            return f"{b['name']} {b['version']}"
        except (TypeError, KeyError):
            return "unknown"

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numpy_blas": blas(numpy.show_config),
            "scipy_blas": blas(scipy.show_config),
            "blas_threads": int(THREAD_ENV["OPENBLAS_NUM_THREADS"]),
            "nproc": os.cpu_count()}


def main(argv=None):
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "helflow" / "__init__.py").is_file():
        print(f"error: no helflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update(THREAD_ENV)   # before numpy is imported

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    run_dir = WORK / f"{wl.name}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    inputs = prepare(wl, args.seed, run_dir)

    records = []
    loop_start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(records) % 2 == 1
        remaining = HARD_LIMIT_S - (time.monotonic() - started)
        record = run_op(wl, run_dir, len(records), inputs, traced,
                        timeout=max(remaining, 1.0))
        records.append(record)
        elapsed = time.monotonic() - loop_start
        enough = not args.trace or len(records) >= 2
        if (elapsed >= args.seconds and enough) or "wall_s" not in record \
                or time.monotonic() - started >= HARD_LIMIT_S - 20:
            break
    if not any(r["errors"] for r in records):
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = [r for r in records if r["errors"]]
    good = [r for r in records if not r["errors"]]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]

    env = environment()
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  ops {len(records)}  failed {len(failed)}")
    print("environment " + json.dumps(env))
    print(f"why: {wl.why}")
    end_to_end = summarize(plain, END_TO_END)
    print_table("end-to-end (untraced operations)",
                {**end_to_end, **summarize(plain, RAW_TIMES),
                 **summarize(plain, OUTCOME_METRICS),
                 "failed_fraction": ("1", [len(failed) / len(records)])})
    for r in failed:
        print("FAILED: " + "; ".join(r["errors"]))
    for name, ref in wl.reference.items():
        seen = sorted({r[name] for r in good})
        if seen != [ref]:
            print(f"note: {name} {seen} differs from the reference {ref}")

    if args.trace:
        layers = summarize([r["layers"] for r in traced],
                           [(n, u) for n, u, _, _ in LAYER_METRICS])
        if end_to_end and traced:
            walls = [r["wall_s"] for r in traced]
            overhead = statistics.median(walls) / statistics.median(
                end_to_end["wall_s"][1]) - 1.0
            layers[OVERHEAD_METRIC[0]] = (OVERHEAD_METRIC[1], [overhead])
        missing = sorted({m for r in traced for m in r["missing"]})
        if missing:
            print("missing entry points (metrics absent): " + ", ".join(missing))
        print_table("per-layer (traced operations)", layers)
        reported = layers
    else:
        reported = end_to_end

    metrics = {name: {"value": quartiles(values)[0], "unit": unit}
               for name, (unit, values) in reported.items()}
    print(json.dumps({"correct": not failed, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
