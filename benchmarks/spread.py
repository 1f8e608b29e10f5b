"""Repeat the benchmark over several seeds and report run-to-run spread.

Usage, from the root of a checkout:

    python3 benchmarks/spread.py --seeds 10 [--workloads NAME ...]
        [--seconds 20] [--traced] [--out benchmarks/baseline.json]

For each workload it runs ``run.py`` once per seed (1..N), one run at a time,
and prints every end-to-end metric's median, quartiles and spread, the
distance between the quartiles as a share of the median.  A spread above a
third of the metric's bound in ``BENCHMARK.json`` is flagged.  ``--traced``
adds one traced run per workload for the per-layer numbers.  ``--out`` writes
all of it, with the machine and library versions, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1]), lines[:-1]


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
    except OSError:
        return "unknown"
    return ref


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"commit": git_commit(), "cpu_model": cpu_model(),
              "seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    steady = True
    for name in args.workloads:
        per_metric, attempted, failed = {}, 0, 0
        for seed in range(1, args.seeds + 1):
            result, table = run(name, seed, args.seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, m in result["metrics"].items():
                per_metric.setdefault(metric, []).append(m["value"])
            env_line = next(l for l in table if l.startswith("environment "))
            report["environment"] = json.loads(env_line.split(" ", 1)[1])
            print(f"{name} seed {seed}: " + "  ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
                flush=True)
        entry = {"attempted": attempted, "failed": failed, "end_to_end": {}}
        print(f"{name}: {attempted} operations, {failed} failed")
        for metric, values in per_metric.items():
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if spread > bounds[metric] / 3:
                flag, steady = "  <-- above a third of the bound", False
            print(f"  {metric:12s} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}"
                  f"  spread {spread:.3f} (bound {bounds[metric]}){flag}")
            entry["end_to_end"][metric] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "values": values}
        if args.traced:
            result, table = run(name, 1, args.seconds, 1)
            entry["per_layer"] = {k: m["value"]
                                  for k, m in result["metrics"].items()}
            entry["counts"] = [l.strip() for l in table
                               if l.strip().split(" ")[0] in
                               ("accepted_steps", "rejected_steps",
                                "frames_emitted", "oracle_rel_err")]
        report["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n",
                                  encoding="utf-8")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
