"""metasrl benchmark: one workload per process, or every workload with --all.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_grid4 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --all [--seeds 0,1] [--seconds 25] [--write-baseline]

A single run prints its environment, a summary and, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the same work runs again with
spans recorded around every call into a metasrl layer, and the metrics are the
per-layer ones. --all runs every workload both ways in child processes and
prints one table, with the tracing overhead.

The benchmark imports metasrl from `src/` of the checkout and nowhere else; it
exits with code 2 when that package is missing.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"      # single-threaded BLAS, set before numpy loads

import argparse
import contextlib
import importlib
import importlib.metadata
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 11
HELD_OUT_SEED = 97          # kept out of tuning; for confirming later claims


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import metasrl from this checkout's src/, or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "metasrl", "__init__.py")):
        fail(f"no metasrl package under {SRC}")
    for path in (HERE, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    import metasrl
    if os.path.dirname(os.path.abspath(metasrl.__file__)) != os.path.join(SRC, "metasrl"):
        fail(f"metasrl imported from {metasrl.__file__}, not {SRC}")
    return {name: importlib.import_module(f"metasrl.{name}")
            for name in ("cmdp", "crpo", "dice", "harness", "lp", "meta", "taskgen")}


def environment(cpu_model=False):
    env = {"cores": os.cpu_count(), "machine": platform.machine(),
           "python": platform.python_version()}
    for package in ("numpy", "scipy"):
        try:
            env[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            env[package] = None
    if cpu_model:
        env["cpu_model"] = platform.processor() or None
        with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    return env


def percentile(values, q):
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1]) \
        if len(values) > 1 else float(values[0]) if values else 0.0


def run_workload(name, seed, seconds, trace):
    """Set up and run one workload in this process; returns the result dict."""
    modules = import_package()
    from metasrl.errors import CoverageWarning
    from pace import Pace
    from spans import Tracer
    from workloads import WORKLOADS, Tally

    # fires on every gridworld task (holes and the absorbing state are never
    # covered); it would drown the output
    warnings.simplefilter("ignore", CoverageWarning)
    workload = WORKLOADS[name]
    tracer = Tracer(modules) if trace else None
    with Pace() as pace, tracer if tracer else contextlib.nullcontext():
        setups, gen_wall = [], []
        pace.measure()
        for _ in range(SETUP_REPEATS):
            first_span = len(tracer.spans) if tracer else 0
            t0 = time.perf_counter()
            state = workload.setup(seed)
            setups.append((t0, time.perf_counter()))
            pace.measure()
            if tracer:
                gen_wall.append(sum(s[2] - s[1] for s in tracer.spans[first_span:]
                                    if s[0].startswith("taskgen.") and s[3] is None))
        tally = Tally(pace=pace)
        workload.check_setup(state, tally)
        if tracer:
            tracer.reset()
        n_passes = workload.passes(seconds)
        pace.measure()
        t0 = time.perf_counter()
        pace.start()
        workload.run(state, n_passes, tally)
        pace.stop()
        t1 = time.perf_counter()
        pace.measure()
        # the reference kernels that ran inside the body are not part of it
        body_s = t1 - t0 - pace.kernel_seconds(t0, t1)
        if tracer:
            tracer.exclude(pace.samples)
    tally.run_checks()

    setup_s = [pace.scaled(a, b) for a, b in setups]
    run_s = statistics.median(tally.pass_seconds(workload.paced))
    if trace:
        metrics = {"trace.run_s": (run_s, "s"),
                   "taskgen.gen_s": (statistics.median(
                       w / pace.slowdown(a, b)
                       for w, (a, b) in zip(gen_wall, setups)), "s")}
        metrics.update(tracer.layer_metrics(body_s))
        metrics["ops.s_p50"] = (percentile(tally.op_seconds, 50), "s")
        metrics["ops.s_p90"] = (percentile(tally.op_seconds, 90), "s")
        for key in ("harness.meta_taog", "harness.best_baseline_taog"):
            metrics[key] = (tally.quality.get(key, 0.0), "gap")
        metrics["harness.meta_tacv_clipped"] = (
            tally.quality.get("harness.meta_tacv_clipped", 0.0), "value")
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {"run_s": (run_s, "s"),
                   "setup_s": (statistics.median(setup_s), "s"),
                   "peak_rss_mb": (peak_kb / 1024.0, "MB")}
    return {
        "workload": name, "seed": seed, "trace": int(trace), "passes": n_passes,
        "errors": tally.errors,
        "host": {"wall_run_s": statistics.median(tally.pass_wall),
                 "reference_s": statistics.median(b - a for a, b in pace.samples),
                 "samples": len(pace.samples), "paced": int(workload.paced)},
        "result": {
            "correct": tally.incorrect == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def print_run(out):
    result = out["result"]
    env = environment()
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    frac = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"workload={out['workload']} seed={out['seed']} trace={out['trace']} "
          f"passes={out['passes']} attempted={result['attempted']} "
          f"failed={result['failed']} failed_frac={frac:.6g} "
          f"correct={str(result['correct']).lower()}")
    for error in out["errors"]:
        print(f"  failed: {error}")
    print("host: " + " ".join(f"{k}={v:.6g}" for k, v in out["host"].items()))
    for key, metric in result["metrics"].items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))


def child_run(name, seed, seconds, trace):
    """Run one workload in its own process and return its result."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["errors"] = [f"seed {seed}: " + line.split("failed: ", 1)[1]
                        for line in lines if line.startswith("  failed: ")]
    host = next(line for line in lines if line.startswith("host: "))
    result["host"] = {k: float(v) for k, v in
                      (item.split("=") for item in host.split()[1:])}
    return result


def run_all(seeds, seconds, write_baseline):
    """Every workload of BENCHMARK.json plus oracle_ladder, untraced and traced."""
    spec = load_spec()
    import_package()
    from workloads import WORKLOADS

    names = [w["name"] for w in spec["workloads"]] + ["oracle_ladder"]
    env = environment(cpu_model=True)
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    table = {}
    for name in names:
        runs = {trace: [child_run(name, seed, seconds, trace) for seed in seeds]
                for trace in (0, 1)}
        table[name] = summarize(runs)
        row = table[name]
        e2e = row["end_to_end"]
        print(f"\n{name}: attempted={row['attempted']} failed={row['failed']} "
              f"failed_frac={row['failed_frac']:.6g} correct={row['correct']}")
        for error in row["errors"]:
            print(f"  failed: {error}")
        for key, value in e2e.items():
            print(f"  {key:28s} {value['median']:.6g} {value['unit']}")
        print(f"  {'pass wall time (median)':28s} {row['wall_run_s']:.6g} s")
        print(f"  {'tracing overhead':28s} {row['tracing_overhead_pct']:.3g} % of run_s")
        for key, value in row["per_layer"].items():
            spread = "" if value["min"] == value["max"] else \
                f"  [{value['min']:.4g} .. {value['max']:.4g}]"
            print(f"    {key:26s} {value['median']:.6g} {value['unit']}{spread}")
    if write_baseline:
        baseline = {
            "environment": env, "seeds": seeds, "seconds": seconds,
            "default_seed": 0, "held_out_seed": HELD_OUT_SEED,
            "workloads": {name: dict(table[name], why=WORKLOADS[name].why,
                                     moves=WORKLOADS[name].moves)
                          for name in names},
        }
        with open(os.path.join(HERE, "baseline.json"), "w") as fh:
            json.dump(baseline, fh, indent=2, sort_keys=True)
            fh.write("\n")


def summarize(runs):
    """Medians over seeds of each metric, with the counts and trace overhead."""
    def collect(results):
        out = {}
        for key in results[0]["metrics"]:
            values = [r["metrics"][key]["value"] for r in results]
            out[key] = {"median": statistics.median(values), "min": min(values),
                        "max": max(values), "unit": results[0]["metrics"][key]["unit"]}
        return out

    plain, traced = runs[0], runs[1]
    if [r["attempted"] for r in plain] != [r["attempted"] for r in traced]:
        raise RuntimeError("traced and untraced runs attempted different work")
    attempted = sum(r["attempted"] for r in plain)
    failed = sum(r["failed"] for r in plain)
    end_to_end, per_layer = collect(plain), collect(traced)
    run_s = end_to_end["run_s"]["median"]
    return {
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "correct": all(r["correct"] for r in plain + traced),
        "errors": [e for r in plain for e in r["errors"]],
        "end_to_end": end_to_end, "per_layer": per_layer,
        "wall_run_s": statistics.median(r["host"]["wall_run_s"] for r in plain),
        "reference_s": statistics.median(r["host"]["reference_s"] for r in plain),
        "tracing_overhead_pct": 100.0 * (per_layer["trace.run_s"]["median"] - run_s) / run_s,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--seeds", default="0",
                        help="comma-separated workload seeds for --all")
    parser.add_argument("--write-baseline", action="store_true",
                        help="with --all, write perfbench/baseline.json")
    args = parser.parse_args(argv)
    if args.all:
        run_all([int(s) for s in args.seeds.split(",")], args.seconds,
                args.write_baseline)
        return 0
    if args.workload is None:
        parser.error("--workload or --all is required")
    import_package()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    print_run(run_workload(args.workload, args.seed, args.seconds, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
