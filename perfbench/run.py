"""FastSal benchmark: predict-C, predict-A and train-C.

    python3 perfbench/run.py --workload predict-C --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the root of a checkout; the program is imported from its ``src``.
Inputs are made from ``--seed`` before any clock starts. Each workload runs in
a process of its own (worker.py) with one closed-loop client: the next
operation starts when the previous one ends. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones from a separate traced
run. The metrics printed in the last stdout line are the ones BENCHMARK.json
declares; everything measured, with the environment, goes to
``.perfbench_runs/<workload>-seed<n>-trace<t>/report.json``.
"""

import os

# One BLAS thread, set before numpy is imported here or in any process started
# from here: a 2-core host shared with other work gives steadier figures so.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ["PYTHONHASHSEED"] = "0"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
WORKLOADS = ("predict-C", "predict-A", "train-C")
# set-up is timed in this many fresh processes (the last one is the measured
# workload process) and the median is reported
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60
CHECKS = ("traced_equals_untraced", "selfcheck_output_bit_equal", "flops_equal",
          "self_times_nonnegative")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def spawn(argv, timeout):
    """Run the worker and return the JSON object on its last stdout line."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, WORKER, *argv, "--t0", repr(t0)],
                          stdout=subprocess.PIPE, text=True, timeout=timeout, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode} ({' '.join(argv[-4:])})")
    return json.loads(lines[-1])


def run_workload(args):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import inputs

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    outdir = os.path.join(RUNS_DIR, tag)
    work = os.path.join(RUNS_DIR, f"work-{tag}-{os.getpid()}")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    try:
        spec = inputs.prepare(args.workload, args.seed, os.path.join(work, "inputs"))
        spec_path = os.path.join(work, "spec.json")
        with open(spec_path, "w") as f:
            json.dump(spec, f)
        opsdir = os.path.join(work, "ops")
        os.makedirs(opsdir)
        common = ["--spec", spec_path, "--outdir", outdir, "--opsdir", opsdir,
                  "--seed", str(args.seed), "--map-tolerance", str(args.map_tolerance)]
        setup = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup.append(spawn(common + ["--role", "setup"], SETUP_TIMEOUT_S)["setup_s"])
        res = spawn(common + ["--role", "measure", "--seconds", str(args.seconds),
                              "--trace", str(args.trace)], args.seconds + 120)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        res["correct"] = res["failed"] == 0 and all(res["checks"][c] for c in CHECKS)
    else:
        setup.append(res["metrics"]["setup_s"][0])
        res["setup_samples_s"] = setup
        res["metrics"]["setup_s"] = [statistics.median(setup), "s"]
        res["correct"] = res["failed"] == 0
    res.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    with open(os.path.join(outdir, "report.json"), "w") as f:
        json.dump(res, f, indent=1)
    return res, os.path.join(outdir, "report.json")


def summary(res, report_path):
    m = res["metrics"]
    lines = [f"{res['workload']}  seed {res['seed']}  {res['seconds']} s  trace {res['trace']}  "
             f"attempted {res['attempted']}  failed {res['failed']}  "
             f"failed_share {res['failed'] / res['attempted']:.4f}"]
    for err in res["failures"]:
        lines.append(f"  FAILED: {err}")
    if res["trace"]:
        timed = sorted((k for k in m if k.endswith(".ms") and m[k][0] > 0),
                       key=lambda k: -m[k][0])
        lines.append(f"  per operation, traced ({m['trace.ops'][0]} traced ops):")
        lines += [f"    {k:<40} {m[k][0]:10.3f} ms" for k in timed[:16]]
        o = res["overhead"]
        lines.append(f"  tracing overhead {o['overhead_ms']:+.2f} ms per op "
                     f"(traced p50 {o['traced_p50_ms']:.2f} ms, untraced {o['untraced_p50_ms']:.2f} ms)")
        c = res["checks"]
        lines.append(f"  self-checks: " + ", ".join(f"{k}={c[k]}" for k in CHECKS)
                     + f" (FLOPs intercepted {c['flops_intercepted']}, analyzer {c['flops_analyzer']})")
        for fn, err in sorted(res["probe_errors"].items()):
            lines.append(f"  metrics probe: {fn} failed: {err}")
    else:
        for k, (v, unit) in m.items():
            note = ""
            if k == "latency_ms_tail":
                note = f"  (p{res['tail']['percentile']} of {res['tail']['samples']} samples)"
            elif k == "setup_s":
                note = f"  (median of {len(res['setup_samples_s'])} processes)"
            lines.append(f"  {k:<16} {v:12.4f} {unit}{note}")
    shares = ", ".join(f"{g} {s:.0%}" for g, s in res.get("groups", {}).items())
    if shares:
        lines.append(f"  operations by input group: {shares}")
    e = res["environment"]
    lines.append(f"  env: numpy {e['numpy']}, {e['blas']} {e['blas_version']} "
                 f"({e['blas_threads']} BLAS threads), nproc {e['nproc']}, {e['cpu_model']}, "
                 f"python {e['python']}, commit {e['git_commit'] or 'n/a'}")
    lines.append(f"  report: {os.path.relpath(report_path, ROOT)}")
    return "\n".join(lines)


def contract_line(res, wanted):
    """The result line: the declared metrics, each in its declared unit."""
    metrics = {}
    for name, unit in wanted.items():
        if name not in res["metrics"]:
            raise KeyError(f"metric {name} declared in BENCHMARK.json was not measured")
        value, got_unit = res["metrics"][name]
        if got_unit != unit:
            raise ValueError(f"metric {name} is in {got_unit}, BENCHMARK.json says {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def run_all(args):
    """Each workload in a process of its own, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", w, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--map-tolerance", str(args.map_tolerance)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{w}: benchmark exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{w}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--map-tolerance", type=float, default=1.0,
                   help="largest allowed difference, in grey levels, between a predicted "
                        "map and the reference")
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "fastsal", "__init__.py")):
        print(f"perfbench: no fastsal sources at {os.path.join(ROOT, 'src', 'fastsal')}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    wanted = declared_metrics(args.trace)
    res, report = run_workload(args)
    print(summary(res, report), flush=True)
    print(json.dumps(contract_line(res, wanted)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
