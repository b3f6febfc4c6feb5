#!/usr/bin/env python3
"""Build and run the seeded Troxy benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        One run. The last line of standard output is the JSON result.

    python3 perfbench/run.py --repeat K --workload NAME [--seed N]
                             [--seconds S] [--trace 0|1]
        Steadiness report: K runs on seeds N .. N+K-1, then each metric's
        median, quartiles and spread (interquartile range / median), next
        to the bound BENCHMARK.json gives it.

    python3 perfbench/run.py --selftest
        Builds and runs the determinism self-test.

Run it from the repository root. The benchmark compiles the libraries in
src/ together with its own sources into .bench_build/perfbench (or
$CARGO_TARGET_DIR/perfbench), configuring and building on first use.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    """Configures (once) and builds `target`; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources under src/ to build")
    out = build_dir()
    log = sys.stderr
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", target,
                    "--parallel", jobs],
                   check=True, stdout=log, stderr=log)
    return os.path.join(out, target)


def run_once(binary, workload, seed, seconds, trace):
    """Runs one benchmark process; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--trace-dir", os.path.dirname(binary)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    return proc.returncode, proc.stdout.splitlines()


def bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def repeat(binary, args):
    values = {}
    units = {}
    failures = 0
    for k in range(args.repeat):
        seed = args.seed + k
        code, lines = run_once(binary, args.workload, seed, args.seconds,
                               args.trace)
        result = json.loads(lines[-1]) if lines else {}
        ok = code == 0 and result.get("correct") and not result.get("failed")
        failures += 0 if ok else 1
        metrics = result.get("metrics", {})
        print(f"seed {seed}: exit {code}, correct {result.get('correct')}, "
              f"failed {result.get('failed')} of {result.get('attempted')}; "
              + ", ".join(f"{name} {m['value']:.6g}"
                          for name, m in metrics.items()),
              flush=True)
        for name, metric in metrics.items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    limits = bounds()
    print(f"\n{args.workload}: {args.repeat} runs, {failures} failed")
    print(f"{'metric':36} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0], None, vals[0]))
        spread = (q3 - q1) / med if med else 0.0
        bound = limits.get(name)
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  over a third of the bound"
        print(f"{name:36} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}{flag} [{units[name]}]")
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        return subprocess.run([binary], cwd=ROOT).returncode
    if not args.workload:
        parser.error("--workload is required")
    binary = build("perfbench")
    if args.repeat > 0:
        return repeat(binary, args)
    code, lines = run_once(binary, args.workload, args.seed, args.seconds,
                           args.trace)
    sys.stdout.write("".join(line + "\n" for line in lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
