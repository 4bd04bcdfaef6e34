#!/usr/bin/env python3
"""Build and run one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload archive_get --seed 1 --seconds 30 --trace 0

Run from the repository root.  The first call configures and builds
perfbench/ (the toolkit's src/ plus the driver) in .bench_build/perfbench;
later calls rebuild incrementally.  The driver runs one workload, checks
every output byte for byte and prints its metrics.  This script adds the
host block, prints a table of the metrics with their units, and ends
with one JSON line: correct, attempted, failed and the metrics that
BENCHMARK.json lists for the mode (end_to_end for --trace 0, per_layer
for --trace 1).  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD_DIR / "perfbench_driver"


def driver_timeout(seconds):
    """Seconds a driver run may take: traced runs measure up to three
    times (the timed pass, then an untraced and a traced replay), plus
    up to five set-ups and the at-least-100-operations floor."""
    return 40 + 4 * max(seconds, 20)


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; the build log goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no toolkit sources under {ROOT / 'src'}")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=300)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=900)


def run_driver(args, timeout):
    """Run the driver with @p args; returns its parsed JSON result."""
    proc = subprocess.Popen([str(DRIVER)] + args, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"driver timed out after {timeout} s")
    if proc.returncode != 0:
        raise RuntimeError(f"driver exited with {proc.returncode}")
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError("driver printed no result")
    return json.loads(lines[-1])


def loadavg():
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_revision():
    """Git SHA when the tree is a git checkout, plus a digest of the sources."""
    sha = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return sha, digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    # The driver also knows pipeline_dbma, a diagnostic workload that
    # BENCHMARK.json does not list; it rejects names it does not know.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if opts.trace else "end_to_end"]

    build()
    work = ROOT / ".bench_build" / f"work-{os.getpid()}"
    trace_out = ROOT / ".bench_build" / "traces" / \
        f"{opts.workload}-seed{opts.seed}.json"
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    load_before = loadavg()
    try:
        result = run_driver([f"--workload={opts.workload}",
                             f"--seed={opts.seed}",
                             f"--seconds={opts.seconds}",
                             f"--trace={opts.trace}",
                             f"--workdir={work}",
                             f"--trace-out={trace_out if opts.trace else ''}"],
                            driver_timeout(opts.seconds))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    load_after = loadavg()

    metrics = {}
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None:
            raise RuntimeError(f"driver did not report {metric['name']}")
        if got["unit"] != metric["unit"]:
            raise RuntimeError(f"{metric['name']}: unit {got['unit']}, "
                               f"BENCHMARK.json says {metric['unit']}")
        metrics[metric["name"]] = {"value": got["value"], "unit": got["unit"]}

    sha, digest = source_revision()
    host = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "build_type": result["build"]["type"],
        "compiler": result["build"]["compiler"],
        "git_sha": sha,
        "source_digest": digest,
    }
    print(f"workload {opts.workload}  seed {opts.seed}  "
          f"{'traced' if opts.trace else 'untraced'}")
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'attempted':<44} {result['attempted']:>14}")
    print(f"  {'failed':<44} {result['failed']:>14}")
    if opts.trace:
        print(f"  chrome trace: {trace_out.relative_to(ROOT)}")
    print(json.dumps({"host": host}))
    print(json.dumps({"work_counters": result["counters"]}))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        log(f"error: {error}")
        sys.exit(1)
