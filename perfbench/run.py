#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <cfg_ctx|schema_fc|agent_tags> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The first form builds the benchmark from source (CMake, Release) into
.bench_build/ at the root of the checkout, runs one workload and passes the
binary's output through: its last line is the result JSON. The build is
incremental, so only the first run in a checkout pays for it.

--smoke is the benchmark's own test: every workload at a tiny vocabulary,
traced and untraced. It asserts that every metric named in BENCHMARK.json is
emitted with its unit, that the output oracle passes, and that the output
digests match across runs and between the traced and untraced runs.
"""
import argparse
import fcntl
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench-cmake"
WORK_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns False on failure."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not any((BUILD_DIR / f).exists() for f in ("build.ninja", "Makefile")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release", *generator])
        jobs = str(max(1, min(os.cpu_count() or 1, 8)))
        steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                      "-j", jobs])
        for step in steps:
            # Build chatter goes to stderr: stdout's last line is the result.
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                log("build failed: " + " ".join(step))
                return False
    return BINARY.exists()


def source_id():
    """git SHA when the checkout is a repository, plus a digest of the sources."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    sha = "none"
    if (ROOT / ".git").exists():  # never a repository above the checkout
        try:
            result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10)
            if result.returncode == 0:
                sha = result.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return f"git:{sha} src:{digest.hexdigest()[:16]}"


def run_binary(args, capture=False):
    """Runs the benchmark binary; returns (exit code, stdout text)."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    command = [str(BINARY), *args, "--work-dir", str(WORK_DIR),
               "--source-id", source_id()]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1, ""
    if not capture:
        sys.stdout.write(result.stdout)
        sys.stdout.flush()
    return result.returncode, result.stdout


def smoke():
    """Self-test: tiny runs of every workload; returns a process exit code."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        known = len(problems)
        digests = []
        for trace in ("0", "1", "0"):
            code, out = run_binary(["--workload", workload, "--seed", "7", "--seconds",
                                    "0.5", "--trace", trace, "--smoke"], capture=True)
            where = f"{workload} trace={trace}"
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                problems.append(f"{where}: exit code {code}, no result")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: oracle failed {result['failed']} of "
                                f"{result['attempted']}: "
                                + "; ".join(l for l in lines if l.startswith("failure")))
            expected = per_layer if trace == "1" else end_to_end
            metrics = result["metrics"]
            if set(metrics) != set(expected):
                problems.append(f"{where}: metrics missing {sorted(set(expected) - set(metrics))}"
                                f" unexpected {sorted(set(metrics) - set(expected))}")
            for name, unit in expected.items():
                metric = metrics.get(name, {})
                value = metric.get("value")
                if metric.get("unit") != unit or not isinstance(value, (int, float)) \
                        or not math.isfinite(value):
                    problems.append(f"{where}: metric {name} = {metric}, want unit {unit}")
            digests.append(next((l for l in lines if l.startswith("digest ")), "missing"))
        if len(set(digests)) != 1:
            problems.append(f"{workload}: output digests differ across runs: {digests}")
        print(f"smoke {workload}: {'ok' if len(problems) == known else 'FAILED'}",
              flush=True)
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.smoke:
        return smoke()
    code, _ = run_binary(["--workload", args.workload, "--seed", args.seed,
                          "--seconds", args.seconds, "--trace", args.trace])
    return code


if __name__ == "__main__":
    sys.exit(main())
