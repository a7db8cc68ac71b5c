"""Smoke run of the benchmark at tiny sizes.

    python3 faslab_bench/smoke.py

Runs every workload named in BENCHMARK.json with ``--scale smoke``, once
untraced and once traced, and checks that each run exits 0, that all its
operations and output checks pass, and that its last line names every
end-to-end metric (untraced) or per-layer metric (traced) of BENCHMARK.json
with that metric's unit and a finite value.  It then copies only
BENCHMARK.json and the benchmark's directory to a scratch directory and
checks that the benchmark exits non-zero there without printing a result.
Exits 1 if any check fails.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def run(cwd: Path, workload: str, trace: int, scale: str = "smoke"):
    cmd = [
        sys.executable, str(RUN if cwd == ROOT else cwd / RUN.relative_to(ROOT)),
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--scale", scale,
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    tag = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{tag}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{tag}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(
            f"{tag}: correct={result['correct']} failed={result['failed']} "
            f"attempted={result['attempted']}\n{proc.stderr[-2000:]}"
        )
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in wanted}:
        problems.append(f"{tag}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got.get("unit") != m["unit"]:
            problems.append(f"{tag}: {m['name']} missing or unit differs: {got}")
        elif not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"{tag}: {m['name']} value {got['value']!r}")
    if not any(line.startswith("env ") for line in proc.stdout.splitlines()):
        problems.append(f"{tag}: no environment record")
    return problems


def check_without_sources(spec: dict) -> list[str]:
    """The benchmark alone, with no program to measure, must refuse to run."""
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for rel in spec["paths"]:
            shutil.copytree(ROOT / rel, bare / rel)
        proc = run(bare, spec["workloads"][0]["name"], 0, scale="full")
    finally:
        shutil.rmtree(bare)
        try:
            scratch.rmdir()
        except OSError:
            pass
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[-500:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(spec, workload["name"], trace)
            print(f"{workload['name']} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    found = check_without_sources(spec)
    print(f"without sources: {'ok' if not found else 'FAILED'}")
    problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
