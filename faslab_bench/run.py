"""faslab benchmark: one workload per run, metrics as JSON on the last line.

Usage, from the root of a checkout:

    python3 faslab_bench/run.py --workload desk_pipeline --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with the per-layer tracer and prints the per-layer metrics.
``--workload all`` runs every workload in turn, each in its own process.
``--scale smoke`` shrinks every workload for a quick check (see smoke.py).

The program under test is ``src/faslab`` of the checkout holding this file;
the benchmark exits non-zero without a result when it is missing.  All
artifacts go to a temporary directory inside the checkout, removed at exit.
"""

import os
import sys

# BLAS is pinned to one thread before numpy is imported anywhere in the process.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("desk_pipeline", "paper_pipeline")


def git_revision() -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_revision": git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scale", args.scale,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "faslab" / "__init__.py").is_file():
        print(f"error: no faslab sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import faslab

    if Path(faslab.__file__).resolve().parent != (SRC / "faslab").resolve():
        print(f"error: imported faslab from {faslab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from spans import PER_LAYER

    print("env " + json.dumps(environment(args), sort_keys=True))
    parent = ROOT / ".bench_tmp"
    parent.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=parent))
    try:
        h, metrics, counts = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.scale, tmp
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            parent.rmdir()
        except OSError:
            pass  # another run still uses it

    units = dict(PER_LAYER if args.trace else workloads.END_TO_END)
    print("samples " + json.dumps(counts, sort_keys=True))
    for name, value in metrics.items():
        print(f"metric {name} = {value if value is None else f'{value:.6g}'} {units[name]}")
    complete = all(value is not None for value in metrics.values())
    result = {
        "correct": h.failed == 0 and complete,
        "attempted": h.attempted,
        "failed": h.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
