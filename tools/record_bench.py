"""Record one point of the benchmark trajectory as BENCH_<label>.json.

    python3 tools/record_bench.py --label NAME [--checkout DIR]

Runs the checkout's own, unchanged `bench/run.py` once per workload and seed
(seeds 101-103 of selftest, cli-dense, cli-corpus and locus, each with
`--seconds 25 --trace 0`), one run at a time, and writes BENCH_<label>.json
in the current directory with, per workload:
    metrics            the median over the seeds of each end-to-end metric
    failed, attempted  summed over the seeds
    reference_kernel_ms
                       the median unscaled time of the bench's reference
                       kernel (from its `unscaled:` line); every scaled time
                       is expressed at REFERENCE_MS for that kernel
plus the git sha of the checkout and the Python version (from the bench's
`env:` line), `dirty`: true when the checkout's tracked files differ
from its HEAD, so the sha does not name the code that ran (null when the
checkout is not a git work tree), and `src_sha256` and `bench_sha256`, which
name the code of `src/` and `bench/` whatever commit holds it (see
`tree_sha256`), and `bytecode`: whether PYTHONDONTWRITEBYTECODE is set
in the environment the runs inherit and whether the checkout's
`src/realmod/__pycache__` held a `.pyc` before the first run, which decide
whether the bench's setup probes import realmod from source (see
`bytecode_state`).  `--checkout` defaults to the checkout holding this script, so
a baseline is recorded by pointing it at a clone of the earlier commit.
Stdlib only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("selftest", "cli-dense", "cli-corpus", "locus")
SEEDS = (101, 102, 103)
SECONDS = 25
METRICS = ("throughput_rps", "latency_p50_ms", "latency_p90_ms", "setup_s", "peak_rss_mb")
_REFERENCE = re.compile(r"reference kernel ([0-9.e+-]+) ms \(scaled to ([0-9.e+-]+) ms\)")


def run_one(checkout: Path, workload: str, seed: int) -> dict:
    """One bench run: its final JSON line, env fields and reference kernel."""
    argv = [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: bench exited with {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    out = json.loads(lines[-1])
    for line in lines:
        if line.startswith("env: "):
            out["env"] = dict(field.split("=", 1) for field in line[5:].split())
        m = _REFERENCE.search(line) if line.startswith("unscaled:") else None
        if m:
            out["reference_kernel_ms"], out["reference_ms"] = float(m.group(1)), float(m.group(2))
    return out


def dirty(checkout: Path):
    """Whether the checkout's tracked files differ from its HEAD; None outside a git work tree."""
    proc = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                          cwd=checkout, capture_output=True, text=True)
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def tree_sha256(directory: Path) -> str:
    """One sha256 over the sorted relative paths and bytes of the `.py` files
    under directory, tracked or not, skipping `__pycache__`."""
    files = sorted((p.relative_to(directory).as_posix(), p) for p in directory.rglob("*.py")
                   if "__pycache__" not in p.relative_to(directory).parts)
    digest = hashlib.sha256()
    for rel, path in files:
        data = path.read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def bytecode_state(checkout: Path, environ=os.environ) -> dict:
    """Whether the runs may write bytecode and whether realmod's is already there:
    with PYTHONDONTWRITEBYTECODE set (to any nonempty value) and no `.pyc`,
    every setup probe compiles realmod from source."""
    return {"dont_write_bytecode": bool(environ.get("PYTHONDONTWRITEBYTECODE")),
            "pyc_before": any((checkout / "src" / "realmod" / "__pycache__").glob("*.pyc"))}


def summarize(runs: list) -> dict:
    return {
        "seeds": list(SEEDS),
        "metrics": {name: statistics.median(r["metrics"][name]["value"] for r in runs)
                    for name in METRICS},
        "failed": sum(r["failed"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "reference_kernel_ms": statistics.median(r["reference_kernel_ms"] for r in runs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    out_path = Path.cwd() / f"BENCH_{args.label}.json"
    changed = dirty(checkout)
    hashes = {f"{name}_sha256": tree_sha256(checkout / name) for name in ("src", "bench")}
    bytecode = bytecode_state(checkout)
    runs = {w: [] for w in WORKLOADS}
    for seed in SEEDS:
        for workload in WORKLOADS:
            r = run_one(checkout, workload, seed)
            runs[workload].append(r)
            print(f"{workload} seed {seed}: {r['metrics']['throughput_rps']['value']:.4g} rps, "
                  f"{r['failed']} of {r['attempted']} failed", file=sys.stderr)
    env = runs[WORKLOADS[0]][0]["env"]
    record = {
        "label": args.label,
        "git": env.get("git", "unavailable"),
        "dirty": changed,
        **hashes,
        "python": env.get("python", "unavailable"),
        "nproc": env.get("nproc"),
        "bytecode": bytecode,
        "command": f"bench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
        "reference_ms": runs[WORKLOADS[0]][0]["reference_ms"],
        "workloads": {w: summarize(rs) for w, rs in runs.items()},
    }
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
