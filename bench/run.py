"""The realmod benchmark: one workload per run, one command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; realmod is imported from its `src/`.
Workloads (see `workloads.WHY` for why each exists): selftest, cli-dense,
cli-corpus, locus.  Inputs come from the seed alone and are written under
`.bench_run/` at the root of the checkout.

With `--trace 0` the run reports the end-to-end metrics, over the whole cycles
of the workload's request list that the timed loop completed, so that every
request weighs the same:
    throughput_rps    requests per second of the closed loop, 1000 / mean latency
    latency_p50_ms    median latency of the timed requests
    latency_p90_ms    90th percentile (the run has at least ten samples beyond it)
    setup_s           median time of a fresh interpreter that imports realmod and,
                      for the cli workloads, parses the workload's spec files
    peak_rss_mb       ru_maxrss of the process that ran the timed loop
and prints error_rate (failed / attempted requests).  With `--trace 1` a
separate, traced run reports the per-layer metrics of `spans.PER_LAYER`,
including the tracing overhead.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Every request's answer
is checked (see `check`) after the loop; failures are listed on stderr.

Times are given at a fixed host speed.  The shared 2-vCPU host this was built
on runs the same request at anywhere from 1x to 1.9x its best time, in phases
of seconds to minutes, with CPU time equal to wall time.  So every request,
and every set-up probe, is preceded by `loop.reference()`, a fixed
exact-arithmetic kernel, and its wall time is scaled by
REFERENCE_MS / (that kernel's time): milliseconds on a host where the kernel
takes REFERENCE_MS.  Measured over 100 s, the median time of one request in
15 s windows ranged from 57 to 97 ms unscaled and within 2.2% of its mean
scaled.  The unscaled median and the completed requests per second of the
loop are printed as well.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
SETUP_PROBES = 5      # fresh interpreters before the loop, and as many after it
REFERENCE_MS = 2.0    # scaled times are those of a host where the reference takes this long
RUN_LIMIT_S = 160     # set-up and the request runner; checking and the last probes follow

sys.path.insert(0, str(HERE))
import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from loop import reference  # noqa: E402

_PROBE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import realmod\n"
    "for path in sys.argv[2:]:\n"
    "    with open(path, encoding='utf-8') as fh:\n"
    "        realmod.parse_spec(fh.read())\n"
)


def git_sha() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unavailable"


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "git": git_sha()}


def probe_setup(specs: list, times: list) -> None:
    """Append the scaled times of fresh interpreters that become ready to serve.

    No timeout: with one, subprocess polls the child with sleeps of up to 50 ms,
    which would round every probe up to that grain."""
    argv = [sys.executable, "-c", _PROBE, str(SRC)] + specs
    for _ in range(SETUP_PROBES):
        r0 = time.perf_counter()
        reference()
        t0 = time.perf_counter()
        subprocess.run(argv, check=True)
        t1 = time.perf_counter()
        times.append((t1 - t0) * REFERENCE_MS / ((t0 - r0) * 1e3))


def scaled_ms(records: list) -> list:
    """Each record's latency at the host speed where the reference takes REFERENCE_MS.

    The host speed during a request is read from the reference runs just before
    and just after it (the one before the next request)."""
    refs = [rec[2] for rec in records] + [records[-1][2]]
    return [rec[1] / 1e6 * REFERENCE_MS / ((refs[i] + refs[i + 1]) / 2e6)
            for i, rec in enumerate(records)]


def rate(lat_ms: list) -> float:
    return 1000 * len(lat_ms) / sum(lat_ms)


def judge(wl: workloads.Workload, result: dict) -> list:
    """One failure reason (or None) per timed record, in record order."""
    verdicts = {}
    first_digest = {}
    out = []
    for index, _, _, rc, digest in result["records"]:
        if index not in verdicts:
            rc0, text = result["texts"][str(index)]
            verdicts[index] = check.check(wl.requests[index].expect, rc0, text)
            first_digest[index] = digest
            replay = result["replays"].get(str(index))
            if verdicts[index] is None and replay is not None and replay != digest:
                verdicts[index] = "report changed when the request was repeated"
            out.append(verdicts[index])
        elif digest != first_digest[index]:
            out.append("report changed when the request was repeated")
        else:
            out.append(verdicts[index])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "realmod" / "__init__.py").is_file():
        print(f"error: realmod sources not found under {SRC}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{args.seed}-{'trace' if args.trace else 'run'}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = workloads.build(args.workload, args.seed, workdir)
    for name, data in wl.files.items():
        (workdir / name).write_bytes(data)
    env = environment()
    specs = [str(workdir / name) for name in wl.files]
    setup_times: list = []
    if not args.trace:
        subprocess.run([sys.executable, "-c", _PROBE, str(SRC)] + specs, check=True)  # compiles .pyc
        probe_setup(specs, setup_times)

    plan_path, result_path = workdir / "plan.json", workdir / "result.json"
    plan_path.write_text(json.dumps({
        "src": str(SRC), "seconds": args.seconds, "trace": args.trace,
        "trace_path": str(workdir / "spans.json"),
        "meta": dict(env, workload=args.workload, seed=args.seed),
        "requests": [r.plan() for r in wl.requests]}))
    limit = RUN_LIMIT_S - (time.perf_counter() - started)
    proc = subprocess.run([sys.executable, str(HERE / "loop.py"), str(plan_path), str(result_path)],
                          cwd=ROOT, timeout=limit)
    if proc.returncode != 0:
        print(f"error: request runner exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text())
    if not args.trace:
        probe_setup(specs, setup_times)

    verdicts = judge(wl, result)
    failures = [(wl.requests[rec[0]].key, why) for rec, why in zip(result["records"], verdicts) if why]
    for key, why in dict(failures).items():
        print(f"FAILED {key}: {why}", file=sys.stderr)

    print(f"realmod bench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"why: {workloads.WHY[args.workload]}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    attempted = len(verdicts)
    if args.trace:
        stats = result["per_layer"]
        split = result["untraced"]
        stats["trace.untraced_throughput_rps"] = rate(scaled_ms(result["records"][:split]))
        stats["trace.traced_throughput_rps"] = rate(scaled_ms(result["records"][split:]))
        stats["trace.throughput_ratio"] = (stats["trace.traced_throughput_rps"]
                                           / stats["trace.untraced_throughput_rps"])
        metrics = {name: {"value": stats.get(name, 0), "unit": unit} for name, unit, _ in spans.PER_LAYER}
        print(f"traced {len(wl.requests)} requests, {result['spans']} spans, written to "
              f"{workdir / 'spans.json'}")
    else:
        cycle = len(wl.requests)
        timed_records = result["records"][:max(cycle, result["timed"] // cycle * cycle)]
        lat_ms = scaled_ms(timed_records)
        timed = len(lat_ms)
        p90 = statistics.quantiles(lat_ms, n=10)[8] if timed >= 2 else lat_ms[0]
        metrics = {
            "throughput_rps": {"value": rate(lat_ms), "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
            "latency_p90_ms": {"value": p90, "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": result["maxrss_kb"] / 1024, "unit": "MB"},
        }
        print(f"requests: {timed} counted, {timed / cycle:.3g} cycles of {cycle} "
              f"({result['timed']} timed), {sum(x > p90 for x in lat_ms)} beyond p90")
        print(f"unscaled: {result['timed'] / result['elapsed_s']:.4g} completed per second, p50 "
              f"{statistics.median(r[1] for r in timed_records) / 1e6:.4g} ms, reference kernel "
              f"{statistics.median(r[2] for r in timed_records) / 1e6:.4g} ms (scaled to {REFERENCE_MS} ms)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"error_rate {len(failures) / attempted:.6g} ratio ({len(failures)} of {attempted} failed)")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
