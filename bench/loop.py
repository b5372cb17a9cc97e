"""Request runner: one client, one process, a closed loop, no threads.

    python3 bench/loop.py PLAN.json RESULT.json

Runs in a fresh interpreter so that its peak RSS is the workload's alone.
Each request starts only after the previous one has returned.  The plan holds
the workload's request cycle; the runner repeats it until `seconds` have
passed and records, per request, its wall time, exit code and the sha256 of
its report.  It keeps the full report of each distinct request for the
checker, and replays, untimed, every request that ran only once, so that each
report is compared with a repeat.

Before each request it times `reference()`, a fixed exact-arithmetic kernel
that does not touch realmod, so that run.py can express each request's wall
time at a fixed host speed.

With `trace` set, it first repeats whole cycles untraced for half the time,
then runs exactly one traced cycle, so that counts repeat between runs with
the same seed; the spans go to `trace_path`.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path


def reference() -> Fraction:
    """A fixed amount of the work realmod's scalars do: small-integer products,
    gcds and short-lived objects.  Garbage collection is held off meanwhile, so
    the time does not depend on what else the process holds."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        acc, x = Fraction(0), Fraction(3, 7)
        for i in range(1, 150):
            acc += x * Fraction(i, i + 1)
            x = x * Fraction(5, 3) - Fraction(i, 11) if i % 50 else Fraction(3, 7)
        return acc
    finally:
        if was_enabled:
            gc.enable()


def _digest(rc, text: str) -> str:
    return hashlib.sha256(f"{rc}\n{text}".encode()).hexdigest()


class Runner:
    def __init__(self, plan: dict):
        sys.path.insert(0, plan["src"])
        import realmod
        from realmod import cli, density, hermitian

        self.realmod, self.cli, self.density, self.hermitian = realmod, cli, density, hermitian
        self.requests = plan["requests"]
        # library inputs are parsed once, outside the timed loop
        self.locus_inputs = {
            r["key"]: (r["locus"]["n"], realmod.parse_matrix(r["locus"]["gram"]),
                       realmod.parse_matrix(r["locus"]["gate"]))
            for r in self.requests if r["locus"] is not None}
        self.records: list = []     # [request index, latency ns, reference ns, rc, digest]
        self.texts: dict = {}       # request index -> [rc, report] of its first run

    def _locus(self, key: str) -> int:
        n, gram, g = self.locus_inputs[key]
        rm = self.realmod
        s = rm.make_selfdual(rm.HermitianSpace(n, gram))
        dim = self.density.fixed_locus_real_dimension(rm.csmat(s))
        d = rm.dagger(g, s, s)
        dense = self.hermitian.dagger_composite_dense(g, s, s)
        print(f"locus n={n}: fixed-locus-dim={dim}")
        print(f"dagger={rm.format_matrix(d)}")
        print(f"dense-composite: {'agrees' if dense == d else 'differs'}")
        return 0

    def execute(self, req: dict):
        """(exit code, report); exit code None if the request raised."""
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                if req["argv"] is not None:
                    rc = self.cli.main(req["argv"])
                else:
                    rc = self._locus(req["key"])
        except SystemExit as exc:   # argparse rejected the command line
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            return None, traceback.format_exc()
        return rc, buf.getvalue()

    def _run(self, index: int, call) -> None:
        r0 = time.perf_counter_ns()
        reference()
        t0 = time.perf_counter_ns()
        rc, text = call(self.requests[index])
        t1 = time.perf_counter_ns()
        self.records.append([index, t1 - t0, t0 - r0, rc, _digest(rc, text)])
        self.texts.setdefault(index, [rc, text])

    def loop(self, seconds: float, whole_cycles: bool = False) -> float:
        """Closed loop for `seconds`; returns the elapsed time in seconds."""
        n = len(self.requests)
        start = time.perf_counter_ns()
        deadline = start + int(seconds * 1e9)
        i = 0
        while i == 0 or time.perf_counter_ns() < deadline or (whole_cycles and i % n):
            self._run(i % n, self.execute)
            i += 1
        return (time.perf_counter_ns() - start) / 1e9

    def replay_singles(self) -> dict:
        seen: dict = {}
        for index, *_ in self.records:
            seen[index] = seen.get(index, 0) + 1
        return {index: _digest(*self.execute(self.requests[index]))
                for index, count in seen.items() if count == 1}


def _root_span(req: dict) -> str:
    if req["argv"] is None:
        return "locus.request"
    return "cli." + req["argv"][req["argv"].index("--command") + 1]


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    runner = Runner(plan)
    result: dict = {}
    if not plan["trace"]:
        result["elapsed_s"] = runner.loop(plan["seconds"])
        result["timed"] = len(runner.records)
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        from spans import Tracer

        runner.loop(plan["seconds"] / 2, whole_cycles=True)
        result["untraced"] = len(runner.records)
        tracer = Tracer()
        tracer.install()
        try:
            for index, req in enumerate(runner.requests):
                runner._run(index, lambda r: tracer.request_span(_root_span(r), runner.execute, r))
        finally:
            tracer.uninstall()
        tracer.write(Path(plan["trace_path"]), plan["meta"])
        result["per_layer"] = tracer.stats()
        result["spans"] = len(tracer.start)
    result["replays"] = runner.replay_singles()
    result["records"] = runner.records
    result["texts"] = runner.texts
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
