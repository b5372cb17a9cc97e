"""Tests of the benchmark's own code: generators, answer checker, tracer.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import loop  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _plans(wl: workloads.Workload) -> str:
    return json.dumps([r.plan() for r in wl.requests])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_same_bytes(name, tmp_path):
    a = workloads.build(name, 5, tmp_path)
    b = workloads.build(name, 5, tmp_path)
    c = workloads.build(name, 6, tmp_path)
    assert a.files == b.files and _plans(a) == _plans(b)
    assert (a.files, _plans(a)) != (c.files, _plans(c))


def _runner(wl: workloads.Workload, workdir: Path) -> loop.Runner:
    for fname, data in wl.files.items():
        (workdir / fname).write_bytes(data)
    return loop.Runner({"src": str(ROOT / "src"), "requests": [r.plan() for r in wl.requests]})


def _first(wl: workloads.Workload, kind: str, **match) -> int:
    return next(i for i, r in enumerate(wl.requests)
                if r.expect["type"] == kind and all(r.expect.get(k) == v for k, v in match.items()))


def _bump_first_number(line: str) -> str:
    """Change the first digit of a report line, so one matrix entry is wrong."""
    at = next(i for i, ch in enumerate(line) if ch.isdigit())
    return line[:at] + str((int(line[at]) + 1) % 10) + line[at + 1:]


def _corrupt(text: str, prefix: str) -> str:
    lines = text.splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
    lines[k] = lines[k][:len(prefix)] + _bump_first_number(lines[k][len(prefix):])
    return "\n".join(lines) + "\n"


def test_checker_accepts_real_answers_and_rejects_corrupted_ones(tmp_path):
    wl = workloads.build("cli-corpus", 3, tmp_path)
    runner = _runner(wl, tmp_path)
    cases = [
        (_first(wl, "channel"), "channel "),
        (_first(wl, "quantize"), "gram="),
        (_first(wl, "unitary", unitary=True), "unitary "),
    ]
    for index, prefix in cases:
        req = wl.requests[index]
        rc, text = runner.execute(req.plan())
        assert check.check(req.expect, rc, text) is None, (req.key, text)
        if req.expect["type"] == "unitary":
            bad = text.replace(": yes", ": no")
        elif req.expect["type"] == "channel":
            bad = _corrupt(text, f"channel {req.expect['name']}: rho=")
        else:
            bad = _corrupt(text, prefix)
        assert check.check(req.expect, rc, bad) is not None, (req.key, bad)
    whole = _first(wl, "check")
    rc, text = runner.execute(wl.requests[whole].plan())
    assert check.check(wl.requests[whole].expect, rc, text) is None
    assert check.check(wl.requests[whole].expect, 1, text.replace(": ok", ": FAIL (x)", 1)) is not None
    assert check.check(wl.requests[whole].expect, 2, "error: no such file\n") is not None


def test_checker_rejects_a_corrupted_dagger(tmp_path):
    wl = workloads.build("locus", 3, tmp_path)
    runner = _runner(wl, tmp_path)
    req = wl.requests[0]
    rc, text = runner.execute(req.plan())
    assert check.check(req.expect, rc, text) is None, text
    assert check.check(req.expect, rc, _corrupt(text, "dagger=")) is not None
    assert check.check(req.expect, rc, text.replace("agrees", "differs")) is not None


def test_judge_counts_corrupted_and_changed_reports_as_failed(tmp_path):
    wl = workloads.build("cli-corpus", 3, tmp_path)
    runner = _runner(wl, tmp_path)
    index = _first(wl, "channel")
    rc, text = runner.execute(wl.requests[index].plan())
    good = loop._digest(rc, text)
    result = {"records": [[index, 1, 1, rc, good], [index, 1, 1, rc, "other"]],
              "texts": {str(index): [rc, text]}, "replays": {}}
    assert run.judge(wl, result) == [None, "report changed when the request was repeated"]
    corrupted = _corrupt(text, f"channel {wl.requests[index].expect['name']}: rho=")
    result = {"records": [[index, 1, 1, rc, loop._digest(rc, corrupted)]],
              "texts": {str(index): [rc, corrupted]}, "replays": {str(index): loop._digest(rc, corrupted)}}
    assert run.judge(wl, result)[0] is not None


def _traced_pass(runner: loop.Runner) -> spans.Tracer:
    tracer = spans.Tracer()
    tracer.install()
    try:
        for req in runner.requests:
            rc, text = tracer.request_span(loop._root_span(req), runner.execute, req)
            assert rc in (0, 1), text
    finally:
        tracer.uninstall()
    return tracer


def test_spans_have_no_negative_self_time_and_counts_repeat(tmp_path):
    wl = workloads.build("cli-corpus", 4, tmp_path)
    wl.requests = wl.requests[:6]
    runner = _runner(wl, tmp_path)
    import realmod.linalg

    original = realmod.linalg.inverse
    first, second = _traced_pass(runner), _traced_pass(runner)
    assert realmod.linalg.inverse is original
    assert len(first.start) > 0
    assert min(first.self_times()) >= 0
    a, b = first.stats(), second.stats()
    for name in a:
        if name.endswith(".busy_ms"):
            assert a[name] >= a[name[:-len("busy_ms")] + "self_ms"] - 1e-9
    counts = [k for k in a if k.endswith((".calls", ".entry_mults", ".det_calls"))]
    assert counts and {k: a[k] for k in counts} == {k: b[k] for k in counts}


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _, _ in spans.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_one_run_prints_every_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "locus", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "selftest", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=170)
    assert out.returncode != 0
    assert "{" not in out.stdout
