"""Command behavior, exit codes, and byte-determinism of the reports."""

import os
import pathlib
import subprocess
import sys

import pytest

from realmod import cli
from realmod.specfile import parse_spec

DATA = pathlib.Path(__file__).parent / "data"
SRC = pathlib.Path(__file__).parent.parent / "src"
CORPUS = sorted(DATA.glob("*.spec"))

# every (file, command, target) pair the corpus supports
RUNS = [
    ("qubit.spec", "check", None),
    ("qubit.spec", "hermitian", "h2"),
    ("qubit.spec", "hermitian", "pair"),
    ("qubit.spec", "dagger", "had"),
    ("qubit.spec", "dagger", "shear"),
    ("qubit.spec", "unitary", "had"),
    ("qubit.spec", "unitary", "phase"),
    ("qubit.spec", "channel", "spread"),
    ("qubit.spec", "channel", "tilt"),
    ("qubit.spec", "channel", "smear"),
    ("qubit.spec", "quantize", "pair"),
    ("indefinite.spec", "check", None),
    ("indefinite.spec", "hermitian", "skew"),
    ("indefinite.spec", "dagger", "blip"),
    ("indefinite.spec", "unitary", "boost"),
    ("indefinite.spec", "channel", "push"),
    ("sets.spec", "check", None),
    ("sets.spec", "quantize", "single"),
    ("sets.spec", "quantize", "triple"),
    ("sets.spec", "hermitian", "triple"),
]


def load(name):
    return parse_spec((DATA / name).read_text())


def test_corpus_files_all_check_clean():
    for path in CORPUS:
        lines, code = cli.run(parse_spec(path.read_text()), "check")
        assert code == 0, lines
        assert all(line.endswith(": ok") for line in lines)


def test_reports_are_deterministic():
    for name, command, target in RUNS:
        spec = load(name)
        first = cli.run(spec, command, target)
        second = cli.run(load(name), command, target)
        assert first == second


def test_unitary_verdicts_and_exit_codes():
    spec = load("qubit.spec")
    lines, code = cli.run(spec, "unitary", "had")
    assert lines == ["unitary had: yes"] and code == 0
    lines, code = cli.run(spec, "unitary", "shear")
    assert code == 1
    assert lines[0].startswith("unitary shear: no")


def test_channel_report_shape():
    lines, code = cli.run(load("qubit.spec"), "channel", "spread")
    assert code == 0
    assert lines[0] == "channel spread: rho=1/2,1/2;1/2,1/2"
    assert lines[1] == "hermitian: yes"
    assert lines[2] == "trace-preserved: yes"
    assert lines[3] == "positive: yes"


def test_channel_through_a_non_unitary_gate():
    lines, code = cli.run(load("qubit.spec"), "channel", "smear")
    assert code == 0
    assert "hermitian: yes" in lines
    # a shear is not trace preserving
    assert "trace-preserved: no" in lines


def test_quantize_report_certificates():
    lines, code = cli.run(load("sets.spec"), "quantize", "triple")
    assert code == 0
    assert lines[0] == "quantize triple: dim=6 basis=a,b,c"
    assert "gram=1,0,0;0,1,0;0,0,1" in lines
    assert "pairing-symmetric: yes" in lines
    assert "snake-identities: yes" in lines
    assert "gram-identity: yes" in lines


def test_hermitian_on_a_quantize_stanza():
    lines, code = cli.run(load("sets.spec"), "hermitian", "triple")
    assert code == 0
    assert lines[0] == "hermitian triple: dim=3"
    assert "gram=1,0,0;0,1,0;0,0,1" in lines


def test_check_reports_a_failing_stanza():
    spec = parse_spec("module bad dim=1 inv=2\nmodule ok dim=1 inv=1\n")
    lines, code = cli.run(spec, "check")
    assert code == 1
    assert lines[0].startswith("check module bad: FAIL")
    assert lines[1] == "check module ok: ok"


def test_check_with_target_filter():
    spec = load("qubit.spec")
    lines, code = cli.run(spec, "check", "twist")
    assert lines == ["check module twist: ok"] and code == 0
    lines, code = cli.run(spec, "check", "ghost")
    assert code == 2 and lines[0].startswith("error:")


def test_input_errors_exit_2():
    spec = load("qubit.spec")
    for command, target in [
        ("dagger", None),
        ("dagger", "nope"),
        ("channel", "h2"),
        ("mystery", None),
    ]:
        lines, code = cli.run(spec, command, target)
        assert code == 2
        assert lines[0].startswith("error:")
    lines, code = cli.run(None, "check", None)
    assert code == 2


def test_selftest_runs_without_an_input_file():
    lines, code = cli.run(None, "selftest", None, seed=3, cases=5)
    assert code == 0
    assert lines[-1].endswith("seed=3 cases=5")
    assert all(": ok (" in line for line in lines[:-1])


def test_selftest_rejects_an_empty_case_budget(capsys):
    for cases in ("0", "-5"):
        assert cli.main(["--command", "selftest", "--cases", cases]) == 2
        assert capsys.readouterr().out.startswith("error: --cases must be at least 1")


def test_selftest_verdicts_survive_python_O():
    # with dagger sabotaged to return its input, the dagger suite must fail
    # even when the interpreter strips assert statements
    code = (
        "import sys\n"
        "from realmod import hermitian, selftest\n"
        "hermitian.dagger = lambda g, s1, s2: g\n"
        "failed = [r.name for r in selftest.run_selftest(0, 1) if not r.passed]\n"
        "print(sys.flags.optimize, ' '.join(failed))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1 hermitian.dagger\n"


def test_main_end_to_end(capsys, tmp_path):
    path = DATA / "qubit.spec"
    assert cli.main(["--input", str(path), "--command", "unitary", "--target", "had"]) == 0
    assert capsys.readouterr().out == "unitary had: yes\n"

    assert cli.main(["--input", str(path), "--command", "unitary", "--target", "shear"]) == 1
    capsys.readouterr()

    missing = tmp_path / "none.spec"
    assert cli.main(["--input", str(missing), "--command", "check"]) == 2
    assert capsys.readouterr().out.startswith("error: cannot read")

    bad = tmp_path / "bad.spec"
    bad.write_text("module m dim=2 inv=1,0;0\n")
    assert cli.main(["--input", str(bad), "--command", "check"]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error:") and "line 1" in out


def test_console_script_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "realmod.cli",
         "--input", str(DATA / "qubit.spec"), "--command", "dagger", "--target", "had"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].startswith("dagger had: mat=")
    assert proc.stderr == ""


def test_seed_changes_nothing_but_the_summary_line():
    a, _ = cli.run(None, "selftest", None, seed=1, cases=4)
    b, _ = cli.run(None, "selftest", None, seed=2, cases=4)
    assert len(a) == len(b)
    assert a[:-1] == b[:-1]  # same suites, same case counts
    assert a[-1] != b[-1]
