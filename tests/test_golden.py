"""Every command on every corpus target, compared with committed reports.

Beside each `tests/data/<name>.spec` lies `<name>.golden`: the report lines and
exit code `cli.run` gives for the whole-file `check`, then for every command
against every stanza name in the file (input errors included).  A change that
alters any report byte fails here.  After an intended report change, rewrite
the golden files with

    PYTHONPATH=src python tests/test_golden.py
"""

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


def render(path: pathlib.Path) -> str:
    spec = parse_spec(path.read_text(encoding="utf-8"))
    names = sorted({st.name for st in spec.stanzas})
    out = []
    for command, target in [("check", None)] + [(c, n) for n in names for c in cli._COMMANDS]:
        lines, code = cli.run(spec, command, target)
        out.append(f"$ {command}" + ("" if target is None else f" {target}"))
        out.extend(lines)
        out.append(f"exit {code}")
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_reports_match_the_golden_files(path):
    assert render(path) == path.with_suffix(".golden").read_text(encoding="utf-8")


@pytest.mark.parametrize("argv", [
    ["--command", "check"],
    ["--command", "channel", "--target", "spread"],
], ids=["check", "channel"])
def test_reports_are_identical_across_hash_seeds(argv):
    outputs = set()
    for hash_seed in ("0", "1", "4242"):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-m", "realmod.cli", "--input", str(DATA / "qubit.spec"), *argv],
            capture_output=True, env=env, timeout=120)
        assert proc.returncode == 0 and proc.stderr == b""
        outputs.add(proc.stdout)
    assert len(outputs) == 1


if __name__ == "__main__":
    for spec_path in CORPUS:
        spec_path.with_suffix(".golden").write_text(render(spec_path), encoding="utf-8")
