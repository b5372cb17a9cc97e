"""`tools/record_bench.py` flags a record taken from a checkout whose tracked
files differ from HEAD, so its git sha does not name the code that ran."""

import importlib.util
import subprocess
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "record_bench.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("record_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(repo: Path, *args: str) -> None:
    subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.invalid", *args],
                   cwd=repo, check=True, capture_output=True)


def test_a_checkout_is_dirty_exactly_when_a_tracked_file_changed(tmp_path, monkeypatch):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))  # no enclosing work tree
    dirty = _load_tool().dirty
    assert dirty(tmp_path) is None  # not a git work tree
    _git(tmp_path, "init", "-q")
    (tmp_path / "tracked.txt").write_text("one\n")
    _git(tmp_path, "add", "tracked.txt")
    _git(tmp_path, "commit", "-q", "-m", "first")
    assert dirty(tmp_path) is False
    (tmp_path / "untracked.txt").write_text("scratch\n")
    assert dirty(tmp_path) is False
    (tmp_path / "tracked.txt").write_text("two\n")
    assert dirty(tmp_path) is True
    _git(tmp_path, "add", "tracked.txt")
    assert dirty(tmp_path) is True  # staged but not committed
    _git(tmp_path, "commit", "-q", "-m", "second")
    assert dirty(tmp_path) is False
