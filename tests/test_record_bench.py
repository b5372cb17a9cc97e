"""`tools/record_bench.py` flags a record taken from a checkout whose tracked
files differ from HEAD, so its git sha does not name the code that ran, and
names the code of `src/` and `bench/` by a hash of their files and whether
its runs import realmod from source."""

import importlib.util
import shutil
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


def test_a_tree_hash_names_the_python_files_under_its_directory(tmp_path):
    tree_sha256 = _load_tool().tree_sha256
    one = tmp_path / "one"
    for rel, text in (("src/realmod/a.py", "A = 1\n"), ("src/realmod/sub/b.py", "B = 2\n"),
                      ("bench/run.py", "RUN = 3\n"), ("README.md", "readme\n")):
        (one / rel).parent.mkdir(parents=True, exist_ok=True)
        (one / rel).write_text(text)
    two = tmp_path / "two"
    shutil.copytree(one, two)
    src = tree_sha256(one / "src")
    assert tree_sha256(two / "src") == src
    assert tree_sha256(one / "bench") != src
    # outside src/, or not a .py file under it, or under __pycache__
    (two / "bench" / "run.py").write_text("RUN = 4\n")
    (two / "README.md").write_text("changed\n")
    (two / "src" / "realmod" / "notes.txt").write_text("notes\n")
    (two / "src" / "realmod" / "__pycache__").mkdir()
    (two / "src" / "realmod" / "__pycache__" / "a.py").write_text("stale\n")
    assert tree_sha256(two / "src") == src
    # a file's bytes, its name, or a new file
    b = two / "src" / "realmod" / "sub" / "b.py"
    b.write_text("B = 3\n")
    assert tree_sha256(two / "src") != src
    b.write_text("B = 2\n")
    b.rename(b.with_name("c.py"))
    assert tree_sha256(two / "src") != src
    b.with_name("c.py").rename(b)
    (two / "src" / "new.py").write_text("")
    assert tree_sha256(two / "src") != src


def test_a_record_says_whether_the_runs_may_import_realmod_from_source(tmp_path):
    bytecode_state = _load_tool().bytecode_state
    cache = tmp_path / "src" / "realmod" / "__pycache__"
    assert bytecode_state(tmp_path, {}) == {"dont_write_bytecode": False, "pyc_before": False}
    cache.mkdir(parents=True)
    (cache / "notes.txt").write_text("not bytecode\n")
    assert bytecode_state(tmp_path, {"PYTHONDONTWRITEBYTECODE": "1"}) == {
        "dont_write_bytecode": True, "pyc_before": False}
    (cache / "linalg.cpython-311.pyc").write_bytes(b"")
    assert bytecode_state(tmp_path, {"PYTHONDONTWRITEBYTECODE": "1"}) == {
        "dont_write_bytecode": True, "pyc_before": True}
    # set to the empty string counts as unset, as it does for the interpreter
    assert bytecode_state(tmp_path, {"PYTHONDONTWRITEBYTECODE": ""}) == {
        "dont_write_bytecode": False, "pyc_before": True}
