"""Command behavior, exit codes, and byte-determinism of the reports."""

import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from realmod import cli, density, hermitian, linalg, selftest, specfile
from realmod.equivalence import HermitianSpace
from realmod.errors import ShapeError
from realmod.linalg import Matrix
from realmod.specfile import SpecFileError, parse_spec

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
    singular = parse_spec("hermitian h dim=2 gram=1,0;0,1\ngate g on=h mat=1,0;0,0\n")
    assert cli.run(singular, "unitary", "g") == (["unitary g: no (g†g ≠ id)"], 1)


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
    spec = parse_spec("hermitian h dim=2 gram=1,1;1,1\n")
    assert cli.run(spec, "check") == (["check hermitian h: FAIL (gram is degenerate)"], 1)


def test_check_fails_a_channel_whose_state_the_channel_command_rejects():
    head = "hermitian h dim=2 gram=1,0;0,1\ngate g on=h mat=1,0;0,1\n"
    spec = parse_spec(head + "gate rho on=h mat=1,1;0,1\nchannel c gate=g rho=rho\n")
    assert cli.run(spec, "channel", "c") == (["channel c: FAIL (state is not gram-self-adjoint)"], 1)
    assert cli.run(spec, "check", "c") == (["check channel c: FAIL (state is not gram-self-adjoint)"], 1)
    lines, code = cli.run(spec, "check")
    assert code == 1 and lines[-1] == "check channel c: FAIL (state is not gram-self-adjoint)"
    # self-adjointness is read on the declared gram, not the identity
    indefinite = "hermitian h dim=2 gram=1,0;0,-1\ngate g on=h mat=1,0;0,1\n"
    for rho, verdict, code in (("1,1;-1,1", "ok", 0), ("1,1;1,1", "FAIL (state is not gram-self-adjoint)", 1)):
        spec = parse_spec(indefinite + f"gate rho on=h mat={rho}\nchannel c gate=g rho=rho\n")
        assert cli.run(spec, "check", "c") == ([f"check channel c: {verdict}"], code)
        assert cli.run(spec, "channel", "c")[1] == code


def test_a_command_checks_its_self_dual_structure_once(monkeypatch):
    calls = []
    check = hermitian.SelfDualRealModule.check
    monkeypatch.setattr(hermitian.SelfDualRealModule, "check", lambda s: calls.append(s) or check(s))
    for name, command, target in RUNS:
        if command != "check":
            calls.clear()
            lines, _ = cli.run(load(name), command, target)
            assert len(calls) == 1, (command, target, lines)


def test_a_gate_command_checks_its_hermitian_space_once(monkeypatch):
    # the eigen split builds a second space for the form it extracts; only
    # checks of the stanza's own space, the one holding its parsed gram, count
    calls = []
    check = HermitianSpace.check
    monkeypatch.setattr(HermitianSpace, "check", lambda h: calls.append(h) or check(h))
    for name, command, target in RUNS:
        if command in ("dagger", "unitary", "channel"):
            spec = load(name)
            grams = [st.fields["gram"] for st in spec.stanzas if st.kind == "hermitian"]
            calls.clear()
            lines, _ = cli.run(spec, command, target)
            own = [h for h in calls if any(h.gram is gram for gram in grams)]
            assert len(own) == 1, (command, target, lines)


def test_a_command_eliminates_each_matrix_once(monkeypatch):
    # the split's kernel, of icplx - iI, is read off its empty columns, since
    # the standard model's icplx is diagonal; its frame is the identity,
    # inverted by transposing it; and it keeps the stanza's Hermitian space,
    # whose gram it extracts back.  So on `qubit.spec`, whose `h2` has the
    # identity gram, nothing is eliminated, and a gram that is not a
    # permutation is eliminated once, by the check of the stanza's space
    calls = []
    rref = linalg._rref
    monkeypatch.setattr(linalg, "_rref", lambda rows: calls.append(rows) or rref(rows))
    for spec, command, target, count in (
            ("qubit.spec", "hermitian", "h2", 0), ("qubit.spec", "dagger", "had", 0),
            ("qubit.spec", "unitary", "had", 0), ("qubit.spec", "channel", "spread", 0),
            ("qubit.spec", "quantize", "pair", 0),
            ("indefinite.spec", "hermitian", "lor", 1), ("indefinite.spec", "hermitian", "skew", 1),
            ("indefinite.spec", "dagger", "boost", 1), ("indefinite.spec", "channel", "push", 1)):
        calls.clear()
        assert cli.run(load(spec), command, target)[1] == 0
        assert len(calls) == count, (spec, command, target)


def test_the_channel_command_checks_the_state_law_once(monkeypatch):
    calls = []
    conj_transpose = Matrix.conj_transpose
    monkeypatch.setattr(Matrix, "conj_transpose", lambda m: calls.append("conj_transpose") or conj_transpose(m))
    self_adjoint = HermitianSpace.is_self_adjoint
    monkeypatch.setattr(HermitianSpace, "is_self_adjoint",
                        lambda h, op: calls.append("is_self_adjoint") or self_adjoint(h, op))
    assert cli.run(load("qubit.spec"), "channel", "spread")[1] == 0
    # the stanza's gram, the state, the oracle's g^dagger and positivity's
    # `inertia`, which tests the state law on gram . rho
    assert calls.count("conj_transpose") == 4
    # `density.channel`'s test; the command reads its state without the
    # channel builder, whose test is for `check`
    assert calls.count("is_self_adjoint") == 1
    # both paths report a state that breaks the law
    spec = parse_spec("hermitian q dim=1 gram=1\ngate one on=q mat=1\ngate r on=q mat=i\nchannel c gate=one rho=r")
    for command, target in (("check", None), ("channel", "c")):
        calls.clear()
        lines, code = cli.run(spec, command, target)
        assert code == 1 and lines[-1].endswith("channel c: FAIL (state is not gram-self-adjoint)")
        assert calls.count("is_self_adjoint") == 1


def test_dagger_and_channel_read_the_map_and_state_laws_in_the_frame(monkeypatch):
    # each law of a map or a state is a block condition on the frame
    # coordinates a command computes anyway (see `hermitian.EigenSplit`), so
    # no ambient product tests it again: 4 products fewer per externalized
    # map and per converted square.  `channel` computes no isometry verdict,
    # whose two routes `unitary` compares.  The split keeps the stanza's space
    # and forms no product for its gram's inverse; `dagger`'s comparison with
    # the gram oracle is its adjoint law, so the command forms no second
    # oracle; and `channel` tests its state law once, in `density.channel`
    calls = []
    matmul = Matrix.__matmul__
    monkeypatch.setattr(Matrix, "__matmul__", lambda a, b: calls.append(1) or matmul(a, b))
    for command, target, count in (("dagger", "had", 20), ("channel", "spread", 32)):
        calls.clear()
        assert cli.run(load("qubit.spec"), command, target)[1] == 0
        assert len(calls) == count, command


def test_the_commands_products_stay_packed(monkeypatch):
    # the corpus and the selftest form products whose fields are far narrower
    # than `linalg._PACKED_BITS`, so the width cap declines none of them
    declined = []
    kernel = linalg._packed_product

    def recorded(*args):
        out = kernel(*args)
        declined.append(out is None)
        return out

    monkeypatch.setattr(linalg, "_packed_product", recorded)
    for name, command, target in RUNS:
        cli.run(load(name), command, target)
    for seed in range(101000, 101004):
        assert all(r.passed for r in selftest.run_selftest(seed, 1))
    assert declined and not any(declined)


SHARED_SPACE = """\
hermitian h dim=2 gram=1,0;0,-1
gate a on=h mat=1,0;0,1
gate b on=h mat=0,1;1,0
gate rho on=h mat=1,0;0,0
channel ca gate=a rho=rho
channel cb gate=b rho=rho
check k target=h
"""
SHARED_SIZES = "quantize p basis=x\nquantize q basis=x,y\nquantize r basis=y\nquantize s basis=u,v\n"


def test_check_builds_each_object_once_per_command(monkeypatch):
    checks, sizes = [], []
    check = HermitianSpace.check
    monkeypatch.setattr(HermitianSpace, "check", lambda h: checks.append(h) or check(h))
    quantize = cli.quantize
    monkeypatch.setattr(cli, "quantize", lambda n: sizes.append(n) or quantize(n))
    spec = parse_spec(SHARED_SPACE)
    assert cli.run(spec, "check") == ([
        "check hermitian h: ok", "check gate a: ok", "check gate b: ok", "check gate rho: ok",
        "check channel ca: ok", "check channel cb: ok", "check hermitian h: ok"], 0)
    assert len(checks) == 1
    assert cli.run(spec, "check")[1] == 0 and len(checks) == 2  # a second command builds again
    spec = parse_spec(SHARED_SIZES)
    assert cli.run(spec, "check") == ([f"check quantize {q}: ok" for q in "pqrs"], 0)
    assert sizes == [1, 2]
    assert cli.run(spec, "check", "s") == (["check quantize s: ok"], 0) and sizes == [1, 2, 2]


def test_every_stanza_on_a_failing_space_reports_the_failure():
    spec = parse_spec("hermitian h dim=2 gram=1,1;1,1\ngate a on=h mat=1,0;0,1\ngate b on=h mat=0,1;1,0\n"
                      "channel c gate=a rho=b\ncheck k target=h\ncheck j target=b\n")
    fail = "FAIL (gram is degenerate)"
    assert cli.run(spec, "check") == ([
        f"check hermitian h: {fail}", f"check gate a: {fail}", f"check gate b: {fail}",
        f"check channel c: {fail}", f"check hermitian h: {fail}", f"check gate b: {fail}"], 1)
    assert cli.run(spec, "check", "j") == ([f"check gate b: {fail}"], 1)
    assert cli.run(spec, "unitary", "b") == ([f"unitary b: {fail}"], 1)


def test_a_file_without_stanzas_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "empty.spec"
    for text in ("# nothing\n", "", "\n   \n# a comment\n"):
        path.write_text(text)
        assert cli.main(["--input", str(path), "--command", "check"]) == 2
        assert capsys.readouterr().out == "error: spec file declares no stanzas\n"


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
        assert capsys.readouterr().out == f"error: --cases must be at least 1, got {cases}\n"


def test_library_selftest_rejects_an_empty_case_budget():
    for cases in (0, -5):
        with pytest.raises(ValueError, match="cases must be at least 1"):
            selftest.run_selftest(seed=0, cases=cases)


def test_a_suite_that_ran_no_case_fails(monkeypatch):
    monkeypatch.setattr(selftest, "_SUITES", (("empty", lambda rng, cases: 0),
                                              ("full", lambda rng, cases: cases)))
    empty, full = selftest.run_selftest(seed=0, cases=3)
    assert (empty.passed, empty.failure) == (False, "no case ran")
    assert (full.passed, full.cases) == (True, 3)


def test_a_library_error_fails_its_own_suite_only(monkeypatch):
    def broken(s):
        raise ShapeError("cannot multiply a broken square")
    monkeypatch.setattr(density, "csmat", broken)
    lines, code = cli.run(None, "selftest", cases=1)
    assert code == 1
    assert "selftest density.dimensions: FAIL (cannot multiply a broken square)" in lines
    assert sum(": ok (" in line for line in lines) == 16
    assert lines[-1] == "selftest: 16/17 suites passed, seed=0 cases=1"


def test_selftest_verdicts_survive_python_O():
    # with dagger sabotaged to double its input, the dagger suite must fail
    # even when the interpreter strips assert statements.  The suite leaves
    # the gram oracle to `dagger` itself, so the sabotage must break a law
    # the suite tests: doubling breaks involutivity
    code = (
        "import sys\n"
        "from realmod import hermitian, selftest\n"
        "hermitian.dagger = lambda g, s1, s2: g + g\n"
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


def test_a_spec_that_is_not_utf8_is_a_positioned_input_error(capsys, tmp_path):
    path = tmp_path / "bad.spec"
    cases = (
        (b"hermitian q dim=1 gram=1\n# \xff\n", 2, 3),
        # columns count characters: "# \xc3\xa9t\xc3\xa9 " is the 6 characters "# \u00e9t\u00e9 "
        (b"# \xc3\xa9t\xc3\xa9 \xe9\r\nhermitian q dim=1 gram=1\n", 1, 7),
        (b"hermitian q dim=1 gram=1\r\n\r\n\xc3", 3, 1),
        # a form feed or U+2028 in a comment ends no line, as in parse_spec
        (b"hermitian q dim=1 gram=1 # \x0c\xe2\x80\xa8\n\xff", 2, 1),
    )
    for data, line, col in cases:
        path.write_bytes(data)
        assert cli.main(["--input", str(path), "--command", "check"]) == 2
        out, err = capsys.readouterr()
        assert out == f"error: cannot read {path}: not UTF-8 text (line {line}, column {col})\n"
        assert err == ""


def test_oversized_literals_are_positioned_input_errors(capsys, tmp_path):
    # 5000 digits exceed the interpreter's int/str conversion limit
    huge = "1" * 5000
    cases = (
        (f"hermitian h dim=1 gram={huge}\n",
         "error: literal longer than 1000 characters (line 1, column 24)\n"),
        (f"hermitian h dim=1 gram=1,0;0,1/{huge}+i\n",
         "error: literal longer than 1000 characters (line 1, column 30)\n"),
        (f"hermitian h dim={huge} gram=1\n",
         "error: integer longer than 1000 characters (line 1, column 17)\n"),
    )
    path = tmp_path / "huge.spec"
    for text, expected in cases:
        path.write_text(text)
        assert cli.main(["--input", str(path), "--command", "check"]) == 2
        assert capsys.readouterr().out == expected


def test_non_ascii_digits_are_positioned_input_errors(capsys, tmp_path):
    path = tmp_path / "digits.spec"
    for text, expected in (
        ("hermitian h dim=1 gram=²\n", "error: unexpected character '²' (line 1, column 24)\n"),
        ("hermitian h dim=٢ gram=1,0;0,1\n", "error: expected an integer, got '٢' (line 1, column 17)\n"),
    ):
        path.write_text(text, encoding="utf-8")
        assert cli.main(["--input", str(path), "--command", "check"]) == 2
        assert capsys.readouterr().out == expected


def test_unprintable_coordinates_are_input_errors(capsys, tmp_path):
    # in-bound literals whose sum has a denominator past the int/str limit:
    # five 900-digit denominators under the default limit of 4300 digits
    limit = sys.get_int_max_str_digits()
    terms = "+".join(f"1/{10 ** 899 + k}" for k in range(1, (limit or 4300) // 899 + 2))
    path = tmp_path / "sum.spec"
    path.write_text(f"hermitian h dim=1 gram={terms}\n")
    assert cli.main(["--input", str(path), "--command", "check"]) == 0
    assert capsys.readouterr().out == "check hermitian h: ok\n"
    code = cli.main(["--input", str(path), "--command", "hermitian", "--target", "h"])
    out = capsys.readouterr().out
    if limit:  # with no limit the gram simply prints
        assert (code, out) == (2, f"error: cannot print a scalar coordinate of more than {limit} digits\n")


def test_the_docstring_and_help_list_the_command_table_in_order(capsys):
    block = cli.__doc__.split("Commands:\n\n")[1].split("\n\n")[0]
    commands = [*cli._COMMANDS, "selftest"]
    assert [line.split()[0] for line in block.splitlines() if line[4] != " "] == commands
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    assert " | ".join(commands) in " ".join(capsys.readouterr().out.split())


def test_console_script_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "realmod.cli",
         "--input", str(DATA / "qubit.spec"), "--command", "dagger", "--target", "had"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].startswith("dagger had: mat=")
    assert proc.stderr == ""


def test_seed_changes_nothing_but_the_summary_line():
    a, _ = cli.run(None, "selftest", None, seed=1, cases=4)
    b, _ = cli.run(None, "selftest", None, seed=2, cases=4)
    assert len(a) == len(b)
    assert a[:-1] == b[:-1]  # same suites, same case counts
    assert a[-1] != b[-1]


# -- grammar fuzzer ----------------------------------------------------------------

_FUZZ_ALPHABET = "0123456789/+-*ir2 ,;=#\t²٣"
_fuzz_junk = st.one_of(st.sampled_from(("²", "-²*i", "1+²", "٣/٤*i", "1/٣", "", "1/0", "i*i", "1 2")),
                       st.text(alphabet=_FUZZ_ALPHABET, max_size=5))


def _mostly(valid, junk=_fuzz_junk, odds=10):
    """`valid`, except junk text once in `odds` draws."""
    return st.integers(1, odds).flatmap(lambda k: valid if k > 1 else junk)


_fuzz_cell = _mostly(st.sampled_from(("0", "1", "-1", "2", "1/2", "-3/4", "1*i", "-i", "r2", "1/2*r2", "i*r2", "1+i")),
                     odds=5)


def _fuzz_matrix(n, good):
    cells = st.lists(st.lists(_fuzz_cell, min_size=n, max_size=n), min_size=n, max_size=n)
    return st.one_of(st.sampled_from(good), cells.map(lambda rows: ";".join(",".join(r) for r in rows)))


@st.composite
def _fuzz_spec(draw):
    """A spec file near the grammar: a prefix of stanza templates, then a few edits."""
    n = draw(st.integers(1, 2))
    dim = draw(_mostly(st.just(str(n)), st.sampled_from(("0", "3", "-1", "٢", "²"))))
    forms = ("1", "2", "-1") if n == 1 else ("1,0;0,1", "1,0;0,-1", "2,1*i;-1*i,1", "0,1;1,0")
    states = ("1", "1/2") if n == 1 else ("1/2,0;0,1/2", "1,0;0,0", "1/2,1/2*i;-1/2*i,1/2")
    templates = [  # each stanza refers only to those before it; one or more per kind
        f"hermitian h dim={dim} gram={draw(_fuzz_matrix(n, forms))}",
        f"gate g on=h mat={draw(_fuzz_matrix(n, forms))}",
        f"gate r on=h mat={draw(_fuzz_matrix(n, states))}",
        "channel c gate=g rho=r",
        f"check k target={draw(st.sampled_from(('h', 'g', 'c', 'x')))}",
        f"quantize q basis={draw(st.sampled_from(('a', 'a,b', 'a,b,c', 'a,a')))}",
        f"module m dim={dim} inv={draw(_fuzz_matrix(n, forms))}",
        f"realvs v dim={dim} g={draw(_fuzz_matrix(n, forms))} J={draw(_fuzz_matrix(n, forms))}",
        f"realset s size={dim} tau={draw(_mostly(st.sampled_from(('0', '1,0', '0,1', '٠'))))}",
    ]
    text = "\n".join(templates[:draw(st.integers(0, len(templates)))])  # 0: no stanza at all
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):  # insert, replace or delete a character
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(("insert", "replace", "delete")))
        ch = "" if edit == "delete" else draw(st.sampled_from(_FUZZ_ALPHABET + "\n"))
        text = text[:at] + ch + text[at + (0 if edit == "insert" else 1):]
    return text, templates


@given(_fuzz_spec())
@settings(derandomize=True, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_any_spec_text_gets_an_exit_code_and_no_traceback(text_and_templates):
    text, templates = text_and_templates
    assert {t.split()[0] for t in templates} == set(specfile._SCHEMA)
    try:
        spec = parse_spec(text)
    except SpecFileError:
        return  # exit 2 with a positioned message
    commands = [command for command in cli._COMMANDS if command != "check"]
    names = [t.split()[1] for t in templates]  # every stanza name the templates declare
    runs = [("check", None)] + [(command, name) for command in cli._COMMANDS for name in names]
    results = {(command, target): cli.run(spec, command, target) for command, target in runs}
    for lines, code in results.values():
        assert code in (0, 1, 2)
        assert lines  # every answer, an error included, is at least one report line
    for command in commands:  # check asserts every law a command does; "not unitary" is an answer
        for name in names:
            lines, code = results[(command, name)]
            if code == 1 and lines != [f"unitary {name}: no (g†g ≠ id)"]:
                assert results[("check", name)][1] == 1, (command, name, lines)
