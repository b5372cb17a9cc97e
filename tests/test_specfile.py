"""Parsing and cross-validation of the declarative input format."""

import pytest

from realmod import cli, linalg, specfile
from realmod.errors import InvariantViolation
from realmod.linalg import parse_matrix
from realmod.quantization import RealSet
from realmod.scalars import MAX_LITERAL_LENGTH
from realmod.specfile import SpecFileError, _tokens, parse_spec

GOOD = """\
# a comment
hermitian h dim=2 gram=1,0;0,1

gate u on=h mat=0,1;1,0
module m dim=1 inv=1
realvs v dim=2 g=1,0;0,1 J=0,-1;1,0
realset s size=2 tau=1,0
quantize q basis=a,b
channel c gate=u rho=u
check k1 target=h
check k2 target=q kind=quantize
"""


def test_parses_every_stanza_kind():
    spec = parse_spec(GOOD)
    assert tuple(st.name for st in spec.stanzas) == (
        "h", "u", "m", "v", "s", "q", "c", "k1", "k2")
    st = spec.find("gate", "u")
    assert [g for g in spec.stanzas if g.kind == "gate"] == [st]
    # each reference holds the (kind, name) it resolved to when parsed
    assert st.fields["on"] == ("hermitian", "h")
    assert st.fields["mat"].rows == 2
    assert list(st.fields) == ["on", "mat"] and len(st.fields) == 2
    assert repr(st.fields) == "{'on': ('hermitian', 'h'), 'mat': Matrix('0,1;1,0')}"
    assert dict(spec.find("channel", "c").fields) == {"gate": ("gate", "u"), "rho": ("gate", "u")}
    assert dict(spec.find("check", "k1").fields) == {"target": ("hermitian", "h")}
    assert dict(spec.find("check", "k2").fields) == {"target": ("quantize", "q")}
    assert spec.find("realset", "s").fields["tau"] == (1, 0)
    assert spec.find("quantize", "q").fields["basis"] == ("a", "b")
    assert spec.find("gate", "h") is None
    assert [c.name for c in spec.stanzas if c.kind == "channel"] == ["c"]


def test_comments_and_blank_lines_are_skipped():
    spec = parse_spec("\n# nothing\n  # indented comment\nmodule m dim=1 inv=1\n")
    assert len(spec.stanzas) == 1


def err(text):
    with pytest.raises(SpecFileError) as info:
        parse_spec(text)
    return str(info.value)


def test_unknown_kind():
    msg = err("widget w dim=1\n")
    assert "widget" in msg and "line 1" in msg


def test_bad_name():
    assert "bad name" in err("module 2m dim=1 inv=1\n")


def test_duplicate_names_within_a_kind():
    text = "module m dim=1 inv=1\nmodule m dim=1 inv=1\n"
    assert "duplicate" in err(text)


def test_missing_and_unknown_keys():
    assert "needs inv=" in err("module m dim=2\n")
    assert "unknown key" in err("module m dim=1 inv=1 extra=2\n")


def test_shape_validation():
    assert "dim" in err("module m dim=3 inv=1,0;0,1\n")
    msg = err("hermitian h dim=2 gram=1,0;0,1\ngate u on=h mat=1\n")
    assert "must be 2x2" in msg


def test_forward_references_are_rejected():
    msg = err("gate u on=h mat=1\nhermitian h dim=1 gram=1\n")
    assert "h" in msg and "line 1" in msg


def test_channel_requires_a_common_space():
    text = (
        "hermitian a dim=1 gram=1\n"
        "hermitian b dim=1 gram=2\n"
        "gate u on=a mat=1\n"
        "gate r on=b mat=1\n"
        "channel c gate=u rho=r\n"
    )
    assert "different spaces" in err(text)


def test_check_target_disambiguation():
    text = (
        "module x dim=1 inv=1\n"
        "realset x size=1 tau=0\n"
        "check k target=x\n"
    )
    assert "ambiguous" in err(text)
    spec = parse_spec(text.replace("target=x", "target=x kind=realset"))
    assert spec.find("check", "k").fields["target"] == ("realset", "x")


def test_check_rejects_unknown_targets_and_kinds():
    assert "unknown target" in err("check k target=ghost\n")
    assert "bad kind" in err("module m dim=1 inv=1\ncheck k target=m kind=thing\n")


def test_error_positions_are_one_based():
    with pytest.raises(SpecFileError) as info:
        parse_spec("module m dim=1 inv=zz\n")
    assert info.value.line == 1
    assert info.value.col >= 20
    assert "column" in str(info.value)


TWO = "hermitian h dim=2 gram=1,0;0,1\n"
CHANNEL_SPACES = ("hermitian a dim=1 gram=1\nhermitian b dim=1 gram=2\n"
                  "gate u on=a mat=1\ngate r on=b mat=1\n")


@pytest.mark.parametrize("text, message, line, col", [
    ("widget w dim=1\n", "unknown stanza kind 'widget'", 1, 1),
    ("# comment\n  module\n", "stanza needs a name", 2, 9),
    ("module 2m dim=1 inv=1\n", "bad name '2m'", 1, 8),
    ("module m dim=1 inv=1\n\tmodule m dim=1 inv=1\n", "duplicate module name 'm'", 2, 9),
    ("module m dim\n", "expected key=value, got 'dim'", 1, 10),
    ("module m =1 inv=1\n", "expected key=value, got '=1'", 1, 10),
    ("module m dim=1 extra=2 inv=1\n", "unknown key 'extra' for module", 1, 16),
    ("module m dim=1 dim=1 inv=1\n", "duplicate key 'dim'", 1, 16),
    ("module m dim= inv=1\n", "empty value for 'dim'", 1, 10),
    ("module m dim=2\n", "module needs inv=", 1, 1),
    ("  realvs v dim=2 g=1\n", "realvs needs J=", 1, 3),
    ("module m dim=x inv=1\n", "expected an integer, got 'x'", 1, 14),
    (f"module m dim={'9' * (MAX_LITERAL_LENGTH + 1)} inv=1\n",
     f"integer longer than {MAX_LITERAL_LENGTH} characters", 1, 14),
    ("module m dim=0 inv=1\n", "integer must be at least 1", 1, 14),
    ("module m dim=3 inv=1,0;0,1\n", "inv must be dim x dim", 1, 20),
    ("realvs v dim=2 g=1,0;0,1 J=0,-1,0;1,0,0\n", "J must be dim x dim", 1, 28),
    ("realvs v dim=2 g=1 J=0,-1;1,0\n", "g must be dim x dim", 1, 18),
    ("realvs v dim=2 J=0,-1;1,0 g=1\n", "g must be dim x dim", 1, 29),
    ("realvs v dim=2 g=1 J=x\n", "unexpected character 'x'", 1, 22),  # every matrix parses before a shape is checked
    ("hermitian h dim=2 gram=1\n", "gram must be dim x dim", 1, 24),
    (TWO + "gate u on=h mat=1\n", "mat must be 2x2 for h", 2, 17),
    (TWO + "gate u on=k mat=1\n", "unknown hermitian or quantize 'k'", 2, 11),
    (TWO + "gate u mat=1,0;0,oops on=h\n", "unexpected character 'o'", 2, 18),
    ("realset s size=-1 tau=0\n", "integer must be at least 1", 1, 16),
    ("realset s size=0 tau=0\n", "integer must be at least 1", 1, 16),  # no tau lists no entry
    ("realset s size=2 tau=0,x\n", "expected an integer, got 'x'", 1, 24),
    ("realset s size=2 tau=0\n", "tau must list size entries", 1, 22),
    ("realset s size=2 tau=0,2\n", "tau is not a permutation", 1, 22),
    ("quantize q basis=a,2b\n", "bad basis label '2b'", 1, 20),
    ("quantize q\u3000basis=a,b,a\n", "duplicate basis label 'a'", 1, 22),
    (CHANNEL_SPACES + "channel c gate=u rho=r\n", "gate and rho live on different spaces", 5, 22),
    (CHANNEL_SPACES + "channel c rho=w gate=u\n", "unknown gate 'w'", 5, 15),
    ("module x dim=1 inv=1\nrealset x size=1 tau=0\ncheck k target=x\n",
     "ambiguous target 'x'; add kind=", 3, 16),
    ("check k target=ghost\n", "unknown target 'ghost'", 1, 16),
    ("module m dim=1 inv=1\ncheck k target=m kind=thing\n", "bad kind 'thing'", 2, 23),
    ("module m dim=1 inv=1\ncheck k kind=check target=m\n", "bad kind 'check'", 2, 14),
    ("module m dim=1 inv=1\ncheck k kind=realset target=m # x\n", "unknown realset 'm'", 2, 29),
])
def test_every_error_keeps_its_message_line_and_column(text, message, line, col):
    with pytest.raises(SpecFileError) as info:
        parse_spec(text)
    assert (info.value.message, info.value.line, info.value.col) == (message, line, col)
    assert str(info.value) == f"{message} (line {line}, column {col})"


def test_a_space_name_belongs_to_one_space_kind(capsys, tmp_path):
    # a gate's `on=` and the hermitian command name a space by name alone, so
    # the second declaration of a space name is the error, whichever kind
    path = tmp_path / "twice.spec"
    for text, other, line, col in (
            ("hermitian q dim=1 gram=1\n# the same name again\n  quantize q basis=a\n", "hermitian", 3, 12),
            ("quantize h basis=a,b\ngate g on=h mat=1,0;0,1\nhermitian h dim=1 gram=1\n", "quantize", 3, 11)):
        path.write_text(text)
        assert cli.main(["--input", str(path), "--command", "check"]) == 2
        assert capsys.readouterr().out == (
            f"error: space name {text.split()[1]!r} is taken by a {other} stanza (line {line}, column {col})\n")
    # a space name may still name a stanza of any other kind
    spec = parse_spec("quantize q basis=a\ngate q on=q mat=1\nmodule q dim=1 inv=1\ncheck k target=q kind=gate\n")
    assert cli.run(spec, "check") == ([
        "check quantize q: ok", "check gate q: ok", "check module q: ok", "check gate q: ok"], 0)


def test_matrix_cell_errors_point_into_the_line():
    with pytest.raises(SpecFileError) as info:
        parse_spec("hermitian h dim=2 gram=1,0;0,oops\n")
    assert info.value.line == 1
    assert info.value.col > 24


def test_tau_validation_splits_between_parse_and_check():
    # shape problems are parse errors; involutivity is a check-time verdict
    assert "permutation" in err("realset s size=2 tau=0,2\n")
    assert "size entries" in err("realset s size=2 tau=0\n")
    spec = parse_spec("realset s size=3 tau=1,2,0\n")
    st = spec.find("realset", "s")
    with pytest.raises(InvariantViolation):
        RealSet(st.fields["size"], st.fields["tau"]).check()


def test_non_ascii_digits_are_positioned_errors():
    # str.isdigit accepts '²' and the Arabic-Indic digits; the grammar does not
    for text, expected in (
        ("hermitian h dim=1 gram=²\n", "unexpected character '²' (line 1, column 24)"),
        ("hermitian h dim=1 gram=٣/٤*i\n", "unexpected character '٣' (line 1, column 24)"),
        ("hermitian h dim=1 gram=1/٣\n", "unexpected character '/' (line 1, column 25)"),
        ("hermitian h dim=٢ gram=1,0;0,1\n", "expected an integer, got '٢' (line 1, column 17)"),
        ("realset t size=1 tau=٠\n", "expected an integer, got '٠' (line 1, column 22)"),
        ("realset t size=² tau=0\n", "expected an integer, got '²' (line 1, column 16)"),
    ):
        assert err(text) == expected


def _reference_tokens(line):
    """The earlier per-character scan: isspace() separates tokens."""
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    out = []
    col = 0
    while col < len(line):
        if line[col].isspace():
            col += 1
            continue
        end = col
        while end < len(line) and not line[end].isspace():
            end += 1
        out.append((line[col:end], col + 1))
        col = end
    return out


def test_tokens_split_on_exactly_the_unicode_whitespace():
    lines = [
        "", "   ", "#", "a#b c", "module m\tdim=1 \t inv=1  # tail",
        "gate\u00a0u on=h", "\x1cmodule\x1dm\x1edim=1\x1finv=1",
        "\u3000hermitian\u2028h\x85dim=1\u202fgram=1\u205f", "x\u200by",  # zero-width space is not a separator
        "\tcheck k target=h#kind=module", "quantize q basis=a,b \x0b\x0c",
    ]
    for line in lines:
        assert _tokens(line) == _reference_tokens(line), repr(line)
        assert [t for t, _ in _tokens(line)] == line.partition("#")[0].split(), repr(line)


def test_lines_break_only_where_the_tokenizer_does_not_see_whitespace():
    # \v \f \x1c-\x1e \x85 U+2028 U+2029 separate tokens within one line; only
    # CR LF, CR and LF end a line
    for sep in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
        spec = parse_spec(f"hermitian h dim=1{sep}gram=1 # a{sep}b\ngate u on=h{sep}mat=1")
        assert [(st.kind, st.name, st.line) for st in spec.stanzas] == [("hermitian", "h", 1), ("gate", "u", 2)]
        assert err(f"module m dim=1 inv=1 # a{sep}b\r\n\rfoo{sep}x\n") == "unknown stanza kind 'foo' (line 3, column 1)"


def _docstring_kinds() -> dict:
    """kind -> (keys, optional keys), as the module docstring's block lists them."""
    block = specfile.__doc__.split("Stanza kinds and their keys:\n\n")[1].split("\n\n")[0]
    kinds = {}
    for line in block.splitlines():
        kind, _, *keys = line.split()
        kinds[kind] = (tuple(k.strip("[]").split("=")[0] for k in keys),
                       tuple(k.strip("[]").split("=")[0] for k in keys if k.startswith("[")))
    return kinds


def test_the_docstring_lists_each_kind_with_its_schema_keys_in_order():
    assert list(_docstring_kinds().items()) == [(kind, row[:2]) for kind, row in specfile._SCHEMA.items()]


SPACES = """\
module m dim=2 inv=0,1;1,0
hermitian h dim=2 gram=1,0;0,-1
hermitian k dim=1 gram=2
gate u on=h mat=5/3,4/3;4/3,5/3
gate r on=h mat=1,1/2;0,1
gate w on=k mat=1*i
channel c gate=u rho=r
"""


def test_a_gate_command_parses_only_the_matrices_it_reads(monkeypatch):
    parsed = []

    def recording(text):
        parsed.append(text)
        return parse_matrix(text)

    monkeypatch.setattr(specfile, "parse_matrix", recording)
    spec = parse_spec(SPACES)
    assert cli.run(spec, "unitary", "u") == (["unitary u: yes"], 0)
    assert sorted(parsed) == ["1,0;0,-1", "5/3,4/3;4/3,5/3"]  # the gate and its gram
    assert cli.run(spec, "unitary", "u")[1] == 0
    assert len(parsed) == 2  # converted once, kept on the stanza


class _CountingPattern:
    """A compiled pattern that counts its `fullmatch` calls."""

    def __init__(self, pattern):
        self.pattern, self.calls = pattern, 0

    def fullmatch(self, text):
        self.calls += 1
        return self.pattern.fullmatch(text)


def test_validated_matrix_text_is_read_without_a_second_check_or_parse_scalar(monkeypatch):
    pattern = _CountingPattern(linalg._MATRIX)
    monkeypatch.setattr(linalg, "_MATRIX", pattern)
    scalars, parsed = [], []
    monkeypatch.setattr(linalg, "parse_scalar", lambda text: scalars.append(text))
    monkeypatch.setattr(specfile, "parse_matrix", lambda text: parsed.append(text) or parse_matrix(text))
    spec = parse_spec(SPACES)
    assert pattern.calls == 6  # one per matrix field, at parse time
    assert cli.run(spec, "dagger", "u")[1] == 0
    assert cli.run(spec, "channel", "c") == (["channel c: FAIL (state is not gram-self-adjoint)"], 1)
    assert sorted(parsed) == ["1,0;0,-1", "1,1/2;0,1", "5/3,4/3;4/3,5/3"]  # each matrix they read, once
    assert pattern.calls == 6
    assert scalars == []


def test_a_rejected_matrix_field_is_matched_once(monkeypatch):
    pattern = _CountingPattern(linalg._MATRIX)
    monkeypatch.setattr(linalg, "_MATRIX", pattern)
    spec = parse_spec("hermitian h dim=1 gram=2/02")  # a zero-led denominator: the per-cell scanner reads it
    assert pattern.calls == 1
    assert spec.stanzas[0].fields["gram"] == parse_matrix("1")


@pytest.mark.parametrize("line, expected", [
    ("hermitian bad dim=2 gram=1,0;0\n", "ragged matrix rows (line 8, column 30)"),
    ("hermitian bad dim=2 gram=1,0;0,1/0\n", "zero denominator (line 8, column 32)"),
    (f"gate bad on=h mat=1,0;0,{'1' * (MAX_LITERAL_LENGTH + 1)}\n",
     f"literal longer than {MAX_LITERAL_LENGTH} characters (line 8, column 25)"),
    ("module bad dim=1 inv=٣\n", "unexpected character '٣' (line 8, column 22)"),
])
def test_a_matrix_error_in_an_unread_stanza_is_still_positioned(line, expected, capsys, tmp_path):
    path = tmp_path / "bad.spec"
    path.write_text(SPACES + line, encoding="utf-8")
    assert cli.main(["--input", str(path), "--command", "unitary", "--target", "u"]) == 2
    assert capsys.readouterr().out == f"error: {expected}\n"
