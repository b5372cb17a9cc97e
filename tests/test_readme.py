"""README's `python` examples run as written, and its lists of commands and
stanza kinds name the command line's tables in their order."""

import re
from pathlib import Path

from realmod import cli, specfile

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_readme_python_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def _sentence(lead: str) -> list:
    """The backquoted names of README's sentence that starts with `lead`, in order."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    return re.findall(r"`(\w+)`", text.split(lead, 1)[1].split(". ", 1)[0])


def test_the_commands_and_stanzas_sentences_follow_the_tables():
    assert _sentence("Commands:") == [*cli._COMMANDS, "selftest"]
    assert _sentence("Stanzas:") == list(specfile._SCHEMA)
