"""The README's examples run: the library quick start prints what its
comments say, and every CLI line exits as documented."""

import re
import shlex
from pathlib import Path

from teameq.cli import EXIT_OK, EXIT_VERIFY_FAIL, main

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(), re.DOTALL)


def test_quick_start_prints_documented_values(capsys):
    blocks = _blocks("python")
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == ["True", "False", "1.25", "1.2500000000000002"]


def test_cli_lines_exit_as_documented(tmp_path, monkeypatch):
    # the correlated checks at the all-zeros profile are the documented FAILs
    lines = [
        line
        for block in _blocks("bash")
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("teameq ")
    ]
    assert len(lines) == 11
    monkeypatch.chdir(tmp_path)
    for line in lines:
        fails = line.startswith("teameq verify") and re.search(r"--class (joint|sequential)", line)
        expected = EXIT_VERIFY_FAIL if fails else EXIT_OK
        assert main(shlex.split(line)[1:]) == expected, line
