import shlex
from pathlib import Path

from hapod.cli import build_parser


def test_library_snippet_runs_as_documented(capsys):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = text.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == ["40 modes", "39 modes flat"]


def test_command_line_examples_parse():
    # parsed only, never run: a flag the parser no longer has fails here
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```\n", 2)[1]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line.strip()]
    assert [c[:2] for c in commands] == [["hapod", "gen"], ["hapod", "run"],
                                         ["hapod", "verify"], ["hapod", "bench"]]
    for words in commands:
        build_parser().parse_args(words[1:])
