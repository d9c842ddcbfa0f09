from pathlib import Path


def test_library_snippet_runs_as_documented(capsys):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = text.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == ["40 modes", "39 modes flat"]
