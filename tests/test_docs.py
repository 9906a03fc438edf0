from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_use_example_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md (Library use)", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1.0"
    assert ast.literal_eval(lines[1]) == [1.0] * 10
