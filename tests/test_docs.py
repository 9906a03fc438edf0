from __future__ import annotations

import ast
import json
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


def test_readme_configs_use_accepted_keys(tmp_path, capsys, monkeypatch):
    """Every top-level key of the README's config blocks is a run, sweep or cv
    key whose value has the key's type, and the README sweep config passes
    `sweep --dry-run` as written."""
    from shotsweep.cli import _KEYS, EXIT_OK, _typed, main

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    walkthrough = readme.split("## CLI walkthrough", 1)[1]
    blocks = re.findall(r"```json\n(.*?)```", walkthrough, re.DOTALL)
    configs = [json.loads(block) for block in blocks]
    assert len(configs) >= 2
    for config in configs:
        assert set(config) <= set(_KEYS), config
        for key, value in config.items():
            _typed(_KEYS[key][0], value, key)
    (sweep,) = [block for block, config in zip(blocks, configs) if "models" in config]
    path = tmp_path / "sweep.json"
    path.write_text(sweep, encoding="utf-8")
    monkeypatch.chdir(ROOT)
    argv = ["sweep", "--config", str(path), "--out", str(tmp_path / "out"), "--dry-run"]
    assert main(argv) == EXIT_OK
    assert "24 cells" in capsys.readouterr().out
