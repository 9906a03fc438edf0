"""scripts/artifact_set.py's argument checks, which run before it builds anything."""

from __future__ import annotations

import importlib.util

import pytest

from conftest import REPO_ROOT


@pytest.fixture(scope="module")
def artifact_set():
    spec = importlib.util.spec_from_file_location(
        "artifact_set", REPO_ROOT / "scripts" / "artifact_set.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("src", ["src", "data", "missing"])
def test_a_src_that_is_not_a_checkout_root_is_refused_before_out_is_made(
    artifact_set, tmp_path, capsys, src
):
    out = tmp_path / "out"
    assert artifact_set.main([str(REPO_ROOT / src), str(out)]) == 2
    assert not out.exists()
    message = capsys.readouterr().err
    assert message.count("\n") == 1 and "not a shotsweep checkout root" in message
