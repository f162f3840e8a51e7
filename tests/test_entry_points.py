"""Every console script in ``pyproject.toml`` resolves and answers --help.

A script entry whose module is gone (or whose ``main`` no longer takes
``argv``) fails here rather than on a user's first install.
"""

import importlib
import pathlib
import tomllib

import pytest

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
SCRIPTS = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]


def test_scripts_are_declared():
    assert SCRIPTS


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_target_answers_help(script, capsys):
    module_name, _, attr = SCRIPTS[script].partition(":")
    main = getattr(importlib.import_module(module_name), attr)
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert "usage:" in capsys.readouterr().out
