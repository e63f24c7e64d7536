import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import subalign


def test_version_matches_pyproject():
    # A regex, not tomllib: tomllib is not in the standard library before Python 3.11.
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None
    assert match.group(1) == subalign.__version__


# __main__ runs the CLI when imported.
MODULES = [info.name for info in pkgutil.iter_modules(subalign.__path__)
           if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # A deleted definition must not be left listed in its module's __all__.
    module = importlib.import_module(f"subalign.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
