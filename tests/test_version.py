import importlib
import importlib.util
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

# Merged into datamatrix in 0.6.0, with the names of theirs that were kept.
MERGED = {"pca": ["CenteredData", "center", "pca_subspace"],
          "procrustes": ["NormalizedProjection", "fit_error_sq", "optimal_rotation"]}


@pytest.mark.parametrize("name", MODULES + sorted(MERGED))
def test_every_exported_name_resolves(name):
    assert name not in MERGED or importlib.util.find_spec(f"subalign.{name}") is None
    module = importlib.import_module("subalign.datamatrix" if name in MERGED else f"subalign.{name}")
    assert set(MERGED.get(name, [])) <= set(module.__all__)
    # A deleted definition must not be left listed in its module's __all__.
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
