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


def test_changes_has_an_entry_for_this_version():
    # An entry opens with a bold lead that names its version, e.g. "- **... (0.23.0).**";
    # a version named only inside another entry's text does not count.
    changes = (Path(__file__).resolve().parents[1] / "CHANGES.md").read_text()
    leads = re.findall(r"^- \*\*(.*?)\.\*\*", changes, re.MULTILINE)
    version = re.compile(rf"(?<![\w.]){re.escape(subalign.__version__)}(?!\.?\d)")
    assert any(version.search(lead) for lead in leads)


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


def _resolves(module, dotted: str) -> bool:
    """``dotted`` names an attribute path from ``module``, a submodule's attributes included."""
    target = module
    for part in dotted.split("."):
        if not hasattr(target, part):
            return False
        target = getattr(target, part)
    return True


def test_docstring_references_resolve():
    # A reference left to a deleted name reads as the program's API.  :attr: is left
    # out: a dataclass field with no default is not an attribute of its class.
    reference = re.compile(r":(?:func|class|data|mod):`~?([\w.]+)`")
    stale = []
    for name in MODULES:
        module = importlib.import_module(f"subalign.{name}")
        for target in reference.findall(Path(module.__file__).read_text()):
            relative = target.removeprefix("subalign.")
            if not (_resolves(module, relative) or _resolves(subalign, relative)):
                stale.append(f"{name}: {target}")
    assert stale == []
