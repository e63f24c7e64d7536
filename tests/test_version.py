import re
from pathlib import Path

import subalign


def test_version_matches_pyproject():
    # A regex, not tomllib: tomllib is not in the standard library before Python 3.11.
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None
    assert match.group(1) == subalign.__version__
