"""Package metadata."""

import re
from pathlib import Path

import drchm


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    declared = re.search(r'^version\s*=\s*"([^"]+)"', project, re.MULTILINE).group(1)
    assert drchm.__version__ == declared
