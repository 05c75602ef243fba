"""Every Python file of the package, its tests and its demos parses at the
oldest Python that pyproject.toml declares."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_sources_parse_at_the_declared_python_floor():
    pyproject = (ROOT / "pyproject.toml").read_text()
    major, minor = map(int, re.search(
        r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups())
    files = sorted(p for d in ("src", "tests", "demos")
                   for p in (ROOT / d).rglob("*.py"))
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(), str(path), feature_version=(major, minor))
