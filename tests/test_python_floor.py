"""The package and its tests parse under the oldest Python that pyproject.toml declares."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def declared_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.MULTILINE).groups()
    return int(major), int(minor)


def test_every_source_file_parses_at_the_declared_python_floor():
    floor = declared_floor()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(files) > 10
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=floor)
