"""The package version has one source, and it is the release CHANGES.md heads."""

import re
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent


def test_pyproject_reads_the_version_from_the_package():
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in meta["project"]
    assert meta["project"]["dynamic"] == ["version"]
    assert meta["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "repro.__version__"
    }


def test_package_version_is_the_changelog_head():
    head = re.search(
        r"^## (\d+\.\d+\.\d+) ", (ROOT / "CHANGES.md").read_text(), re.MULTILINE
    )
    assert head is not None
    assert repro.__version__ == head.group(1)
