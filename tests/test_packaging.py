"""The distribution metadata in ``pyproject.toml`` names the package it ships."""

import importlib
import pathlib

import pytest

import reglab
from reglab import cli

tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_pyproject_names_the_package_its_version_and_its_script():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert project["name"] == "reglab"
    assert project["version"] == reglab.__version__
    module, attr = project["scripts"]["reglab"].split(":")
    assert getattr(importlib.import_module(module), attr) is cli.main
