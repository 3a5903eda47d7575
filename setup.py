"""Setuptools shim carrying no project metadata.

The repository is not installed to be used: the tests, the CLI
(``python -m repro.cli``), the examples and CI all run from the source tree
with ``PYTHONPATH=src``, as the README shows.
"""

from setuptools import setup

setup()
