"""Setuptools shim.

This file is the only packaging file and carries no metadata: a bare
``setup()`` lets setuptools' automatic discovery find the ``repro``
package under ``src/``, so ``pip install -e .`` (add
``--no-use-pep517 --no-build-isolation`` on offline environments that
lack ``wheel``) or ``python setup.py develop`` installs it under the
placeholder distribution name ``UNKNOWN``.  The tests, examples and
benchmarks do not need an install; they run with ``PYTHONPATH=src``.
"""

from setuptools import setup

setup()
