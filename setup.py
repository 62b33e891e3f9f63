"""Setuptools entry point: the ``repro`` package and the ``repro-dtm`` command.

``python setup.py develop`` installs both in place without network
access. ``pip install -e .`` works too where the ``wheel`` package is
installed.
"""

from setuptools import find_packages, setup

setup(
    name="repro-dtm",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
    entry_points={"console_scripts": ["repro-dtm = repro.cli:main"]},
)
