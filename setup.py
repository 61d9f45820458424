"""Setuptools packaging.

This environment has no network access and no ``wheel`` package, so
PEP 660 editable installs (``pip install -e .``) may fall back to the
legacy path; ``python setup.py develop`` installs the package in
editable mode using only setuptools.  Metadata is declared here (there
is intentionally no pyproject.toml so the legacy path keeps working
offline).
"""

import os
import re

from setuptools import find_packages, setup

HERE = os.path.dirname(os.path.abspath(__file__))


def _read(name: str) -> str:
    path = os.path.join(HERE, name)
    if not os.path.exists(path):
        return ""
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _version() -> str:
    source = _read(os.path.join("src", "repro", "__init__.py"))
    match = re.search(r'__version__ = "([^"]+)"', source)
    return match.group(1) if match else "0.0.0"


setup(
    name="repro-xai-nfv",
    version=_version(),
    description=(
        "Explainable AI for Network Function Virtualization: SHAP-family "
        "and LIME explainers, a telemetry simulator, and an NFV diagnosis "
        "pipeline, reproduced from scratch"
    ),
    long_description=_read("README.md"),
    long_description_content_type="text/markdown",
    python_requires=">=3.10",
    packages=find_packages("src"),
    package_dir={"": "src"},
    install_requires=["numpy>=1.22"],
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
    classifiers=[
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Scientific/Engineering :: Artificial Intelligence",
        "Topic :: System :: Networking",
    ],
)
