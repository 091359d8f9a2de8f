"""Package metadata.  A plain ``setup.py`` (no ``pyproject.toml``) so that
``pip install -e .`` works with setuptools alone, without the ``wheel``
package.  scipy is needed only by the EmptyHeaded GHD baseline's LP."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Optimizing Subgraph Queries by Combining Binary and "
        "Worst-Case Optimal Joins' (Mhedhbi & Salihoglu, VLDB 2019)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy>=1.21", "scipy>=1.7"],
)
