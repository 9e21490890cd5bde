"""Setup shim: environments without the `wheel` package cannot do PEP 660
editable installs with this old setuptools; `python setup.py develop` and
`pip install -e .` both route through here."""
from setuptools import setup, find_packages

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
    # networkx is only needed by WeightedGraph.to_networkx, which the tests
    # use as an independent reference.
    extras_require={"test": ["networkx", "pytest", "hypothesis"]},
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
