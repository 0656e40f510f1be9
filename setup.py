"""Legacy setup shim so `pip install -e .` works without the wheel package."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'A World Wide View of Browsing the World Wide Web' "
        "(IMC 2022): synthetic Chrome-telemetry substrate plus the paper's "
        "full analysis pipeline."
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.23"],
    extras_require={
        "dev": ["pytest>=7", "pytest-benchmark>=4", "hypothesis>=6", "scipy>=1.9"],
    },
)
