from setuptools import find_packages, setup

setup(
    name="repro-coopt-chemistry",
    version="1.1.0",
    description=(
        "Reproduction of 'Software-Hardware Co-Optimization for "
        "Computational Chemistry on Superconducting Quantum Processors' "
        "(ISCA 2021): ansatz compression, X-Tree architectures, and "
        "Merge-to-Root compilation behind a composable Pipeline API"
    ),
    long_description=open("README.md").read(),
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    # PEP 561: ship inline annotations to downstream type checkers.
    package_data={"repro": ["py.typed"]},
    # 3.11 matches CI and the ruff target-version; numpy>=2.0 is required
    # for np.bitwise_count (repro.core.bits.popcount is the single place
    # that dependency lives -- it carries a SWAR fallback, but the
    # supported configuration is NumPy 2.x).
    python_requires=">=3.11",
    install_requires=[
        "numpy>=2.0",
        "scipy",
    ],
    extras_require={
        "test": ["pytest", "pytest-benchmark"],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.11",
        "Topic :: Scientific/Engineering :: Physics",
    ],
)
