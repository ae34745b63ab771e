from setuptools import find_packages, setup

setup(
    name="repro-aggregate-equivalence",
    version="0.7.0",
    description=(
        "Deciding equivalence of aggregate queries (PODS'01): decision "
        "procedures, view rewriting, and a three-tier evaluation engine"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    # PEP 561: the package ships inline type hints; py.typed marks them as
    # consumable by downstream type checkers.
    package_data={"repro": ["py.typed"]},
    python_requires=">=3.11",
    # The core is dependency-free by design: the decision procedures, the
    # naive reference engine, and the compiled engine's pure-python loop
    # kernels run on the standard library alone.
    install_requires=[],
    extras_require={
        # Enables the vectorized searchsorted join path of
        # repro.engine.columnar for large relations; everything falls back to
        # the loop kernels when NumPy is absent (or REPRO_NO_NUMPY=1).
        "numpy": ["numpy"],
        "test": ["pytest", "hypothesis"],
    },
)
