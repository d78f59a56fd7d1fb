import numpy as np
from setuptools import Extension, setup

try:
    from Cython.Build import cythonize
except ImportError:
    cythonize = None

extensions = [
    Extension(
        "bimine._nwcore",
        ["src/bimine/_nwcore.pyx"],
        include_dirs=[np.get_include()],
        extra_compile_args=["-O3"],
    )
]

setup(
    ext_modules=cythonize(
        extensions,
        compiler_directives={"language_level": "3"},
    )
    if cythonize is not None
    else [],
)
