"""Build script for the optional compiled peeling kernel.

The package is pure Python apart from ``scaling_lens._peel``, a Cython
translation of the peeling inner loop.  If Cython or a C compiler is
unavailable the extension is skipped and the package falls back to the
numpy kernel at import time.
"""

import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """Build the extension if possible, warn and continue otherwise."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing, etc.
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        print(
            f"WARNING: building scaling_lens._peel failed ({exc}); "
            "falling back to the numpy peeling kernel",
            file=sys.stderr,
        )


def extensions():
    try:
        from Cython.Build import cythonize
    except ImportError:
        print(
            "WARNING: Cython not available; skipping compiled peeling kernel",
            file=sys.stderr,
        )
        return []
    return cythonize(
        [Extension("scaling_lens._peel", ["src/scaling_lens/_peel.pyx"])],
        language_level=3,
    )


setup(
    ext_modules=extensions(),
    cmdclass={"build_ext": optional_build_ext},
)
