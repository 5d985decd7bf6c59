"""Setup shim: legacy editable installs plus the optional compiled kernel.

``pip install -e . --no-build-isolation`` in this offline environment falls
back to ``setup.py develop``, which this file enables.

The compiled kernel tier (``repro._ckernel``, see DESIGN.md §10) is declared
as an *optional* extension: ``python setup.py build_ext --inplace`` (or the
friendlier ``python tools/build_kernel.py``) compiles it in place, and a
missing or failing C toolchain must never break a plain install — the pure
tier is always sufficient, so build errors for the extension are reported
but not fatal.
"""

import hashlib
import os

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext

SOURCE = "src/repro/_ckernelmodule.c"


def source_sha256() -> str:
    """sha256 of the C source, compiled into the module as SOURCE_SHA256."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), SOURCE)
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class optional_build_ext(build_ext):
    """build_ext that degrades to a warning when no compiler is available."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # no toolchain at all
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # compile/link failure
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        import sys

        print(
            f"warning: optional extension repro._ckernel not built ({exc}); "
            "the pure-Python kernel tier will be used",
            file=sys.stderr,
        )


setup(
    package_dir={"": "src"},
    packages=["repro"],
    install_requires=["numpy"],
    ext_modules=[
        Extension(
            "repro._ckernel",
            sources=[SOURCE],
            # repro.kernel refuses a build whose digest differs from the
            # source it sits next to (DESIGN.md §10).
            define_macros=[("CKERNEL_SOURCE_SHA256", f'"{source_sha256()}"')],
            # -g0 drops the -g inherited from Python's CFLAGS: a faster
            # compile, and the same machine code.
            extra_compile_args=["-O2", "-g0"],
            optional=True,
        )
    ],
    cmdclass={"build_ext": optional_build_ext},
)
