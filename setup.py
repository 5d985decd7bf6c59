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

import os
import runpy
from concurrent.futures import ThreadPoolExecutor

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext

ROOT = os.path.dirname(os.path.abspath(__file__))
PACKAGE_DIR = "src/repro"
#: The extension's two translation units and the header they share
#: (DESIGN.md §10 and §12).
SOURCES = [f"{PACKAGE_DIR}/_ckernelmodule.c", f"{PACKAGE_DIR}/_ckernel_protocol.c"]
HEADER = f"{PACKAGE_DIR}/_ckernel.h"


def source_sha256() -> str:
    """Digest of the C sources, compiled into the module as SOURCE_SHA256.

    It is ``repro.kernel.source_digest``, the rule that refuses a stale
    build, run from its file: ``kernel.py`` needs only the standard
    library, so this works before the package is importable.
    """
    kernel = runpy.run_path(os.path.join(ROOT, PACKAGE_DIR, "kernel.py"))
    return kernel["source_digest"](os.path.join(ROOT, PACKAGE_DIR))


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


class optional_build_ext(build_ext):
    """build_ext that compiles an extension's sources in parallel and
    degrades to a warning when no compiler is available."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # no toolchain at all
            self._warn(exc)

    def build_extension(self, ext):
        # One source per thread, at most one thread per usable CPU; the
        # compiler processes run side by side and setuptools links as usual.
        compile_sources = self.compiler.compile

        def compile_parallel(sources, *args, **kwargs):
            workers = min(len(sources), usable_cpus())
            with ThreadPoolExecutor(max_workers=workers) as pool:
                batches = pool.map(
                    lambda source: compile_sources([source], *args, **kwargs),
                    sources)
                return [obj for objects in batches for obj in objects]

        self.compiler.compile = compile_parallel
        try:
            super().build_extension(ext)
        except Exception as exc:  # compile/link failure, in either thread
            self._warn(exc)
        finally:
            del self.compiler.compile

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
            sources=SOURCES,
            # A header edit rebuilds the extension too.
            depends=[HEADER],
            # repro.kernel refuses a build whose digest differs from the
            # sources it sits next to (DESIGN.md §10).
            define_macros=[("CKERNEL_SOURCE_SHA256", f'"{source_sha256()}"')],
            # -O1 compiles in about two thirds of -O2's time, and compiled
            # legs ran as fast at -O1 as at -O2 (gcc 12.2, 2 vCPUs; DESIGN.md
            # §10 has the measurement).  -g0 drops the -g inherited from
            # Python's CFLAGS: a faster compile, and the same machine code.
            extra_compile_args=["-O1", "-g0"],
            optional=True,
        )
    ],
    cmdclass={"build_ext": optional_build_ext},
)
