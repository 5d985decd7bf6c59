#!/usr/bin/env python3
"""Build the optional compiled kernel tier (``repro._ckernel``) in place.

The extension is hand-written C in two files, ``src/repro/_ckernelmodule.c``
(event engine, switch core, undo log) and ``src/repro/_ckernel_protocol.c``
(protocol cores), which share ``src/repro/_ckernel.h``.  It needs nothing
beyond a C compiler and the CPython headers; ``setup.py`` compiles the two
files side by side.  Building it is the opt-in act for the compiled tier:
once the ``.so`` sits next to the package, ``REPRO_KERNEL=auto`` (the
default) picks it up; removing the ``.so`` (``--clean``) restores the pure
tier.  Nothing in the repository requires this script to succeed — every
code path falls back to pure Python.

Usage::

    python tools/build_kernel.py            # compile in place
    python tools/build_kernel.py --clean    # remove built artifacts
    python tools/build_kernel.py --verify   # build, then import + report

Equivalent to ``python setup.py build_ext --inplace``, but with a clearer
failure story: exit code 2 and a one-line reason when the current sources
did not compile (no compiler, a compile error, or only an older build in
place), so CI and humans can tell "broken build" from "built".
"""

from __future__ import annotations

import argparse
import glob
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Run in a fresh interpreter: exits non-zero unless ``repro._ckernel``
#: imports from the package under test and carries the digest of the C
#: sources next to it.
_FRESH_BUILD_CHECK = """\
import os, sys
from repro import kernel
package = os.path.dirname(os.path.abspath(kernel.__file__))
if package != sys.argv[1]:
    sys.exit(f"repro imported from {package}, not {sys.argv[1]}")
from repro import _ckernel
sys.exit(kernel.stale_build_reason(_ckernel))
"""


def _package_dir(root: str) -> str:
    return os.path.join(root, "src", "repro")


def _artifacts(root: str = REPO_ROOT) -> list:
    return sorted(glob.glob(os.path.join(_package_dir(root), "_ckernel*.so")))


def _fresh_interpreter(root: str, arguments: list) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(root, "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *arguments], env=env,
                          cwd=root).returncode


def clean(root: str = REPO_ROOT) -> int:
    removed = 0
    for path in _artifacts(root):
        os.remove(path)
        print(f"removed {os.path.relpath(path, root)}")
        removed += 1
    build_dir = os.path.join(root, "build")
    if os.path.isdir(build_dir):
        import shutil

        shutil.rmtree(build_dir)
        print("removed build/")
    if not removed:
        print("nothing to clean")
    return 0


def build(root: str = REPO_ROOT) -> int:
    if not glob.glob(os.path.join(_package_dir(root), "_ckernel*.c")):
        print(f"error: no _ckernel*.c source in {_package_dir(root)}",
              file=sys.stderr)
        return 1
    # Run setup.py build_ext --inplace in a subprocess so a failed build
    # cannot leave half-initialised distutils state in this interpreter.
    cmd = [sys.executable, "setup.py", "build_ext", "--inplace"]
    proc = subprocess.run(cmd, cwd=root)
    built = _artifacts(root)
    # setup.py turns a compile error into a warning and exits 0, leaving any
    # older build in place; only a build of the current sources counts.
    if (proc.returncode != 0 or not built or _fresh_interpreter(
            root, ["-c", _FRESH_BUILD_CHECK, _package_dir(root)]) != 0):
        print(
            "build failed: the current C sources did not compile into an "
            "importable extension — the compiled tier is optional; the pure "
            "tier keeps working (REPRO_KERNEL=auto falls back)",
            file=sys.stderr,
        )
        return 2
    for path in built:
        print(f"built {os.path.relpath(path, root)}")
    return 0


def verify(root: str = REPO_ROOT) -> int:
    # Import in a fresh interpreter so a stale in-process module cannot mask
    # a broken build.
    code = (
        "from repro import kernel\n"
        "info = kernel.kernel_info()\n"
        "assert info['compiled_available'], info\n"
        "print('kernel tier:', info['tier'], '|', info.get('compiler'))\n"
    )
    return _fresh_interpreter(root, ["-c", code])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clean", action="store_true",
                        help="remove built extension artifacts")
    parser.add_argument("--verify", action="store_true",
                        help="after building, import the extension and "
                             "report the active tier")
    args = parser.parse_args(argv)
    if args.clean:
        return clean()
    rc = build()
    if rc == 0 and args.verify:
        rc = verify()
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
