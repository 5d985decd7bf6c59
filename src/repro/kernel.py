"""Kernel tier selection: pure-Python vs the optional compiled extension.

The simulation kernel ships in two interchangeable implementations:

* the **pure** tier — the ordinary Python modules (``repro.sim.engine``,
  ``repro.interconnect.switch``, ``repro.safetynet.log``), always present;
* the **compiled** tier — ``repro._ckernel``, a hand-written CPython
  extension that reimplements the event queue, the fused dispatch loop, the
  switch scan/forward hot path and the undo-record append path in C
  (``_ckernelmodule.c``), and the protocol hot paths (``_ckernel_protocol.c``;
  ``_ckernel.h`` holds what the two files share).

The two tiers are **byte-identical**: every dispatch decision is a pure
function of the ``(time, priority, seq)`` ordering keys and every counter is
maintained with the same lazy-creation semantics, so reports, golden digests
and content hashes never depend on which tier executed a run.  The parity is
gated by ``tests/test_kernel_tier.py`` (fig4 ``--quick --json`` byte-compat,
golden workload digests, a randomized design-point sweep).

Selection
---------
``REPRO_KERNEL`` picks the tier per process:

* ``auto`` (default) — use the compiled tier when the extension imports,
  silently fall back to pure otherwise.  Building the extension
  (``python tools/build_kernel.py``) is the opt-in act; nothing in the
  repository requires a C toolchain.
* ``pure`` — force the pure tier even when the extension is available.
* ``compiled`` — require the compiled tier; raise with build instructions
  when the extension is missing (used by the CI compiled-tier job so a
  broken build can never silently regress to measuring pure Python).

A *stale* build — one whose compiled-in ``SOURCE_SHA256`` differs from the
:func:`source_digest` of the C sources next to this file — counts as
missing: its cores no longer match the Python classes they bind, so ``auto``
falls back to pure with a warning and ``compiled`` raises.

:func:`set_kernel_tier` overrides the environment for the current process
(the ``--kernel-tier`` runner flag and the benchmark ``--tier`` axis use
it).  Selection is consulted at *system construction time*, not at import
time, so one process can run both tiers back to back — which is exactly how
the parity tests compare them.
"""

from __future__ import annotations

import glob
import hashlib
import os
import warnings
from typing import Any, Dict, Optional

#: Environment variable that selects the kernel tier for the process.
ENV_VAR = "REPRO_KERNEL"

#: Recognised tier requests.
TIERS = ("auto", "pure", "compiled")

_UNSET = object()

#: Cached import of :mod:`repro._ckernel` (``_UNSET`` until first probed,
#: then the module or ``None``).
_compiled_module: Any = _UNSET

#: Why an importable extension was refused as stale (``None`` otherwise).
_stale_reason: Optional[str] = None

#: Process-level override installed by :func:`set_kernel_tier`.
_override: Optional[str] = None


class KernelTierError(RuntimeError):
    """Raised when ``REPRO_KERNEL=compiled`` but the extension is missing
    or stale."""


def _validate(tier: str) -> str:
    tier = tier.strip().lower()
    if tier not in TIERS:
        raise ValueError(
            f"unknown kernel tier {tier!r}; expected one of {', '.join(TIERS)}")
    return tier


def source_digest(directory: Optional[str] = None) -> Optional[str]:
    """Digest of the compiled tier's C sources: every ``_ckernel*.c`` and
    ``_ckernel*.h`` in ``directory`` (default: next to this file).

    Each file contributes its name and the sha256 of its bytes, in sorted
    name order.  ``setup.py`` compiles the same digest into the extension as
    ``SOURCE_SHA256``.  ``None`` when no source is there (an install
    without its C sources).
    """
    directory = directory or os.path.dirname(os.path.abspath(__file__))
    paths = sorted(glob.glob(os.path.join(directory, "_ckernel*.[ch]")))
    if not paths:
        return None
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            body = handle.read()
        digest.update(os.path.basename(path).encode() + b"\0")
        digest.update(hashlib.sha256(body).digest())
    return digest.hexdigest()


def stale_build_reason(module: Any) -> Optional[str]:
    """Why ``module`` was not built from the C sources next to this file,
    or ``None`` when it was (or no source is there to check)."""
    digest = source_digest()
    if digest is None or getattr(module, "SOURCE_SHA256", None) == digest:
        return None
    return (f"the repro._ckernel extension at {module.__file__} was built "
            "from other _ckernel C sources (stale build)")


def compiled_module() -> Optional[Any]:
    """The ``repro._ckernel`` extension module, or ``None`` if it is not
    built or is stale."""
    global _compiled_module, _stale_reason
    if _compiled_module is _UNSET:
        try:
            from repro import _ckernel  # type: ignore[attr-defined]
        except ImportError:
            _compiled_module = None
        else:
            _stale_reason = stale_build_reason(_ckernel)
            _compiled_module = _ckernel if _stale_reason is None else None
    return _compiled_module


def compiled_available() -> bool:
    """Whether the compiled extension can be imported in this process."""
    return compiled_module() is not None


def requested_tier() -> str:
    """The tier asked for: the override if set, else ``REPRO_KERNEL``."""
    if _override is not None:
        return _override
    return _validate(os.environ.get(ENV_VAR, "auto") or "auto")


def set_kernel_tier(tier: Optional[str]) -> None:
    """Override the environment selection (``None`` restores it).

    Takes effect for systems/simulators built *after* the call; already
    -constructed simulators keep the implementation they were built with.
    """
    global _override
    _override = None if tier is None else _validate(tier)


def active_tier() -> str:
    """Resolve the request to the tier that will actually execute.

    Returns ``"pure"`` or ``"compiled"``.  ``auto`` degrades silently
    (with a warning for a stale build); an explicit ``compiled`` request
    raises :class:`KernelTierError` when the extension is absent or stale.
    """
    requested = requested_tier()
    if requested == "pure":
        return "pure"
    if compiled_available():
        return "compiled"
    if requested == "compiled":
        reason = _stale_reason or (
            "the repro._ckernel extension is not built for this interpreter")
        raise KernelTierError(
            f"REPRO_KERNEL=compiled but {reason}; run `python "
            "tools/build_kernel.py` (requires a C compiler) or select the "
            "pure tier")
    if _stale_reason is not None:
        warnings.warn(f"{_stale_reason}; using the pure tier until `python "
                      "tools/build_kernel.py` rebuilds it", RuntimeWarning,
                      stacklevel=2)
    return "pure"


def engine_impl() -> Optional[Any]:
    """The compiled engine namespace for new simulators, or ``None`` (pure)."""
    return compiled_module() if active_tier() == "compiled" else None


def new_simulator() -> Any:
    """Construct a simulator on the currently selected tier.

    This is the single seam through which the tier choice reaches the
    simulation: everything else (events, the queue, static scan events)
    hangs off the simulator the system was built with.
    """
    impl = engine_impl()
    if impl is not None:
        return impl.Simulator()
    from repro.sim.engine import Simulator
    return Simulator()


def compiler_tag() -> Optional[str]:
    """Identifying string of the compiler that built the extension."""
    module = compiled_module()
    return getattr(module, "COMPILER", None) if module is not None else None


def kernel_info() -> Dict[str, Any]:
    """Tier provenance for benchmark documents and diagnostics."""
    info: Dict[str, Any] = {
        "requested": requested_tier(),
        "compiled_available": compiled_available(),
    }
    # Resolve without raising so diagnostics work on broken setups too.
    try:
        info["tier"] = active_tier()
    except KernelTierError:
        info["tier"] = "unavailable"
    compiler = compiler_tag()
    if compiler is not None:
        info["compiler"] = compiler
    return info
