"""The workload registry.

Mirrors the experiment registry (:mod:`repro.campaign.registry`) and the
topology registry (:mod:`repro.interconnect.topology`): a *workload family* is
registered under a stable string name and looked up by
:class:`repro.sim.config.WorkloadConfig` validation and by
:meth:`repro.system.base.System.load_workload` when a built system installs
its reference streams.

A family (:class:`WorkloadFamily`) is a parameterized scenario generator:
it owns a catalogue entry (name, description, order), a set of named
parameters with defaults, and a ``build`` hook that turns
``(num_processors, block_bytes, seed, params)`` into a stream generator
obeying the v2 chunked-substream schema of
:class:`repro.workloads.base.SyntheticWorkload` (deterministic, vectorized,
golden-digest pinned).  The five paper profiles are registered through one
``profile`` family implementation (five instances, figure order preserved);
the parameterized scenario families live in
:mod:`repro.workloads.families`.

==================  ===========================================  ======
registry name       scenario                                     order
==================  ===========================================  ======
``jbb``             SPECjbb2000 analogue (Table 3)               10
``apache``          Apache/SURGE analogue (Table 3)              20
``slashcode``       Slashcode analogue (Table 3)                 30
``oltp``            TPC-C/DB2 analogue (Table 3)                 40
``barnes``          SPLASH-2 barnes-hut analogue (Table 3)       50
``hotspot``         N-block write storm with arrival bursts      60
``producer_consumer``  ring/pipeline handoff across nodes        70
``phased``          alternating compute/communicate epochs       80
``scaled``          paper profiles re-derived from node count    90
``mixed``           heterogeneous per-node family assignment     100
==================  ===========================================  ======
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, ClassVar, Dict, List, Mapping, Optional

from repro.sim.config import DEFAULT_BLOCK_BYTES, DEFAULT_WORKLOAD_SEED


class WorkloadFamily(ABC):
    """One registered scenario family.

    Subclasses set the class attributes, declare their parameter surface in
    ``defaults`` (every accepted parameter name with its default value) and
    implement :meth:`build`.  Parameter validation is shared: unknown keys
    are rejected here so a typo'd campaign axis fails at configuration
    time, and value checks go in :meth:`check_params`.
    """

    #: Stable registry name (the ``WorkloadConfig.name`` vocabulary).
    name: ClassVar[str]
    #: One-line catalogue entry (the Table 3 description column).
    description: ClassVar[str] = ""
    #: Catalogue position; the five paper profiles keep figure order.
    order: ClassVar[int] = 1000
    #: True for the paper's Table 3 suite (the figure experiments' default).
    paper: ClassVar[bool] = False
    #: Accepted parameters and their defaults (empty = not parameterized).
    defaults: ClassVar[Mapping[str, Any]] = {}

    # ------------------------------------------------------------- parameters
    def validate_params(self, params: Optional[Mapping[str, Any]]
                        ) -> Dict[str, Any]:
        """Merge ``params`` over the defaults, rejecting unknown keys."""
        merged = dict(self.defaults)
        if params:
            unknown = sorted(set(params) - set(self.defaults))
            if unknown:
                accepted = ", ".join(sorted(self.defaults)) or "<none>"
                raise ValueError(
                    f"workload {self.name!r} does not accept parameter(s) "
                    f"{unknown}; accepted: {accepted}")
            merged.update(params)
        self.check_params(merged)
        return merged

    def check_params(self, params: Dict[str, Any]) -> None:
        """Value-level validation hook (raise ``ValueError`` on bad values)."""

    # ------------------------------------------------------------------ build
    @abstractmethod
    def build(self, *, num_processors: int, block_bytes: int, seed: int,
              params: Dict[str, Any]):
        """Construct the stream generator for one run.

        ``params`` arrives merged and validated.  The returned object must
        expose the :class:`repro.workloads.base.SyntheticWorkload` surface:
        ``generate(node, n)``, ``generate_all(n)``, ``footprint_blocks`` and
        ``summary()`` — and generate through the v2 chunked-substream
        schema so streams are deterministic and vectorized.
        """


_REGISTRY: Dict[str, WorkloadFamily] = {}


def register_workload(family) -> Any:
    """Register a :class:`WorkloadFamily` (class decorator or instance call).

    As a decorator the class is instantiated once; calling it with an
    already-built instance registers that instance (how the ``profile``
    family registers the five paper workloads).  Registering a name twice
    is an error.
    """
    instance = family() if isinstance(family, type) else family
    if instance.name in _REGISTRY:
        raise ValueError(f"workload {instance.name!r} registered twice")
    _REGISTRY[instance.name] = instance
    return family


def _discover() -> None:
    # Import for the side effect of running the registrations on first use
    # (same lazy pattern as the topology and speculation registries).
    import repro.workloads.families  # noqa: F401


def get_family(name: str) -> WorkloadFamily:
    """Look up a registered workload family by name."""
    _discover()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(workload_names()) or "<none registered>"
        raise KeyError(f"unknown workload {name!r}; known: {known}") from None


def workload_names() -> List[str]:
    """Every registered workload name, in catalogue (figure-first) order."""
    _discover()
    return [f.name for f in sorted(_REGISTRY.values(),
                                   key=lambda f: (f.order, f.name))]


def paper_workload_names() -> List[str]:
    """The paper's Table 3 suite, in the order the figures plot them."""
    _discover()
    return [name for name in workload_names() if _REGISTRY[name].paper]


def validate_workload(name: str, params: Optional[Mapping[str, Any]] = None
                      ) -> None:
    """Fail fast on an unknown name or bad params (``ValueError`` both ways).

    :class:`repro.sim.config.WorkloadConfig` calls this at construction
    time, so a bad workload axis dies when the design point is *declared* —
    before any simulation starts.
    """
    _discover()
    if name not in _REGISTRY:
        known = ", ".join(workload_names()) or "<none registered>"
        raise ValueError(f"unknown workload {name!r}; registered: {known}")
    _REGISTRY[name].validate_params(params)


def make_workload(name: str, *, num_processors: int,
                  block_bytes: int = DEFAULT_BLOCK_BYTES,
                  seed: int = DEFAULT_WORKLOAD_SEED,
                  params: Optional[Mapping[str, Any]] = None):
    """Instantiate a named workload generator through the registry.

    The ``block_bytes``/``seed`` defaults are the shared
    :data:`~repro.sim.config.DEFAULT_BLOCK_BYTES` /
    :data:`~repro.sim.config.DEFAULT_WORKLOAD_SEED` constants — the same
    source of truth :class:`~repro.sim.config.WorkloadConfig` uses, so the
    two entry points cannot drift.
    """
    family = get_family(name)
    merged = family.validate_params(params)
    return family.build(num_processors=num_processors,
                        block_bytes=block_bytes, seed=seed, params=merged)


def table3_rows() -> Dict[str, str]:
    """Table 3 analogue: one descriptive row per registered workload."""
    _discover()
    return {name: _REGISTRY[name].description for name in workload_names()}
