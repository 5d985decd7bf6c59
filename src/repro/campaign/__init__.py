"""Registry-driven experiment campaigns.

The campaign layer turns the paper's evaluation grid into data plus three
orthogonal pieces:

* :mod:`repro.campaign.spec` — :class:`RunSpec`/:class:`SweepSpec` name a
  design point (configuration + label + injector knobs) with a stable
  content hash;
* :mod:`repro.campaign.registry` — ``@register_experiment`` collects every
  driver in :mod:`repro.experiments` for the runner to discover;
* :mod:`repro.campaign.executor` — serial and process-parallel executors
  with optional on-disk result caching, through which every simulated run
  funnels (sharded execution over a shared store is
  :mod:`repro.campaign.sharding`).

See EXPERIMENTS.md for the user-facing tour and DESIGN.md §4 for the
architecture rationale.
"""

from repro.campaign.executor import (
    Executor,
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
    execute_spec,
    execute_spec_timed,
    make_executor,
    reset_perf_counters,
)
from repro.campaign.manifest import (
    CampaignManifest,
    read_manifest,
    write_manifest,
)
from repro.campaign.precompute import (
    clear_memos,
    memo_stats,
)
from repro.campaign.registry import (
    CampaignContext,
    ExperimentEntry,
    all_experiments,
    discover,
    experiment_names,
    get_experiment,
    register_experiment,
)
from repro.campaign.spec import (
    RunSpec,
    SweepSpec,
    canonical_json,
    config_from_dict,
    config_to_dict,
    spec_from_json,
)

#: Sharding exports resolved lazily (PEP 562): ``python -m
#: repro.campaign.sharding`` first imports this package, and an eager
#: import of the very module runpy is about to execute would trigger its
#: double-import warning on every worker CLI invocation.
_SHARDING_EXPORTS = frozenset({
    "LeaseBoard",
    "ShardedExecutor",
    "aggregate_partial",
    "campaign_status",
    "run_worker",
    "worker_summaries",
})


def __getattr__(name):
    if name in _SHARDING_EXPORTS:
        from repro.campaign import sharding

        return getattr(sharding, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CampaignContext",
    "CampaignManifest",
    "ExperimentEntry",
    "Executor",
    "LeaseBoard",
    "ParallelExecutor",
    "ResultCache",
    "RunSpec",
    "SerialExecutor",
    "ShardedExecutor",
    "SweepSpec",
    "aggregate_partial",
    "all_experiments",
    "campaign_status",
    "canonical_json",
    "clear_memos",
    "config_from_dict",
    "config_to_dict",
    "discover",
    "execute_spec",
    "execute_spec_timed",
    "experiment_names",
    "get_experiment",
    "make_executor",
    "memo_stats",
    "read_manifest",
    "register_experiment",
    "reset_perf_counters",
    "run_worker",
    "spec_from_json",
    "worker_summaries",
    "write_manifest",
]
