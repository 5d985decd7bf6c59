"""Sharded, crash-safe, resumable campaign execution over a shared store.

The campaign store is a plain directory any number of worker processes — on
any host that can see it — cooperate through.  There is no coordinator
protocol and no network channel: every piece of shared state is a file with
atomic create/rename semantics, which is what makes the execution model
crash-safe by construction.

Store layout (rooted at the existing content-addressed result cache)::

    <store>/<spec_hash>.json       completed results (ResultCache envelopes)
    <store>/manifests/<campaign>.json   the campaign manifests (durable input)
    <store>/leases/<spec_hash>.lease    in-flight claims (one per design point)
    <store>/partial/<campaign>.json     incremental aggregation (progress)
    <store>/workers/<campaign>.<worker>.json   per-worker execution summaries

Execution model:

1. The submitting process writes the :class:`~repro.campaign.manifest
   .CampaignManifest` atomically *before any work starts* — the campaign
   exists on disk from that point on, independent of any process.
2. Workers scan the manifest in order and *claim* incomplete design points
   by atomically creating ``leases/<spec_hash>.lease`` (hard-link of a
   fully written temp file, so a claim is all-or-nothing even on NFS).  A
   claimed spec runs through the ordinary :func:`execute_spec` machinery
   and its result is published to the content-addressed cache with the
   cache's atomic tmp+rename write; then the lease is released.
3. A worker heartbeats its held leases (mtime refresh) from a background
   thread.  If a worker dies — including ``SIGKILL`` mid-spec — its lease
   mtime freezes; once it is older than ``stale_after`` any other worker
   *reclaims* it (atomic rename of the stale lease to a per-worker
   tombstone: exactly one renamer wins) and re-runs the spec.  Nothing a
   killed worker did needs undoing: unpublished work is invisible, and the
   published results are content-addressed and idempotent.
4. Completion is "every manifest spec has a valid cache entry".  Because
   every system draws its ids from its own counters, results are
   independent of which worker ran what and in which order — sharded
   execution is byte-identical to serial (the determinism contract,
   pinned by test).

Resumption is the same operation as submission: re-submitting an identical
batch finds the existing manifest, the cache lookup skips everything
already completed, and workers only claim what is missing.  ``campaign
status`` (the runner's ``--status`` flag) reads the store without touching
simulation code at all.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import time
from typing import Any, Dict, List, Optional, Sequence, Set, Union

from repro.campaign.executor import (
    Executor,
    ResultCache,
    execute_spec_timed,
)
from repro.campaign.manifest import (
    CampaignManifest,
    atomic_write_json,
    list_manifests,
    read_manifest,
    write_manifest,
)
from repro.campaign.spec import RunSpec, SweepSpec
from repro.system.results import RunResult

#: Schema tag of the incremental partial-report document.
PARTIAL_SCHEMA = "repro.campaign.partial/v1"

#: Seconds without a heartbeat after which a lease counts as abandoned.
#: Heartbeats run at a tenth of this by default, so a live worker's lease
#: is always an order of magnitude fresher than the reclamation threshold.
DEFAULT_STALE_AFTER = 60.0

LEASE_DIR = "leases"
PARTIAL_DIR = "partial"
WORKER_DIR = "workers"


# --------------------------------------------------------------------- leases
class LeaseBoard:
    """Atomic file-based claims over design points in a shared store.

    A lease is a file whose *existence* is the claim and whose *mtime* is
    the heartbeat.  Claims are made by hard-linking a fully written temp
    file into place (``os.link`` fails with ``FileExistsError`` when the
    spec is already claimed) — the create-rename idiom that is atomic on
    POSIX filesystems including NFS.  Reclamation renames the stale lease
    to a per-worker tombstone first; ``os.replace`` hands the file to
    exactly one of any number of concurrent reclaimers, so a stale spec is
    re-claimed exactly once.
    """

    def __init__(self, store_root: str, worker_id: str, *,
                 stale_after: float = DEFAULT_STALE_AFTER) -> None:
        if stale_after <= 0:
            raise ValueError("stale_after must be positive")
        self.root = os.path.join(store_root, LEASE_DIR)
        self.worker_id = worker_id
        self.stale_after = stale_after
        os.makedirs(self.root, exist_ok=True)
        #: Lease paths this worker currently holds (heartbeat targets).
        self.held: Set[str] = set()

    def lease_path(self, spec_hash: str) -> str:
        return os.path.join(self.root, spec_hash + ".lease")

    def claim(self, spec_hash: str) -> bool:
        """Atomically claim one design point; False when already claimed."""
        lease = self.lease_path(spec_hash)
        tmp = os.path.join(self.root,
                           f".claim.{self.worker_id}.{spec_hash}.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump({"worker": self.worker_id, "spec_hash": spec_hash,
                       "claimed_epoch": time.time()}, handle)
        try:
            os.link(tmp, lease)
        except FileExistsError:
            return False
        finally:
            os.unlink(tmp)
        self.held.add(lease)
        return True

    def release(self, spec_hash: str) -> None:
        lease = self.lease_path(spec_hash)
        self.held.discard(lease)
        try:
            os.unlink(lease)
        except FileNotFoundError:
            pass  # reclaimed from under us; harmless, results are idempotent

    def refresh(self) -> None:
        """Heartbeat: bump the mtime of every held lease."""
        for lease in tuple(self.held):
            try:
                os.utime(lease)
            except FileNotFoundError:
                self.held.discard(lease)

    def holder(self, spec_hash: str) -> Optional[str]:
        """The claiming worker id, or None when the spec is unclaimed."""
        try:
            with open(self.lease_path(spec_hash), "r",
                      encoding="utf-8") as handle:
                return json.load(handle).get("worker")
        except (OSError, ValueError):
            return None

    def age(self, spec_hash: str) -> Optional[float]:
        """Seconds since the lease's last heartbeat; None when unclaimed."""
        try:
            return time.time() - os.stat(self.lease_path(spec_hash)).st_mtime
        except OSError:
            return None

    def is_claimed(self, spec_hash: str) -> bool:
        return os.path.exists(self.lease_path(spec_hash))

    def is_stale(self, spec_hash: str) -> bool:
        age = self.age(spec_hash)
        return age is not None and age > self.stale_after

    def reclaim(self, spec_hash: str) -> bool:
        """Take over a stale lease; True when this worker now holds it.

        The stale lease is first renamed to a tombstone unique to this
        worker — concurrent reclaimers race on ``os.replace`` and exactly
        one wins (the losers get ``FileNotFoundError``) — then a fresh
        claim is made through the normal path.
        """
        if not self.is_stale(spec_hash):
            return False
        lease = self.lease_path(spec_hash)
        tombstone = lease + f".dead.{self.worker_id}"
        try:
            os.replace(lease, tombstone)
        except FileNotFoundError:
            return False  # another reclaimer (or a release) got there first
        os.unlink(tombstone)
        return self.claim(spec_hash)


class _Heartbeat:
    """Background mtime refresher for a worker's held leases."""

    def __init__(self, board: LeaseBoard, interval: float) -> None:
        import threading

        self.board = board
        self.interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name=f"lease-heartbeat-{board.worker_id}")

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.board.refresh()

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=self.interval + 1.0)


# -------------------------------------------------------------------- workers
def run_worker(store_root: str, campaign_hash: str, worker_id: str, *,
               stale_after: float = DEFAULT_STALE_AFTER,
               heartbeat_interval: Optional[float] = None,
               poll_interval: Optional[float] = None) -> Dict[str, Any]:
    """Claim-and-run design points of one campaign until it is complete.

    The worker is stateless beyond the store: it reads the manifest, runs
    whatever it can claim, publishes results into the content-addressed
    cache and keeps polling (for stale leases to reclaim, for the campaign
    to finish) until every design point has a result.  Returns — and
    crash-safely persists after every completed spec — a summary of what
    this worker did.
    """
    manifest = read_manifest(store_root, campaign_hash)
    if manifest is None:
        raise FileNotFoundError(
            f"no manifest {campaign_hash!r} in store {store_root!r}; "
            "publish it (write_manifest) before starting workers")
    if heartbeat_interval is None:
        heartbeat_interval = max(stale_after / 10.0, 0.05)
    if poll_interval is None:
        poll_interval = min(max(stale_after / 4.0, 0.05), 0.5)
    cache = ResultCache(store_root)
    board = LeaseBoard(store_root, worker_id, stale_after=stale_after)
    summary: Dict[str, Any] = {
        "worker": worker_id, "campaign": campaign_hash, "pid": os.getpid(),
        "executed": [], "reclaimed": 0, "wall_seconds": 0.0,
    }
    summary_path = os.path.join(
        store_root, WORKER_DIR, f"{campaign_hash}.{worker_id}.json")
    os.makedirs(os.path.dirname(summary_path), exist_ok=True)
    entries = list(zip(manifest.spec_hashes(), manifest.specs))
    done: Set[str] = set()

    def completed(spec_hash: str, spec: RunSpec) -> bool:
        if spec_hash in done:
            return True
        if cache.peek(spec):
            done.add(spec_hash)
            return True
        return False

    with _Heartbeat(board, heartbeat_interval):
        while True:
            progressed = False
            pending = [(spec_hash, spec) for spec_hash, spec in entries
                       if not completed(spec_hash, spec)]
            if not pending:
                break
            for spec_hash, spec in pending:
                if completed(spec_hash, spec):
                    continue
                if board.is_claimed(spec_hash):
                    if not board.reclaim(spec_hash):  # stale-checked inside
                        continue
                    summary["reclaimed"] += 1
                elif not board.claim(spec_hash):
                    continue  # lost the race to another worker
                # Claimed.  Re-check the cache: the spec may have completed
                # between the scan and the claim.
                if completed(spec_hash, spec):
                    board.release(spec_hash)
                    continue
                try:
                    result, seconds = execute_spec_timed(spec)
                except BaseException:
                    # Surface the failure (the worker process dies with a
                    # traceback) but free the claim so a code-fixed resume
                    # — or another worker — can retry the spec.
                    board.release(spec_hash)
                    raise
                cache.put(spec, result,
                          meta={"wall_seconds": round(seconds, 6),
                                "worker": worker_id})
                board.release(spec_hash)
                done.add(spec_hash)
                summary["executed"].append(spec_hash)
                summary["wall_seconds"] = round(
                    summary["wall_seconds"] + seconds, 6)
                atomic_write_json(summary_path, summary)
                progressed = True
            if not progressed:
                # Everything pending is claimed by (so far) live workers;
                # wait for results to land or leases to go stale.
                time.sleep(poll_interval)
    atomic_write_json(summary_path, summary)
    return summary


def _worker_entry(store_root: str, campaign_hash: str, worker_prefix: str,
                  stale_after: float) -> None:
    """Spawn target: run one worker process to campaign completion."""
    worker_id = f"{worker_prefix}-{os.getpid()}"
    run_worker(store_root, campaign_hash, worker_id, stale_after=stale_after)


def worker_summaries(store_root: str,
                     campaign_hash: str) -> List[Dict[str, Any]]:
    """Per-worker execution summaries of one campaign, sorted by worker id."""
    root = os.path.join(store_root, WORKER_DIR)
    summaries: List[Dict[str, Any]] = []
    try:
        names = sorted(os.listdir(root))
    except OSError:
        return []
    for filename in names:
        if not (filename.startswith(campaign_hash + ".")
                and filename.endswith(".json")):
            continue
        try:
            with open(os.path.join(root, filename), "r",
                      encoding="utf-8") as handle:
                summaries.append(json.load(handle))
        except (OSError, ValueError):
            continue
    return summaries


# ------------------------------------------------- incremental aggregation
def aggregate_partial(store_root: str,
                      manifest_doc: Dict[str, Any]) -> Dict[str, Any]:
    """Fold completed results into the campaign's partial report.

    Derived purely from the content-addressed store (which spec hashes have
    valid entries, plus their execution metadata), so it is correct after
    any crash at any point; the document is written atomically to
    ``partial/<campaign>.json`` and doubles as the data behind ``campaign
    status``.  Works from the raw manifest payload — aggregation never
    rebuilds specs or touches simulation code.
    """
    campaign = manifest_doc.get("campaign", "")
    spec_hashes = [entry["hash"] for entry in manifest_doc.get("specs", [])]
    probe = ResultCache(store_root)
    board = LeaseBoard(store_root, "status")
    completed: Dict[str, Dict[str, Any]] = {}
    missing: List[str] = []
    wall_seconds = 0.0
    for spec_hash in spec_hashes:
        meta = probe.meta_for_hash(spec_hash)
        if meta is None:
            missing.append(spec_hash)
            continue
        completed[spec_hash] = meta
        wall_seconds += float(meta.get("wall_seconds", 0.0) or 0.0)
    leased = [h for h in missing if board.is_claimed(h)]
    stale = [h for h in leased if board.is_stale(h)]
    payload: Dict[str, Any] = {
        "schema": PARTIAL_SCHEMA,
        "campaign": campaign,
        "name": manifest_doc.get("name", ""),
        "total": len(spec_hashes),
        "completed": len(completed),
        "missing": missing,
        "leases": {"active": len(leased) - len(stale), "stale": len(stale)},
        "wall_seconds_completed": round(wall_seconds, 6),
        "points": completed,
    }
    partial_root = os.path.join(store_root, PARTIAL_DIR)
    os.makedirs(partial_root, exist_ok=True)
    atomic_write_json(os.path.join(partial_root, campaign + ".json"), payload)
    return payload


def campaign_status(store_root: str) -> str:
    """Human-readable progress of every campaign in the store.

    Refreshes each campaign's partial report as a side effect (status *is*
    the incremental aggregation pass), so a crashed campaign's progress
    file catches up the moment anyone looks at it.
    """
    documents = list_manifests(store_root)
    if not documents:
        return f"no campaign manifests in {store_root}"
    lines = [f"campaign store {store_root}: {len(documents)} campaign(s)"]
    for doc in documents:
        partial = aggregate_partial(store_root, doc)
        total, completed = partial["total"], partial["completed"]
        leases = partial["leases"]
        line = (f"  {partial['campaign'][:12]}  {partial['name']:<28s} "
                f"{completed:>4d}/{total:<4d} complete")
        if completed < total:
            unclaimed = (total - completed
                         - leases["active"] - leases["stale"])
            line += (f"  ({leases['active']} leased, {leases['stale']} stale, "
                     f"{unclaimed} unclaimed)")
        if completed and partial["wall_seconds_completed"]:
            per_spec = partial["wall_seconds_completed"] / completed
            line += (f"  {partial['wall_seconds_completed']:.1f} worker-s "
                     f"({per_spec:.2f} s/spec)")
        lines.append(line)
    return "\n".join(lines)


# ------------------------------------------------------------------ executor
class ShardedExecutor(Executor):
    """Maps batches by publishing a manifest and fanning out store workers.

    Unlike :class:`ParallelExecutor` (an in-memory future per spec), every
    piece of coordination lives in the shared store, so execution survives
    the death of any worker — and of this orchestrator: a killed campaign
    is resumed by simply mapping the same batch again (``resume=True``
    additionally *requires* the manifest to exist already).  Results come
    back in spec order, byte-identical to serial execution.
    """

    def __init__(self, num_workers: int, store_dir: str, *,
                 stale_after: float = DEFAULT_STALE_AFTER,
                 poll_interval: float = 0.5,
                 campaign_name: str = "campaign",
                 resume: bool = False) -> None:
        if num_workers < 1:
            raise ValueError("ShardedExecutor needs at least one worker")
        super().__init__(cache=ResultCache(store_dir))
        self.num_workers = num_workers
        self.store_dir = store_dir
        self.stale_after = stale_after
        self.poll_interval = poll_interval
        self.campaign_name = campaign_name
        self.resume = resume

    def map(self, specs: Union[Sequence[RunSpec], SweepSpec]) -> List[RunResult]:
        manifest = CampaignManifest.of(self.campaign_name, specs)
        campaign_hash = manifest.campaign_hash()
        if read_manifest(self.store_dir, campaign_hash) is None:
            if self.resume:
                raise RuntimeError(
                    f"resume requested but store {self.store_dir!r} has no "
                    f"manifest for campaign {campaign_hash!r} "
                    f"({manifest.name!r}); run without --resume to start it")
            write_manifest(self.store_dir, manifest)
        cached = self._lookup(specs)
        missing = len(manifest) - len(cached)
        if missing:
            self._run_workers(campaign_hash, missing)
        results: List[RunResult] = []
        for index, spec in enumerate(specs):
            result = cached.get(index)
            if result is None:
                result = self.cache.get(spec)
            if result is None:
                raise RuntimeError(
                    f"sharded campaign {campaign_hash!r} ended with no "
                    f"result for spec {spec!r}")
            results.append(result)
        aggregate_partial(self.store_dir, manifest.to_json())
        return results

    def _run_workers(self, campaign_hash: str, missing: int) -> None:
        """Spawn workers, aggregating progress until the campaign drains."""
        manifest_doc = read_manifest(self.store_dir, campaign_hash).to_json()
        ctx = multiprocessing.get_context("spawn")
        count = max(1, min(self.num_workers, missing))
        workers = [
            ctx.Process(target=_worker_entry,
                        args=(self.store_dir, campaign_hash, f"w{index}",
                              self.stale_after))
            for index in range(count)]
        for process in workers:
            process.start()
        try:
            while any(process.is_alive() for process in workers):
                aggregate_partial(self.store_dir, manifest_doc)
                time.sleep(self.poll_interval)
        finally:
            for process in workers:
                process.join()
            aggregate_partial(self.store_dir, manifest_doc)
        failed = [process.exitcode for process in workers
                  if process.exitcode not in (0, None)]
        if failed:
            raise RuntimeError(
                f"{len(failed)} sharded worker(s) exited abnormally "
                f"(exit codes {failed}); completed results are in the store "
                "— fix the failure and resume the campaign")


# ----------------------------------------------------------------------- CLI
def main(argv: Optional[List[str]] = None) -> int:
    """Standalone worker / status entry point (any host sharing the store).

    ``python -m repro.campaign.sharding worker --store DIR --campaign HASH``
    joins an existing campaign; ``... status --store DIR`` prints progress.
    """
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    worker = commands.add_parser("worker", help="claim and run design points")
    worker.add_argument("--store", required=True, metavar="DIR")
    worker.add_argument("--campaign", required=True, metavar="HASH")
    worker.add_argument("--worker-id", default=None, metavar="ID")
    worker.add_argument("--stale-after", type=float,
                        default=DEFAULT_STALE_AFTER, metavar="SECONDS")
    status = commands.add_parser("status", help="print campaign progress")
    status.add_argument("--store", required=True, metavar="DIR")
    args = parser.parse_args(argv)
    if args.command == "status":
        print(campaign_status(args.store))
        return 0
    worker_id = args.worker_id or f"cli-{os.getpid()}"
    summary = run_worker(args.store, args.campaign, worker_id,
                         stale_after=args.stale_after)
    print(f"worker {worker_id}: executed {len(summary['executed'])} spec(s), "
          f"reclaimed {summary['reclaimed']} stale lease(s), "
          f"{summary['wall_seconds']:.1f}s simulating")
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
