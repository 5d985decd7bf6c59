"""Synthetic workload generation.

The paper evaluates with the Wisconsin Commercial Workload Suite (OLTP,
SPECjbb, Apache, Slashcode) plus barnes-hut from SPLASH-2 (Table 3), run
under full-system simulation.  Those workloads and the Simics environment
are not available here, so each workload is replaced by a synthetic memory
reference generator whose coarse memory-system character matches the
original (see DESIGN.md for the substitution argument).  What the
experiments actually consume from a workload is the stream of block
addresses and read/write operations each processor presents to the coherence
protocol; the generator controls exactly those properties:

* per-processor private working set (captures capacity miss rate),
* a globally shared region with configurable access probability, skew
  (hot blocks) and write fraction (captures sharing-induced coherence
  traffic: invalidations, forwarded requests, writeback races),
* migratory sharing (read-modify-write of a moving "record"), the pattern
  that produces Section 3.1's writeback races,
* lock-like hot blocks with very high write fractions (captures contention
  in OLTP/Slashcode),
* sequential scan runs (captures streaming phases in barnes/Apache).

Reference streams are fully deterministic given a seed, which makes every
experiment reproducible and lets the SafetyNet rollback re-execute exactly
the same work.

Generation is vectorized (stream schema v2): classification, address and
run-length randomness come from separate named substreams of the workload's
RNG tree and are drawn in chunks of thousands of values per ``Generator``
call, instead of one scalar draw per reference.  The emitted stream for a
given ``(profile, seed, node, n)`` is pinned by golden determinism tests
(``tests/test_processor_workloads.py``): any change to the consumption
schedule — chunk size, draw order, substream names — is a deliberate,
test-visible schema change.  (The pre-v2 scalar generator drew every
call site from one shared stream, which is inherently unvectorizable: the
bit-stream words reach call sites in data-dependent order, so chunking
necessarily re-maps them.  v2 re-keys the substreams once and pins the new
streams instead.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.coherence.common import MemoryOp
from repro.sim.rng import DeterministicRng

#: One memory reference: (operation, block address).
Reference = Tuple[MemoryOp, int]


@dataclass(frozen=True)
class StreamArtifact:
    """Immutable generated reference streams for one workload design point.

    The expensive part of a workload — drawing and classifying every
    reference — depends only on ``(family, params, seed, node count, block
    size, stream length)``, never on the run consuming it.  Freezing the
    generated streams into per-node tuples separates that shareable artifact
    from the cheap per-run state: each run takes a fresh mutable
    :meth:`cursor` per node while the artifact itself can be memoized and
    reused across runs (see :mod:`repro.workloads.memo`).
    """

    workload: str
    num_processors: int
    references_per_processor: int
    #: Per-node streams, indexed by node id; tuples so sharing is safe.
    streams: Tuple[Tuple[Reference, ...], ...]

    def cursor(self, node: int) -> List[Reference]:
        """A fresh per-run copy of one node's stream (callers may consume
        or mutate it freely without touching the shared artifact)."""
        return list(self.streams[node])


@dataclass
class WorkloadProfile:
    """Parameters that shape a synthetic workload.

    The numbers are per-reference probabilities; they do not need to sum to
    one — remaining probability mass goes to the private working set.
    """

    name: str
    description: str = ""
    #: Blocks in each processor's private working set.
    private_blocks: int = 4096
    #: Blocks in the globally shared region.
    shared_blocks: int = 2048
    #: Probability that a reference targets the shared region.
    shared_fraction: float = 0.20
    #: Probability that a *shared* reference is a store.
    shared_write_fraction: float = 0.20
    #: Probability that a *private* reference is a store.
    private_write_fraction: float = 0.30
    #: Zipf exponent for shared-region block popularity (>1 = skewed).
    shared_zipf_alpha: float = 1.2
    #: Probability of a migratory read-modify-write burst (owner moves from
    #: processor to processor; generates writebacks racing with requests).
    migratory_fraction: float = 0.05
    #: Number of distinct migratory records.
    migratory_records: int = 64
    #: Probability of touching a lock-like hot block (read-modify-write).
    lock_fraction: float = 0.02
    #: Number of lock blocks.
    lock_blocks: int = 16
    #: Probability that a private reference continues a sequential run.
    sequential_run_probability: float = 0.5
    #: Mean length of sequential runs (blocks).
    sequential_run_length: int = 8

    def __post_init__(self) -> None:
        for attr in ("shared_fraction", "shared_write_fraction",
                     "private_write_fraction", "migratory_fraction",
                     "lock_fraction", "sequential_run_probability"):
            value = getattr(self, attr)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{attr} must be in [0, 1], got {value}")
        if self.private_blocks <= 0 or self.shared_blocks <= 0:
            raise ValueError("working-set sizes must be positive")


class SyntheticWorkload:
    """Generates per-processor reference streams from a profile."""

    def __init__(self, profile: WorkloadProfile, *, num_processors: int,
                 block_bytes: int = 64, seed: int = 1) -> None:
        if num_processors <= 0:
            raise ValueError("num_processors must be positive")
        self.profile = profile
        self.num_processors = num_processors
        self.block_bytes = block_bytes
        self.seed = seed
        self.rng = DeterministicRng(seed)
        # Address-space layout: [shared region][locks][migratory][per-node private]
        self._shared_base = 0
        self._lock_base = self._shared_base + profile.shared_blocks * block_bytes
        self._migratory_base = self._lock_base + profile.lock_blocks * block_bytes
        self._private_base = (self._migratory_base
                              + profile.migratory_records * block_bytes)

    @property
    def footprint_blocks(self) -> int:
        """Total distinct blocks the workload can touch."""
        p = self.profile
        return (p.shared_blocks + p.lock_blocks + p.migratory_records
                + p.private_blocks * self.num_processors)

    # -------------------------------------------------------------- generation
    #: Iterations classified per vectorized chunk.  Part of the pinned
    #: stream schema: changing it changes the draw schedule and therefore
    #: the emitted streams (the golden tests will say so).
    CHUNK_ITERATIONS = 8192

    def generate(self, node: int, num_references: int) -> List[Reference]:
        """Generate the reference stream for one processor (vectorized).

        Each chunk classifies up to :data:`CHUNK_ITERATIONS` iterations from
        the ``.class`` substream (an iteration emits one reference, or two
        for the read-modify-write lock/migratory patterns), then draws every
        category's addresses in one ``Generator`` call each from the
        ``.addr`` substream and the private sequential-run structure from
        the ``.run`` substream.  Repeated calls for the same node continue
        the node's streams, exactly like the scalar generator did.
        """
        if num_references < 0:
            raise ValueError("num_references must be non-negative")
        p = self.profile
        base = f"workload.{p.name}.node{node}"
        cls_stream = self.rng.stream(f"{base}.class")
        addr_stream = self.rng.stream(f"{base}.addr")
        run_stream = self.rng.stream(f"{base}.run")

        store_chunks: List[np.ndarray] = []
        addr_chunks: List[np.ndarray] = []
        produced = 0
        state = self._new_stream_state()
        while produced < num_references:
            stores, addrs = self._generate_chunk(
                node, min(self.CHUNK_ITERATIONS, num_references - produced),
                cls_stream, addr_stream, run_stream, state)
            store_chunks.append(stores)
            addr_chunks.append(addrs)
            produced += len(stores)

        store_flags: List[bool] = []
        addresses: List[int] = []
        for stores, addrs in zip(store_chunks, addr_chunks):
            store_flags.extend(stores.tolist())
            addresses.extend(addrs.tolist())
        del store_flags[num_references:]
        del addresses[num_references:]
        load, store = MemoryOp.LOAD, MemoryOp.STORE
        return [(store if is_store else load, address)
                for is_store, address in zip(store_flags, addresses)]

    def _new_stream_state(self) -> Dict[str, List[int]]:
        """Per-``generate``-call cross-chunk state.

        ``"run"`` is the sequential-run state ``[cursor, remaining]``,
        carried across chunks of one call but reset per call (the scalar
        generator's semantics).  Family subclasses may add further entries
        (e.g. the hotspot burst carry) without changing the base schedule.
        """
        return {"run": [0, 0]}

    def _generate_chunk(self, node: int, iterations: int,
                        cls_stream: np.random.Generator,
                        addr_stream: np.random.Generator,
                        run_stream: np.random.Generator,
                        state: Dict[str, List[int]],
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """One vectorized chunk: ``(store_mask, addresses)`` arrays.

        May emit up to ``2 * iterations`` references (lock/migratory
        iterations emit a load+store pair); the caller truncates.
        """
        p = self.profile
        bb = self.block_bytes
        u = cls_stream.random(iterations)
        k = cls_stream.random(iterations)

        # Branch classification, with the same subtract-then-compare
        # cascade as the scalar generator's if/elif chain.
        lock_m = u < p.lock_fraction
        u2 = u - p.lock_fraction
        mig_m = ~lock_m & (u2 < p.migratory_fraction)
        u3 = u2 - p.migratory_fraction
        shared_m = ~lock_m & ~mig_m & (u3 < p.shared_fraction)
        private_m = ~(lock_m | mig_m | shared_m)

        pair_m = lock_m | mig_m
        refs_per_iter = np.where(pair_m, 2, 1)
        first_ref_pos = np.cumsum(refs_per_iter) - refs_per_iter
        total_refs = int(first_ref_pos[-1]) + int(refs_per_iter[-1])

        store_mask = np.zeros(total_refs, dtype=bool)
        addresses = np.zeros(total_refs, dtype=np.int64)

        # Lock / migratory read-modify-write pairs: LOAD then STORE of the
        # same hot block.
        for mask, region_base, region_blocks in (
                (lock_m, self._lock_base, p.lock_blocks),
                (mig_m, self._migratory_base, p.migratory_records)):
            count = int(mask.sum())
            if count:
                idx = addr_stream.integers(0, region_blocks, size=count)
                pair_addr = region_base + idx * bb
                pos = first_ref_pos[mask]
                addresses[pos] = pair_addr
                addresses[pos + 1] = pair_addr
                store_mask[pos + 1] = True

        # Shared region; how indices are drawn is the family's main hook
        # (zipf-skewed hot blocks by default).
        shared_count = int(shared_m.sum())
        if shared_count:
            idx = self._shared_indices(node, shared_count, k[shared_m],
                                       addr_stream, run_stream, state)
            pos = first_ref_pos[shared_m]
            addresses[pos] = self._shared_base + idx * bb
            store_mask[pos] = k[shared_m] < p.shared_write_fraction

        # Private working set: sequential runs + random singles.
        private_count = int(private_m.sum())
        if private_count:
            cursors = self._private_cursors(private_count, addr_stream,
                                            run_stream, state["run"])
            pos = first_ref_pos[private_m]
            node_base = (self._private_base
                         + node * p.private_blocks * bb)
            addresses[pos] = node_base + (cursors % p.private_blocks) * bb
            store_mask[pos] = k[private_m] < p.private_write_fraction

        return store_mask, addresses

    def _shared_indices(self, node: int, count: int, k_shared: np.ndarray,
                        addr_stream: np.random.Generator,
                        run_stream: np.random.Generator,
                        state: Dict[str, List[int]]) -> np.ndarray:
        """Block indices (into the shared region) for ``count`` shared
        references, in stream order.

        The default draws zipf-skewed indices from the ``.addr`` substream —
        byte-identical to the pre-registry generator.  Family subclasses
        override this to shape the shared traffic (hotspot bursts,
        producer/consumer handoff buffers) while inheriting the whole
        chunked classification schedule; ``k_shared`` is the per-reference
        write-classification draw (the same values the caller compares
        against ``shared_write_fraction``), so an override can correlate
        the target block with load/store direction without extra draws.
        """
        del node, k_shared, run_stream, state  # unused by the default shape
        p = self.profile
        return self._zipf_indices(addr_stream, p.shared_blocks,
                                  p.shared_zipf_alpha, count)

    def _private_cursors(self, count: int,
                         addr_stream: np.random.Generator,
                         run_stream: np.random.Generator,
                         run_state: List[int]) -> np.ndarray:
        """Block cursors for ``count`` private references, in order.

        The private stream is a sequence of segments: with probability
        ``sequential_run_probability`` a sequential run of
        ``1 + max(1, Geometric(1/len))`` blocks from a random start,
        otherwise a single random block.  Segment structure comes from the
        ``.run`` substream, segment start blocks from ``.addr``; a segment
        that overruns the request is carried into the next chunk via
        ``run_state`` — exactly the scalar generator's run state,
        vectorized.
        """
        p = self.profile
        pieces: List[np.ndarray] = []
        filled = 0

        # Continue a run left over from the previous chunk.
        if run_state[1] > 0:
            take = min(run_state[1], count)
            pieces.append(np.arange(run_state[0] + 1,
                                    run_state[0] + take + 1,
                                    dtype=np.int64))
            run_state[0] += take
            run_state[1] -= take
            filled += take

        while filled < count:
            # Expected segment length is >= 1; draw a generous batch so the
            # loop almost always runs once.
            need = count - filled
            nseg = max(16, need // 2)
            is_run = run_stream.random(nseg) < p.sequential_run_probability
            run_extra = np.maximum(
                1, run_stream.geometric(1.0 / p.sequential_run_length,
                                        size=nseg))
            lengths = np.where(is_run, 1 + run_extra, 1)
            starts = addr_stream.integers(0, p.private_blocks, size=nseg)

            ends = np.cumsum(lengths)
            last = int(np.searchsorted(ends, need, side="left"))
            if last >= nseg:
                # Batch fell short: consume it fully and loop for more.
                used, consumed = nseg, int(ends[-1])
            else:
                used, consumed = last + 1, need
            seg_starts = starts[:used]
            seg_lengths = lengths[:used].copy()
            overrun = int(ends[used - 1]) - consumed
            if overrun > 0:
                seg_lengths[-1] -= overrun
            offsets = np.arange(consumed, dtype=np.int64) - np.repeat(
                np.cumsum(seg_lengths) - seg_lengths, seg_lengths)
            pieces.append(np.repeat(seg_starts, seg_lengths) + offsets)
            filled += consumed

            last_start = int(seg_starts[-1])
            last_used = int(seg_lengths[-1])
            run_state[0] = last_start + last_used - 1
            run_state[1] = overrun if overrun > 0 else 0

        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)

    @staticmethod
    def _zipf_indices(stream: np.random.Generator, n: int, alpha: float,
                      count: int) -> np.ndarray:
        """``count`` zipf-distributed indices in ``[0, n)`` (vectorized
        rejection; uniform for degenerate exponents)."""
        if alpha <= 1.0:
            return stream.integers(0, n, size=count)
        out = np.empty(count, dtype=np.int64)
        filled = 0
        while filled < count:
            draw = stream.zipf(alpha, size=max(16, count - filled)) - 1
            valid = draw[draw < n]
            take = min(len(valid), count - filled)
            out[filled:filled + take] = valid[:take]
            filled += take
        return out

    def generate_all(self, references_per_processor: int) -> Dict[int, List[Reference]]:
        """Generate streams for every processor."""
        return {node: self.generate(node, references_per_processor)
                for node in range(self.num_processors)}

    def freeze(self, references_per_processor: int) -> StreamArtifact:
        """Generate every stream once and freeze the result for sharing.

        The artifact carries exactly what :meth:`generate_all` would have
        produced (same draw schedule, same golden digests), packaged
        immutably so the memo layer can hand it to many runs.
        """
        streams = self.generate_all(references_per_processor)
        return StreamArtifact(
            workload=self.profile.name,
            num_processors=self.num_processors,
            references_per_processor=references_per_processor,
            streams=tuple(tuple(streams[node])
                          for node in range(self.num_processors)))

    # -------------------------------------------------------------- reporting
    def summary(self) -> Dict[str, object]:
        p = self.profile
        return {
            "name": p.name,
            "description": p.description,
            "processors": self.num_processors,
            "footprint_blocks": self.footprint_blocks,
            "shared_fraction": p.shared_fraction,
            "shared_write_fraction": p.shared_write_fraction,
            "migratory_fraction": p.migratory_fraction,
            "lock_fraction": p.lock_fraction,
        }


def mix_statistics(references) -> Dict[str, float]:
    """Read/write/footprint statistics of a reference stream.

    Accepts either one stream (a sequence of references) or a *mixed*
    per-node mapping ``{node: stream}`` — the shape heterogeneous families
    (``producer_consumer``, ``mixed``) hand out, where different nodes run
    different reference mixes.  A mapping is characterised as the union of
    its streams, with two extra keys: ``nodes`` (streams aggregated) and
    ``store_fraction_spread`` (max - min per-node store fraction, the
    heterogeneity signal; 0.0 for a homogeneous assignment).
    """
    if isinstance(references, Mapping):
        streams = [references[node] for node in sorted(references)]
        combined: List[Reference] = [ref for stream in streams for ref in stream]
        stats = mix_statistics(combined)
        fractions = [mix_statistics(stream)["stores"]
                     for stream in streams if stream]
        stats["nodes"] = float(len(streams))
        stats["store_fraction_spread"] = (
            max(fractions) - min(fractions) if fractions else 0.0)
        return stats
    if not references:
        return {"stores": 0.0, "loads": 0.0, "unique_blocks": 0.0}
    stores = sum(1 for op, _ in references if op == MemoryOp.STORE)
    unique = len({addr for _, addr in references})
    total = len(references)
    return {
        "stores": stores / total,
        "loads": (total - stores) / total,
        "unique_blocks": float(unique),
    }
