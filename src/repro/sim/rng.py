"""Deterministic random-number streams.

The paper's methodology (Alameldeen et al.) perturbs memory latencies with
small pseudo-random jitter and runs each design point several times to cope
with the non-determinism of commercial workloads.  We reproduce that with
named, independently seeded streams so that (a) two components never share a
stream (which would couple their behaviour to scheduling order) and (b) an
entire run is reproducible from a single root seed.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Sequence, Tuple

import numpy as np


class BufferedIntegers:
    """Chunked prefetch of ``Generator.integers(low, high)`` draws.

    numpy fills ``integers(low, high, size=n)`` element by element with the
    same bounded-rejection routine as ``n`` scalar calls, consuming the bit
    stream in the same order — so prefetching a chunk yields a sequence
    *bit-identical* to per-draw scalar calls (pinned by
    ``tests/test_perf_kernel.py::TestBufferedRandint``).  The only
    requirement is that the underlying stream is consumed exclusively
    through this buffer: interleaving other draws on the same stream would
    consume the same bits in a different order.

    The default chunk is sized to the runs: a campaign design point issues
    tens to hundreds of references per processor, so a larger prefetch is
    mostly memory that no draw reads.
    """

    __slots__ = ("_stream", "_low", "_high", "_chunk", "_buf", "_pos")

    def __init__(self, stream: np.random.Generator, low: int, high: int,
                 chunk: int = 256) -> None:
        if chunk <= 0:
            raise ValueError("chunk must be positive")
        self._stream = stream
        self._low = low
        self._high = high
        self._chunk = chunk
        self._buf: Sequence[int] = ()
        self._pos = 0

    def next(self) -> int:
        pos = self._pos
        buf = self._buf
        if pos >= len(buf):
            # .tolist() converts the whole chunk to plain ints once, which
            # is far cheaper than one numpy-scalar __int__ per draw.
            buf = self._stream.integers(self._low, self._high,
                                        size=self._chunk).tolist()
            self._buf = buf
            pos = 0
        self._pos = pos + 1
        return buf[pos]


class DeterministicRng:
    """Root of a tree of named, independent random streams."""

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = int(root_seed)
        self._streams: Dict[str, np.random.Generator] = {}
        self._int_buffers: Dict[Tuple[str, int, int], BufferedIntegers] = {}

    def _seed_for(self, name: str) -> int:
        digest = hashlib.sha256(f"{self.root_seed}:{name}".encode()).digest()
        return int.from_bytes(digest[:8], "little")

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the stream for ``name``."""
        if name not in self._streams:
            self._streams[name] = np.random.default_rng(self._seed_for(name))
        return self._streams[name]

    def spawn(self, name: str) -> "DeterministicRng":
        """Create a child RNG tree rooted at a derived seed."""
        return DeterministicRng(self._seed_for(name))

    # ------------------------------------------------------------ conveniences
    def randint(self, name: str, low: int, high: int) -> int:
        """Uniform integer in ``[low, high)`` drawn from the named stream."""
        return int(self.stream(name).integers(low, high))

    def buffered_randint(self, name: str, low: int, high: int) -> int:
        """Like :meth:`randint` but prefetched in chunks — bit-identical to
        the scalar call sequence for a stream consumed only through this
        method with fixed bounds (see :class:`BufferedIntegers`).  Use for
        per-event hot paths (e.g. the processor's compute-gap jitter)."""
        key = (name, low, high)
        buf = self._int_buffers.get(key)
        if buf is None:
            buf = BufferedIntegers(self.stream(name), low, high)
            self._int_buffers[key] = buf
        return buf.next()

    def random(self, name: str) -> float:
        """Uniform float in ``[0, 1)`` from the named stream."""
        return float(self.stream(name).random())

    def choice(self, name: str, options: Sequence):
        """Uniform choice from a non-empty sequence."""
        if not options:
            raise ValueError("cannot choose from an empty sequence")
        idx = self.randint(name, 0, len(options))
        return options[idx]

    def geometric(self, name: str, p: float) -> int:
        """Geometric variate (number of trials, >= 1)."""
        if not 0.0 < p <= 1.0:
            raise ValueError("p must be in (0, 1]")
        return int(self.stream(name).geometric(p))

    def zipf_index(self, name: str, n: int, alpha: float = 1.1) -> int:
        """Zipf-distributed index in ``[0, n)`` (used for hot-set workloads)."""
        if n <= 0:
            raise ValueError("n must be positive")
        if alpha <= 1.0:
            # Fall back to uniform for degenerate exponents.
            return self.randint(name, 0, n)
        while True:
            value = int(self.stream(name).zipf(alpha)) - 1
            if value < n:
                return value
