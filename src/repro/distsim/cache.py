"""Cache simulator for measuring vertical data movement.

The paper's vertical lower bounds (Theorems 5, 6, 8-10) constrain the
traffic between a node's main memory and its last-level cache.  To obtain
matching *measured upper bounds* without the authors' hardware, the
distributed-machine simulator replays each node's memory reference stream
through this cache model and counts misses and write-backs — exactly the
words that cross the DRAM<->cache link.

Two replacement policies are provided:

* ``lru`` — least recently used, the standard hardware-like policy;
* ``belady`` — the optimal offline policy (evict the line whose next use
  is farthest in the future); requires the full trace up front and is the
  fairest comparison against *lower* bounds because no replacement policy
  can beat it.

The simulator is word-granular (each line holds one word), matching the
pebble-game model where each value is a word.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, List, Sequence

__all__ = ["CacheStats", "CacheSimulator", "simulate_trace"]

Address = Hashable


@dataclass
class CacheStats:
    """Counters accumulated by a :class:`CacheSimulator`."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    evictions: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def vertical_traffic(self) -> int:
        """Words moved across the DRAM<->cache link: fills + write-backs."""
        return self.misses + self.writebacks


class CacheSimulator:
    """A set-associative-free (fully associative) cache model.

    Parameters
    ----------
    capacity_words:
        Cache capacity in words.
    policy:
        ``"lru"`` or ``"belady"``.
    """

    def __init__(self, capacity_words: int, policy: str = "lru") -> None:
        if capacity_words < 1:
            raise ValueError("capacity must be at least one word")
        if policy not in ("lru", "belady"):
            raise ValueError("policy must be 'lru' or 'belady'")
        self.capacity_words = capacity_words
        self.policy = policy
        self.stats = CacheStats()
        # line -> dirty flag; OrderedDict gives LRU order (oldest first).
        self._lines: "OrderedDict[Address, bool]" = OrderedDict()
        # For Belady: future use positions per line (set via prepare_trace).
        self._future: Dict[Address, List[int]] = {}
        self._clock = 0

    # ------------------------------------------------------------------
    def prepare_trace(self, addresses: Sequence[Address]) -> None:
        """Precompute next-use positions for the Belady policy."""
        self._future = {}
        for pos, addr in enumerate(addresses):
            self._future.setdefault(addr, []).append(pos)
        for uses in self._future.values():
            uses.reverse()  # pop() yields the earliest remaining use

    def _next_use(self, line: Address) -> float:
        uses = self._future.get(line)
        if not uses:
            return float("inf")
        while uses and uses[-1] < self._clock:
            uses.pop()
        return uses[-1] if uses else float("inf")

    def _evict_one(self) -> None:
        if self.policy == "lru":
            victim, dirty = self._lines.popitem(last=False)
        else:  # belady
            victim = max(self._lines, key=self._next_use)
            dirty = self._lines.pop(victim)
        self.stats.evictions += 1
        if dirty:
            self.stats.writebacks += 1

    # ------------------------------------------------------------------
    def access(self, address: Address, write: bool = False) -> bool:
        """Reference one word; returns True on a hit.

        A miss fills the word's line (one word of traffic, counted in
        ``stats.misses``); a write marks the line dirty so its eventual
        eviction is a write-back.
        """
        self.stats.accesses += 1
        hit = address in self._lines
        if hit:
            self.stats.hits += 1
            dirty = self._lines.pop(address)
            self._lines[address] = dirty or write
        else:
            self.stats.misses += 1
            while len(self._lines) >= self.capacity_words:
                self._evict_one()
            self._lines[address] = write
        self._clock += 1
        return hit

    def flush(self) -> None:
        """Write back all dirty lines and empty the cache (end of phase)."""
        self.stats.writebacks += sum(self._lines.values())
        self._lines.clear()

    @property
    def resident_lines(self) -> int:
        return len(self._lines)


def simulate_trace(
    trace: Sequence,
    capacity_words: int,
    policy: str = "lru",
) -> CacheStats:
    """Run a (address, is_write) reference trace through a fresh cache.

    ``trace`` items may be plain addresses (treated as reads) or
    ``(address, is_write)`` pairs.
    """
    pairs = [
        item if isinstance(item, tuple) else (item, False) for item in trace
    ]
    sim = CacheSimulator(capacity_words, policy=policy)
    if policy == "belady":
        sim.prepare_trace([a for a, _ in pairs])
    for addr, is_write in pairs:
        sim.access(addr, write=is_write)
    sim.flush()
    return sim.stats
