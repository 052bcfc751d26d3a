"""Node physical address map.

Each node has one flat physical address space, shared by the aP, the L2,
and the NIU's aBIU.  Regions carry an *access mode* that tells the
processor model how to reach them:

* ``CACHED``        — through the L2 (normal DRAM);
* ``UNCACHED``      — single-beat bus operations (control registers,
  Express message windows, queue pointers);
* ``BURST``         — uncached but line-burst-capable.  This models the
  paper's "transmit and receive buffers are mapped [cacheable]" aSRAM
  windows: the timing benefit of cache-line bursts without modeling SRAM
  coherence (the NIU on the real machine manages that with kill/flush
  operations; see DESIGN.md §2).

Regions also say whether the plain memory controller serves them or
whether the aBIU claims them during the snoop window.
"""

from __future__ import annotations

import bisect
import enum
from typing import Any, Dict, List, Optional

from repro.common.errors import AddressError


class AccessMode(enum.Enum):
    """How the processor model accesses a region (see module docstring)."""

    CACHED = "cached"
    UNCACHED = "uncached"
    BURST = "burst"

    # members are singletons: identity hashing is exact (DESIGN.md §8.1)
    __hash__ = object.__hash__


#: the members as module constants, for hot code (lint PERF003).
MODE_CACHED = AccessMode.CACHED
MODE_UNCACHED = AccessMode.UNCACHED
MODE_BURST = AccessMode.BURST

#: the largest region whose addresses lookups memoize (:attr:`Region.memo`).
MEMO_MAX_REGION_BYTES = 1 << 20


class Region:
    """A named, half-open physical address range ``[base, base+size)``."""

    __slots__ = ("name", "base", "size", "end", "mode", "owner", "memo")

    def __init__(
        self,
        name: str,
        base: int,
        size: int,
        mode: AccessMode,
        owner: Optional[Any] = None,
    ) -> None:
        if size <= 0:
            raise ValueError(f"region {name!r} must have positive size")
        if base < 0:
            raise ValueError(f"region {name!r} has negative base")
        self.name = name
        self.base = base
        self.size = size
        #: one past the last valid address (regions are never resized).
        self.end = base + size
        self.mode = mode
        #: the bus slave that serves accesses (None = claimed by a snooper,
        #: e.g. the aBIU for NIU windows).
        self.owner = owner
        #: whether :meth:`AddressMap.lookup` and the aBIU memoize its
        #: addresses: a device window (uncached or burst, at most 1 MiB:
        #: the NIU's pointer, Express, sysreg and SRAM windows).  DRAM
        #: and the 1 GB NUMA window are bisected on every lookup, so no
        #: memo grows with the lines a run touches.
        self.memo = mode is not MODE_CACHED and size <= MEMO_MAX_REGION_BYTES

    def contains(self, addr: int, length: int = 1) -> bool:
        """True when ``[addr, addr+length)`` lies entirely inside."""
        return self.base <= addr and addr + length <= self.end

    def offset(self, addr: int) -> int:
        """Region-relative offset of ``addr``."""
        if not self.contains(addr):
            raise AddressErrorFor(self, addr)
        return addr - self.base

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Region({self.name!r}, [{self.base:#x}, {self.end:#x}), "
            f"{self.mode.value})"
        )


def AddressErrorFor(region: Region, addr: int):
    """Build a descriptive AddressError for an out-of-region access."""
    return AddressError(
        f"address {addr:#x} outside region {region.name!r} "
        f"[{region.base:#x}, {region.end:#x})"
    )


class AddressMap:
    """Sorted, non-overlapping set of regions with binary-search lookup."""

    def __init__(self) -> None:
        self._bases: List[int] = []
        self._regions: List[Region] = []
        #: address -> the region containing it, filled by :meth:`lookup`
        #: for :attr:`Region.memo` regions; :meth:`add` (and so
        #: :meth:`carve`) empties it
        self._memo: Dict[int, Region] = {}
        #: a dormant spin polling through this map
        #: (:class:`repro.sim.process.Spin`): any change wakes it first.
        self.waker = None

    def add(self, region: Region) -> Region:
        """Register a region; overlap with an existing region is an error."""
        if self.waker is not None:
            self.waker.wake()
        self._memo.clear()
        idx = bisect.bisect_right(self._bases, region.base)
        if idx > 0 and self._regions[idx - 1].end > region.base:
            raise AddressError(
                f"region {region.name!r} overlaps {self._regions[idx - 1].name!r}"
            )
        if idx < len(self._regions) and region.end > self._regions[idx].base:
            raise AddressError(
                f"region {region.name!r} overlaps {self._regions[idx].name!r}"
            )
        self._bases.insert(idx, region.base)
        self._regions.insert(idx, region)
        return region

    def lookup(self, addr: int, length: int = 1) -> Region:
        """The region containing ``[addr, addr+length)``; raises if unmapped
        or if the range straddles a region boundary."""
        region = self._memo.get(addr)
        if region is not None and addr + length <= region.end:
            return region
        idx = bisect.bisect_right(self._bases, addr) - 1
        if idx >= 0:
            region = self._regions[idx]
            # the bisect already guarantees ``region.base <= addr``
            if addr + length <= region.end:
                if region.memo:
                    self._memo[addr] = region
                return region
            if addr < region.end:
                raise AddressError(
                    f"access [{addr:#x}, {addr + length:#x}) straddles the end "
                    f"of region {region.name!r}"
                )
        raise AddressError(f"address {addr:#x} is not mapped")

    def carve(self, name: str, base: int, size: int, mode: AccessMode,
              owner: Optional[Any] = None) -> Region:
        """Split an existing region to re-map a sub-range.

        The surrounding region keeps its name, mode and owner on both
        remaining sides; the carved range becomes a new region with the
        given attributes (owner defaults to the parent's).  This is how
        runtime reconfiguration (e.g. installing a reflective-memory
        window over part of DRAM) adjusts the map without rebuilding it.
        """
        if self.waker is not None:
            self.waker.wake()
        parent = self.lookup(base, size)
        idx = self._regions.index(parent)
        del self._regions[idx]
        del self._bases[idx]
        pieces = []
        if base > parent.base:
            pieces.append(Region(parent.name, parent.base, base - parent.base,
                                 parent.mode, parent.owner))
        carved = Region(name, base, size, mode,
                        parent.owner if owner is None else owner)
        pieces.append(carved)
        if base + size < parent.end:
            pieces.append(Region(f"{parent.name}+", base + size,
                                 parent.end - (base + size),
                                 parent.mode, parent.owner))
        for piece in pieces:
            self.add(piece)
        return carved

    def find(self, name: str) -> Region:
        """The region registered under ``name``."""
        for r in self._regions:
            if r.name == name:
                return r
        raise AddressError(f"no region named {name!r}")

    def regions(self) -> List[Region]:
        """All regions in ascending base order."""
        return list(self._regions)


# -- canonical per-node layout ------------------------------------------------
#
# These bases define where each node maps its resources.  They are
# constants of the model, not of the paper (the paper does not publish its
# memory map); the structure — DRAM low, NIU windows high, a 1 GB NUMA
# global region — follows the text.

DRAM_BASE = 0x0000_0000
#: aSRAM window composed of message buffers, mapped burst-capable.
ASRAM_BASE = 0x6000_0000
#: sSRAM window (sP-side buffers), reachable from the aP bus via the NIU.
SSRAM_BASE = 0x6400_0000
#: uncached NIU control window: queue pointers, Express tx/rx, sysregs.
NIU_CTL_BASE = 0x7000_0000
NIU_CTL_SIZE = 0x0100_0000
#: the 1 GB NUMA global region ("a 1GB address range" in the paper).
NUMA_BASE = 0x8000_0000
NUMA_SIZE = 0x4000_0000
#: S-COMA global addresses: remote lines cached in local DRAM frames.
SCOMA_BASE = 0xC000_0000
SCOMA_SIZE = 0x2000_0000
