"""Snooping protocol pieces.

Every bus-attached agent with coherence or address-claiming interest
implements :class:`Snooper`.  During the address tenure the bus presents
the transaction to every snooper (other than the master) and combines the
responses:

* any ``RETRY``   → the master loses the tenure and must re-arbitrate.
  This is the mechanism S-COMA rides: the aBIU retries reads of lines
  whose clsSRAM state says "not here yet".  What the states *mean* —
  and how the home-node directory moves them — is defined once in
  :mod:`repro.coherence.protocol`; snoopers only carry the mechanism.
* any ``CLAIM``   → that snooper serves the data tenure instead of the
  address-map owner (the aBIU claims all NIU windows; a modified L2 line
  claims a fill and intervenes with its data).
* all ``OK``      → the region owner from the address map serves it.

At most one snooper may claim a given transaction — two claimants is a
hardware design error and the model raises.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Generator, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.bus.ops import BusTransaction
    from repro.sim.events import Event


class SnoopResult(enum.Enum):
    """One snooper's verdict on an address tenure."""

    OK = "ok"
    RETRY = "retry"
    CLAIM = "claim"

    # members are singletons: identity hashing is exact and skips
    # Enum.__hash__, a Python-level call (DESIGN.md §8.1)
    __hash__ = object.__hash__


#: the members as module constants: hot code loads these globals instead
#: of looking ``SnoopResult.X`` up through the enum class (lint PERF003).
SNOOP_OK = SnoopResult.OK
SNOOP_RETRY = SnoopResult.RETRY
SNOOP_CLAIM = SnoopResult.CLAIM


class Snooper:
    """Interface for bus-snooping agents (L2 cache, aBIU, ...)."""

    #: diagnostic name shown in traces and errors.
    snooper_name: str = "snooper"

    def snoop(self, txn: "BusTransaction") -> SnoopResult:
        """Address-tenure decision.  Must not consume simulated time.

        Side effects are allowed and essential: the aBIU records misses and
        pokes firmware from inside ``snoop`` before answering RETRY.
        """
        raise NotImplementedError

    def serve(
        self, txn: "BusTransaction"
    ) -> Generator["Event", None, Optional[bytes]]:
        """Data tenure for a transaction this snooper claimed.

        A process fragment (may yield timing events).  For reads it returns
        the data bytes; for writes it consumes ``txn.data`` and returns
        None.  Only called after this snooper answered CLAIM.
        """
        raise NotImplementedError


class BusSlave:
    """Interface for address-mapped targets (DRAM controller, ROM...).

    Unlike a :class:`Snooper`, a slave never votes during the snoop
    window; it simply serves transactions whose address falls in a region
    that names it as owner.
    """

    slave_name: str = "slave"

    def access(
        self, txn: "BusTransaction"
    ) -> Generator["Event", None, Optional[bytes]]:
        """Serve the data tenure; same contract as :meth:`Snooper.serve`."""
        raise NotImplementedError
