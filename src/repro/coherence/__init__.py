"""Directory-based MSI coherence: the protocol core.

The S-COMA coherence stack splits three ways, in the classic
msi / cache / directory shape:

* :mod:`repro.coherence.protocol` — the *protocol definition*: cache-line
  states, directory states, events, and the data-driven transition
  tables.  Pure data; importable by firmware, sanitizers, and docs
  tooling alike.
* :mod:`repro.coherence.directory` — the *home-node directory
  controller*: a pure state machine over the tables (sharer sets, owner,
  ack counting, waiter queues).  It performs no I/O; it returns action
  descriptors that the sP firmware executes.
* :mod:`repro.firmware.scoma` — the *mechanism*: sP firmware that moves
  data, sends protocol messages, and flips clsSRAM bits as the
  controller directs.

The split is what makes the protocol machine-checkable: the coherence
sanitizer replays every observed transition against the same tables the
controller runs on, with an independent mirror of owner/ack state.
"""

from repro.coherence.directory import DirectoryController, DirEntry
from repro.coherence.protocol import (
    BUSY,
    CACHE_TABLE,
    DIR_TABLE,
    EXCLUSIVE,
    HOME_VALID,
    MSI_INVALID,
    MSI_PENDING,
    MSI_RO,
    MSI_RW,
    cache_transition_legal,
    l2_snoop_reaction,
)

__all__ = [
    "BUSY",
    "CACHE_TABLE",
    "DIR_TABLE",
    "DirEntry",
    "DirectoryController",
    "EXCLUSIVE",
    "HOME_VALID",
    "MSI_INVALID",
    "MSI_PENDING",
    "MSI_RO",
    "MSI_RW",
    "cache_transition_legal",
    "l2_snoop_reaction",
]
