"""``repro.sync`` — in-network computing and scalable synchronization.

Switch-resident combining (:mod:`repro.net.combine`) planned over the
fat tree (:mod:`repro.sync.plan`), served at the endpoints by sP
firmware (:mod:`repro.sync.firmware`), and exposed to programs as a
small library of scalable primitives (:mod:`repro.sync.api`): the
fetch-and-add counter, the ticket lock and the group barrier, each with
both an in-switch transport and a pure-endpoint fallback.
"""

from repro.sync.api import (
    SYNC_RX_LOGICAL,
    SYNC_TX_INDEX,
    Counter,
    SyncFabric,
    SyncGroup,
    TicketLock,
)
from repro.sync.plan import SwitchTreePlan, plan_group, validate_plan

__all__ = [
    "SYNC_RX_LOGICAL",
    "SYNC_TX_INDEX",
    "Counter",
    "SwitchTreePlan",
    "SyncFabric",
    "SyncGroup",
    "TicketLock",
    "plan_group",
    "validate_plan",
]
