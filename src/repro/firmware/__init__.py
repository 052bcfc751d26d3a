"""sP firmware: the programs the NIU's embedded 604 runs.

:func:`install_default_firmware` loads the shipped firmware image onto a
node's service processor at machine build, so every service is on every
sP from the start: the message dispatcher, miss-queue service, the DMA
engine, the block-transfer arm, the NUMA and S-COMA shared-memory
protocols, go-back-N reliable delivery, the collectives
``CollectiveUnit``, the sync services and the traffic services.  Two
parameterised extensions are not in the image and install per use, once
per sP: a reflective window (:func:`install_reflective`) and an update
region (:func:`repro.firmware.update_shm.install_update_region`).
"""

from repro.collectives.firmware import setup_collectives
from repro.firmware.base import (
    fw_dram_read,
    fw_dram_write,
    fw_recv_all,
    fw_send,
    fw_send_to,
    fw_wait,
    install_base_firmware,
    register_msg_handler,
    rxmsg_dispatcher,
)
from repro.firmware.blockxfer import setup_blockxfer
from repro.firmware.dma import install_dma_firmware
from repro.firmware.msg import declare_dram_queue, install_missq_firmware
from repro.firmware.numa import NumaMap, setup_numa
from repro.firmware.reflective import install_reflective
from repro.firmware.reliable import setup_reliable
from repro.firmware.scoma import HomeMap, setup_scoma
from repro.sync.firmware import setup_sync

__all__ = [
    "install_default_firmware",
    "install_base_firmware",
    "install_missq_firmware",
    "install_dma_firmware",
    "install_reflective",
    "setup_numa",
    "setup_reliable",
    "setup_scoma",
    "HomeMap",
    "declare_dram_queue",
    "register_msg_handler",
    "rxmsg_dispatcher",
    "fw_send",
    "fw_send_to",
    "fw_recv_all",
    "fw_wait",
    "fw_dram_read",
    "fw_dram_write",
    "NumaMap",
]


def install_default_firmware(node, n_nodes: int, home_map: HomeMap,
                             coll_plan) -> None:
    """Load the complete default firmware image onto one node's sP.

    ``home_map`` is the machine's shared S-COMA :class:`HomeMap` (see
    :meth:`HomeMap.for_machine`) and ``coll_plan`` its shared, validated
    collectives :class:`~repro.collectives.plan.TreePlan`.  Must run
    before the machine starts.
    """
    sp = node.sp
    sp.state["niu"] = node.niu
    sp.state["node"] = node
    install_base_firmware(sp)
    install_missq_firmware(sp)
    install_dma_firmware(sp)
    setup_blockxfer(sp)
    numa_map = NumaMap(n_nodes, node.numa_bytes, node.numa_backing_base)
    setup_numa(sp, numa_map)
    setup_scoma(sp, home_map)
    setup_reliable(sp)
    # lazy: the traffic package's scenarios import the machine, which
    # imports this package
    from repro.traffic.firmware import setup_traffic

    setup_collectives(sp, coll_plan)
    setup_sync(sp)
    setup_traffic(sp, n_nodes)
