"""Layer-0 libraries built on the message-passing mechanisms: a mini-MPI
(:mod:`repro.lib.mpi`) over Basic messages and token channels
(:mod:`repro.lib.channels`) over Express messages."""

from repro.lib.channels import TokenChannel
from repro.lib.mpi import MiniMPI, MpiRank

__all__ = ["MiniMPI", "MpiRank", "TokenChannel"]
