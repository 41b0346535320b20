"""The paper's register constructions (Figures 2-5, Sections 3-5)."""

from .base import (QuorumParams, RegisterClientProcess, ServerAutomaton,
                   ServerProcess, first_k, value_with_quorum)
from .bounded_seq import (DEFAULT_MODULUS, WsnConfig, cd_geq, cd_gt,
                          clockwise_distance, next_wsn)
from .epochs import Epoch, EpochLabeling
from .messages import BOT, AckRead, AckWrite, NewHelpVal, Read, Write
from .mwmr import (DEFAULT_SEQ_BOUND, MWMRProcess, MWMRRegister, MWMRRole,
                   is_valid_triple)
from .swmr import SWMRRegister, copy_reg_id, install_swmr_servers
from .swsr_atomic import (AtomicReader, AtomicReaderRole,
                          AtomicRegisterServer, AtomicWriter,
                          AtomicWriterRole)
from .swsr_regular import (RegularReader, RegularReaderRole,
                           RegularRegisterServer, RegularWriter,
                           RegularWriterRole)
from .system import (Cluster, ClusterConfig, build_mwmr, build_swmr,
                     build_swsr_atomic, build_swsr_regular)

__all__ = [
    "AckRead", "AckWrite", "AtomicReader", "AtomicReaderRole",
    "AtomicRegisterServer", "AtomicWriter", "AtomicWriterRole", "BOT",
    "Cluster", "ClusterConfig", "DEFAULT_MODULUS", "DEFAULT_SEQ_BOUND",
    "Epoch", "EpochLabeling", "MWMRProcess", "MWMRRegister", "MWMRRole",
    "NewHelpVal", "QuorumParams", "Read", "RegisterClientProcess",
    "RegularReader", "RegularReaderRole", "RegularRegisterServer",
    "RegularWriter", "RegularWriterRole", "SWMRRegister", "ServerAutomaton",
    "ServerProcess", "Write", "WsnConfig",
    "build_mwmr", "build_swmr", "build_swsr_atomic", "build_swsr_regular",
    "cd_geq", "cd_gt", "clockwise_distance", "copy_reg_id", "first_k",
    "install_swmr_servers", "is_valid_triple", "next_wsn",
    "value_with_quorum",
]
