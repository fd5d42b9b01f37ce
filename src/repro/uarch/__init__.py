"""Shared microarchitecture substrates: caches, predictors, TLBs."""

from .branch import (BHT, BTB, BimodalPredictor, BoomBranchPredictor,
                     DIRECTION_PREDICTORS, GsharePredictor, Prediction,
                     PredictorStats, ReturnAddressStack,
                     RocketBranchPredictor, TagePredictor,
                     make_direction_predictor)
from .cache import (Cache, CacheConfig, CacheStats, DRAM_LATENCY, L1D_16K,
                    L1D_32K, L1I_32K, L2_512K, MemorySystem, MSHRFile,
                    NonBlockingCache)
from .prefetch import PrefetchStats, StridePrefetcher
from .tlb import Tlb, TlbHierarchy, TlbStats

__all__ = [
    "BHT",
    "BTB",
    "BimodalPredictor",
    "BoomBranchPredictor",
    "DIRECTION_PREDICTORS",
    "GsharePredictor",
    "Cache",
    "CacheConfig",
    "CacheStats",
    "DRAM_LATENCY",
    "L1D_16K",
    "L1D_32K",
    "L1I_32K",
    "L2_512K",
    "MSHRFile",
    "MemorySystem",
    "NonBlockingCache",
    "Prediction",
    "PredictorStats",
    "PrefetchStats",
    "StridePrefetcher",
    "ReturnAddressStack",
    "RocketBranchPredictor",
    "TagePredictor",
    "Tlb",
    "make_direction_predictor",
    "TlbHierarchy",
    "TlbStats",
]
