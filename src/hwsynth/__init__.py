"""Hardware-guided grow-and-prune synthesis of compact H-LSTM models."""

from .numkit import MaskedLinear, make_rng
from .hlstm import HLSTMCellParams, HLSTMState, LMModel, perplexity
from .growprune import GrowPruneConfig
from .latlab import LatencyProfile, SyntheticCurveSpec, detect_lhps, nearest_lhp
from .synthflow import FlowConfig, FlowReport, run_flow

__all__ = [
    "MaskedLinear", "make_rng",
    "HLSTMCellParams", "HLSTMState", "LMModel", "perplexity",
    "GrowPruneConfig",
    "LatencyProfile", "SyntheticCurveSpec", "detect_lhps", "nearest_lhp",
    "FlowConfig", "FlowReport", "run_flow",
]
