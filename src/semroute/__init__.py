"""Concept-guided mixture-of-experts routing with option-aware expert
reweighting, uncertainty-weighted training, router distillation, and
routing diagnostics, exercised end to end on synthetic embedding tasks.
"""

from .cues import CueSet, CueTable
from .data import Sample, Split, generate_dataset
from .graph import LossBreakdown
from .model import Model
from .scoring import GatingDecision, OptionRepresentation, score_all_options
from .trainer import TrainConfig, evaluate, train

__all__ = [
    "CueSet", "CueTable", "GatingDecision", "LossBreakdown", "Model",
    "OptionRepresentation", "Sample", "Split", "TrainConfig", "evaluate",
    "generate_dataset", "score_all_options", "train",
]

__version__ = "0.1.0"
