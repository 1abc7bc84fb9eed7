"""Mixed-order self-paced curriculum learning on small synthetic problems:
perturbation uncertainty, rank-fused difficulty, mixed-order batch plans,
self-paced and OHEM baselines, and gradient-conflict analysis."""

from .datagen import Dataset, GenSpec, generate
from .difficulty import DifficultyTable, fuse_ranks, quadrant_classify, rank_descending
from .experiment import ExperimentConfig, compare, run
from .model import MlpModel
from .scheduler import (
    BatchPlan,
    anti_mixed_plan,
    mixed_order_plan,
    ohem_plan,
    random_plan,
    sp_weight,
)
from .uncertainty import batch_score_uncertainty, entropy

__version__ = "0.1.0"
