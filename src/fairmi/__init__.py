"""Fairness-aware deep clustering with information-theoretic objectives."""

from .clustering import kmeans, soft_assign
from .data import Dataset, SyntheticSpec, generate_synthetic, load_csv, minibatches
from .metrics import MetricsReport, accuracy, balance, contingency, f_beta, full_report, mnce, nmi
from .model import ModelParams, encode, init_params, load_checkpoint, save_checkpoint
from .objectives import conditional_mi, group_cluster_mi
from .trainer import EpochLog, TrainConfig, evaluate, fit

__version__ = "0.1.0"

__all__ = [
    "Dataset", "EpochLog", "MetricsReport", "ModelParams", "SyntheticSpec",
    "TrainConfig", "accuracy", "balance", "conditional_mi", "contingency", "encode",
    "evaluate", "f_beta", "fit", "full_report", "generate_synthetic", "group_cluster_mi",
    "init_params", "kmeans", "load_checkpoint", "load_csv", "minibatches", "mnce", "nmi",
    "save_checkpoint", "soft_assign",
]
