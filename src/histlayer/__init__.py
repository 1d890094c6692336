"""Trainable histogram context features on a minimal rank-4 autodiff engine."""

from .autodiff import (GradCheckResult, Parameter, ShapeError, Tensor, backward, grad_check,
                       sgd_step)
from .config import ConfigError, RunConfig
from .data import ContextDataset, SceneSpec, default_spec, generate, local_bayes_ceiling
from .histogram import (ComposedHistogram, HistogramParams, basis_eval,
                        hist_forward_direct, init_params)
from .networks import (Network, StageOutputs, evaluate, parameter_census, train_base,
                       two_phase_train)

__all__ = [
    "GradCheckResult", "Parameter", "ShapeError", "Tensor", "backward", "grad_check",
    "sgd_step",
    "ConfigError", "RunConfig",
    "ContextDataset", "SceneSpec", "default_spec", "generate", "local_bayes_ceiling",
    "ComposedHistogram", "HistogramParams", "basis_eval", "hist_forward_direct",
    "init_params",
    "Network", "StageOutputs", "evaluate", "parameter_census", "train_base",
    "two_phase_train",
]

__version__ = "0.1.0"
