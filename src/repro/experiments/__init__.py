"""Evaluation harnesses regenerating the paper's tables and figures."""

from .headlines import Headlines, compute_headlines, format_headlines
from .fixed_evals import FIXED_EVAL_FORMS, FixedEvalsStudy, figure4_series, run_fixed_evals
from .fixed_runtime import (
    RuntimeStudy,
    figure6_series,
    format_table2,
    format_table3,
    format_table4,
    format_table5,
    run_fixed_runtime,
)
from .model_accuracy import (
    ModelAccuracyStudy,
    PairModelAccuracy,
    figure5_series,
    format_table1,
    run_model_accuracy,
)
from .motivating import (
    Figure1Data,
    Figure3Data,
    IntroComparison,
    run_figure1,
    run_figure3,
    run_intro_comparison,
)
from .reporting import geometric_mean, render_table
from .setup import (
    PAPER_PAIRS,
    ExperimentSetup,
    PairSpec,
    paper_setup,
    quick_setup,
)

__all__ = [
    "PairSpec",
    "PAPER_PAIRS",
    "ExperimentSetup",
    "quick_setup",
    "paper_setup",
    "ModelAccuracyStudy",
    "PairModelAccuracy",
    "run_model_accuracy",
    "format_table1",
    "figure5_series",
    "Figure1Data",
    "Figure3Data",
    "run_figure1",
    "run_figure3",
    "IntroComparison",
    "run_intro_comparison",
    "FixedEvalsStudy",
    "FIXED_EVAL_FORMS",
    "run_fixed_evals",
    "figure4_series",
    "RuntimeStudy",
    "run_fixed_runtime",
    "format_table2",
    "format_table3",
    "format_table4",
    "format_table5",
    "figure6_series",
    "geometric_mean",
    "Headlines",
    "compute_headlines",
    "format_headlines",
    "render_table",
]
