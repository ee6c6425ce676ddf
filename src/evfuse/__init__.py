"""Evidential multimodal fusion with heavy-tailed predictive distributions.

Per-modality Normal-Inverse-Gamma evidence heads, closed-form conversion to
Student's t predictive distributions, minimum-degrees-of-freedom fusion,
evidential losses with analytic gradients, and a small numpy training and
evaluation harness for two-modality tabular data.
"""

__version__ = "0.1.0"

from .distributions import (
    NIGParams,
    QuadratureConvergenceError,
    QuadratureSpec,
    StudentT,
    nig_aleatoric,
    nig_epistemic,
    nig_marginal_pdf_quadrature,
    nig_to_student_t,
    student_t_logpdf,
    student_t_pdf,
    student_t_variance,
)
from .fusion import FusedStudentT, fuse_many, fuse_pair, fused_prediction
from .losses import nig_nll, student_t_nll
from .model import (
    EncoderSpec,
    MultimodalClassifier,
    TrainConfig,
    TrainingDivergedError,
    train,
)
from .data import (
    CsvFormatError,
    CsvSchema,
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    save_csv,
    standardize,
)
from .evaluation import (
    MetricsReport,
    NoiseSpec,
    accuracy,
    cohen_kappa,
    ece,
    evaluate_model,
    inject_noise,
    noise_sweep,
    uncertainty_density,
)

__all__ = [
    "NIGParams",
    "StudentT",
    "QuadratureSpec",
    "QuadratureConvergenceError",
    "nig_aleatoric",
    "nig_epistemic",
    "nig_to_student_t",
    "student_t_pdf",
    "student_t_logpdf",
    "student_t_variance",
    "nig_marginal_pdf_quadrature",
    "FusedStudentT",
    "fuse_pair",
    "fuse_many",
    "fused_prediction",
    "nig_nll",
    "student_t_nll",
    "EncoderSpec",
    "TrainConfig",
    "MultimodalClassifier",
    "TrainingDivergedError",
    "train",
    "SyntheticSpec",
    "Dataset",
    "CsvSchema",
    "CsvFormatError",
    "generate_synthetic",
    "standardize",
    "save_csv",
    "load_csv",
    "MetricsReport",
    "NoiseSpec",
    "accuracy",
    "cohen_kappa",
    "ece",
    "inject_noise",
    "evaluate_model",
    "noise_sweep",
    "uncertainty_density",
]
