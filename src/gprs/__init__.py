"""Generalized projective Reed-Solomon codes over small finite fields.

Exact construction, error distances, covering radii, and deep-hole
characterizations with exhaustive verification sweeps.
"""

from .galois import (
    FieldElement,
    FiniteField,
    field,
    field_from_spec,
    field_of_order,
)
from .polynomial import Polynomial
from .matrix import Matrix, MdsCheckResult
from .codes import (
    BudgetExceededError,
    DEFAULT_DISTANCE_BUDGET,
    DEFAULT_MESSAGE_BUDGET,
    GprsCode,
    GrsCode,
    ReceivedWord,
)
from .deepholes import (
    DeepHoleVerdict,
    HypothesisError,
    WordFamilySpec,
    build_family_word,
    is_deep_hole_mds_extension,
    is_deep_hole_oracle,
    thm14_criterion,
    thm15_criterion,
    validate_verdict,
    vp_binomial,
    zero_sum_subset,
)
from .verify import SweepConfig, SweepReport, run_sweep

__version__ = "0.1.0"

__all__ = [
    "FieldElement",
    "FiniteField",
    "field",
    "field_from_spec",
    "field_of_order",
    "Polynomial",
    "Matrix",
    "MdsCheckResult",
    "BudgetExceededError",
    "DEFAULT_DISTANCE_BUDGET",
    "DEFAULT_MESSAGE_BUDGET",
    "GprsCode",
    "GrsCode",
    "ReceivedWord",
    "DeepHoleVerdict",
    "HypothesisError",
    "WordFamilySpec",
    "build_family_word",
    "is_deep_hole_mds_extension",
    "is_deep_hole_oracle",
    "thm14_criterion",
    "thm15_criterion",
    "validate_verdict",
    "vp_binomial",
    "zero_sum_subset",
    "SweepConfig",
    "SweepReport",
    "run_sweep",
    "__version__",
]
