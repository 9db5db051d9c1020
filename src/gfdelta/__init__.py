"""Higher-order finite differences over GF(p) and GF(p^m), plus a grid-based
cube attack engine for black-box keyed functions."""

from .combinat import (
    ZERO_FUNCTION,
    carry_count,
    degree_after_diff,
    diff_coefficient,
    digit_sum,
    multinomial_mod,
    nonzero_compositions,
)
from .diff import (
    DiffPlan,
    basis_step_sequence,
    blackbox_delta,
    delta,
    delta_plan,
    ext_diff_constant,
    inclusion_exclusion,
    superpoly_constants,
)
from .field import (
    ExtFieldSpec,
    FieldElement,
    FieldError,
    PrimeFieldSpec,
    basis_elements,
    ext_field,
    parse_field_spec,
    prime_field,
)
from .poly import (
    MultiPoly,
    format_poly,
    interpolate,
    parse_poly,
    random_poly,
)
from .attack import (
    BlackBox,
    MaxtermRecord,
    Verdict,
    extract_linear,
    gaussian_solve,
    linearity_test,
    online,
    preprocess,
)
from .reduce_pm import ProjectionContext, project_blackbox, verify_reduction
from .targets import ToyCipher, ToyCipherParams, make_planted

__version__ = "0.1.0"
