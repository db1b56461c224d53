"""Fractal dimensions of attractors of continuous piecewise linear
iterated function systems on the real line."""

from .core import (
    AffineMap,
    BreakCode,
    Cplifs,
    PLMap,
    check_iosc,
    check_small,
    cylinder_arrays,
    cylinders,
    generated_ifs,
    image_interval,
    invariant_interval,
    level_sweep,
    regularity_diagnostic,
    verify_breaking_code,
)
from .errors import PlifsError
from .gdifs import (
    DetRecursion,
    DimConfig,
    DimReport,
    Gdifs,
    GdifsEdge,
    GdifsNode,
    alpha,
    associate_from_periodic,
    build_fixed_point_family,
    dim_report,
    esc_diagnostic,
    punctured_level,
    q_recursion,
    q_root,
)
from .oracle import (
    box_dimension,
    chaos_game,
    lebesgue_upper_bound,
    measure_evidence,
)
from .pressure import (
    NaturalDimEstimate,
    PressureProfile,
    natural_dimension,
    pressure_at,
    solve_level_root,
    upper_box_consistency,
)
from .specfile import format_spec, parse_spec, parse_spec_file

__version__ = "0.1.0"
