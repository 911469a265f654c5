"""Memory-rate tradeoffs and bit-exact simulation for multi-library broadcast caching."""

__version__ = "0.1.0"

from .allocation import (
    Allocation,
    AllocationStep,
    AllocationTrace,
    SweepResult,
    SweepSegment,
    brute_force_allocate,
    corner_structure_violations,
    greedy_allocate,
    greedy_split,
    lambda_sweep,
    memory_sharing_rate,
    proportional_allocation,
    split_rate,
)
from .bits import BitString, concat, random_bits
from .converse import (
    ConcatenatedLibrary,
    GapReport,
    concatenate,
    concatenated_cut_set_bound,
    concatenation_scale,
    conjecture_gap,
    converse_bound,
    sort_by_library_size,
    subfile_level,
)
from .model import (
    CapExceededError,
    DemandVector,
    LibrarySpec,
    NetworkConfig,
    config_from_json,
    config_to_json,
    enumerate_demands,
    load_config,
    to_fraction,
    total_content,
    validate,
)
from .sim import (
    DecodeMismatchError,
    DeliveryTranscript,
    DivisibilityError,
    FileStore,
    PlacementState,
    Plan,
    ReductionReport,
    RowPass,
    VerificationReport,
    decode,
    deliver,
    place,
    plan_split,
    random_file_store,
    reduction_demo,
    verify_all,
)
from .tradeoff import (
    PiecewiseLinearTradeoff,
    SchemeCurve,
    build_by_kind,
    build_exact_two_by_two,
    build_scheme_tradeoff,
    lower_convex_envelope,
    tradeoff_rows,
)

__all__ = [name for name in dir() if not name.startswith("_")]
