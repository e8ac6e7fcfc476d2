"""Identity catalog, evaluation engine, and mechanical derivations."""

from .catalog import STATIC_ERRATA, get_record, register_catalog
from .core import (
    Context,
    IdentityVerdict,
    PrintedFormUndefined,
    RINGS,
    eval_convolution_sum,
    get_context,
    parity_restriction_equivalence,
    printed_ratio,
    run_record,
    run_record_substituted,
    substitute_value,
)
from .derive import (
    COROLLARY_TO_THEOREM,
    THEOREM_TO_COROLLARY,
    convert_genocchi_to_bernoulli,
    derive_corollary,
    reindex_shift_two,
)
from .notation import IdentityRecord

__all__ = [
    "COROLLARY_TO_THEOREM",
    "Context",
    "IdentityRecord",
    "IdentityVerdict",
    "PrintedFormUndefined",
    "RINGS",
    "STATIC_ERRATA",
    "THEOREM_TO_COROLLARY",
    "convert_genocchi_to_bernoulli",
    "derive_corollary",
    "eval_convolution_sum",
    "get_context",
    "get_record",
    "parity_restriction_equivalence",
    "printed_ratio",
    "register_catalog",
    "reindex_shift_two",
    "run_record",
    "run_record_substituted",
    "substitute_value",
]
