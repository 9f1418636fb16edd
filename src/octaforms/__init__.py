"""Octagonal forms: representation, tight universality, and lattice transfer."""

from .polygonal import (
    ResourceBudgetError,
    build_sieve,
    build_sieves,
    coeff_vector,
    insert_sorted,
    is_proper_subsequence,
    missing_in_range,
    octagonal_numbers_up_to,
    polygonal_number,
    represents,
    witness,
)
from .escalation import (
    DEFAULT_BOUND,
    CriterionSet,
    EscalationDepthError,
    EscalationTrace,
    Verdict,
    check_tight_universal,
    criterion_set,
    psi,
    run_escalation,
    tight_verdicts,
)
from .tables import verify_z_rows

__version__ = "0.1.0"
