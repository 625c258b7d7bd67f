"""Robust superhedging on finite scenario trees.

Dual dynamic programming over martingale-type measure families, exact LP
oracles, primal hedge extraction, and the divergence counterexample showing
the martingale family is not stable under naive kernel pasting.
"""

from .market_tree import (
    NEG_INF,
    MarketTree,
    build_tree,
    validate_stopping_time,
)
from .measure_families import (
    ALL,
    MARTINGALE,
    VAR_BOUNDED,
    FamilySpec,
    Kernel,
    TreeMeasure,
    bifurcate,
    chargeable_children,
    in_family,
    is_martingale_kernel,
    kernel_mean,
    kernel_variance,
    paste,
    polar_paths,
    rcpd,
    truncate_kernels,
)
from .dual_dp import backward_value, check_supermartingale, check_tower, one_step_sup
from .oracle_lp import enumerate_vertex_kernels, ess_sup_check, global_sup_lp
from .primal_hedge import (
    Strategy,
    doob_meyer,
    extract_strategy,
    primal_lp,
    verify_superhedge,
    wealth,
)
from .claims import make_claim

__version__ = "0.1.0"
