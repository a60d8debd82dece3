"""Exact invariants of configuration spaces.

Subpackages by topic:

- linalg: sparse exact linear algebra over Q, Z, and F_p
- graded: graded dimension tables, bigraded Poincare series, and the
  linear-combination class type behind arnold's and forests' classes
- arnold: the cohomology algebra of ordered configurations of points in R^n
- forests: the dual homology basis of rooted forests and the tall rewrite
- ce: Chevalley-Eilenberg complexes for unordered configurations in open
  manifolds, with their stable range
- braid: braid and symmetric group presentations, Reidemeister-Schreier
  subgroup presentations, Artin's faithfulness check
- modp: mod-p cohomology of cyclic and symmetric groups acting on
  configuration homology
- presets: bundled coefficient algebras for common manifolds
- selftest: the acceptance checks, runnable from the command line
"""

from .linalg import (
    QQ,
    ZZ,
    GF,
    SparseMatrix,
    rank,
    kernel_basis,
    smith_normal_form,
)
from .graded import GradedDims, PoincareSeries, sym_series
from .arnold import (
    CohomologyClass,
    generator,
    multiply,
    normal_form,
    admissible_basis,
    poincare_polynomial,
)
from .forests import (
    tall_basis,
    rewrite_to_tall,
    pairing_matrix,
    coinvariants_dims,
    unordered_betti_rational,
)
from .ce import (
    CAlgebra,
    load_algebra,
    build_gm,
    betti,
    stability_report,
    euler_series,
    sym_homology_odd,
    labeled_series_check,
)
from .braid import (
    Presentation,
    braid_presentation,
    symmetric_presentation,
    coset_table_from_hom,
    schreier_transversal,
    subgroup_presentation,
    artin_action,
    verify_paper_relations,
)
from .modp import (
    GModule,
    conf_module,
    tate,
    verify_vanishing,
    invariants_sigma_p,
    sigma_p_cohomology_stable,
    bar_cohomology,
    nakaoka_series,
    cohen_series,
    swan_period,
)
from .presets import list_presets, load_preset

__version__ = "0.1.0"

__all__ = [
    "QQ",
    "ZZ",
    "GF",
    "SparseMatrix",
    "rank",
    "kernel_basis",
    "smith_normal_form",
    "GradedDims",
    "PoincareSeries",
    "sym_series",
    "CohomologyClass",
    "generator",
    "multiply",
    "normal_form",
    "admissible_basis",
    "poincare_polynomial",
    "tall_basis",
    "rewrite_to_tall",
    "pairing_matrix",
    "coinvariants_dims",
    "unordered_betti_rational",
    "CAlgebra",
    "load_algebra",
    "build_gm",
    "betti",
    "stability_report",
    "euler_series",
    "sym_homology_odd",
    "labeled_series_check",
    "Presentation",
    "braid_presentation",
    "symmetric_presentation",
    "coset_table_from_hom",
    "schreier_transversal",
    "subgroup_presentation",
    "artin_action",
    "verify_paper_relations",
    "GModule",
    "conf_module",
    "tate",
    "verify_vanishing",
    "invariants_sigma_p",
    "sigma_p_cohomology_stable",
    "bar_cohomology",
    "nakaoka_series",
    "cohen_series",
    "swan_period",
    "list_presets",
    "load_preset",
    "__version__",
]
