"""Verification workbench for a loop-algebra deformed spin chain.

Dense constructions of the generators, R-matrices, and open/closed transfer
matrices; numerical solvers for both families of Bethe equations; symmetry
and degeneracy measurements; algebraic Bethe ansatz states with determinant
formulas; and reference tables with a reproduction harness.
"""

from .core import (
    DomainError,
    ModelParams,
    SolverError,
    loop_parameter,
    omega,
    solve_deformation,
    zeta,
)
from .operators import hamiltonian, r_matrix, tl_generator
from .transfer import hamiltonian_from_transfer, transfer_matrix
from .bethe import (
    BetheSolution,
    bethe_residuals,
    energy,
    eval_lambda,
    twist_from_roots,
)
from .solver import (
    SearchConfig,
    expected_census,
    predicted_degeneracy,
    refine,
    solve_all_closed,
    solve_all_open,
    solve_sector_closed,
)
from .symmetry import check_symmetry
from .aba import (
    bethe_vector,
    check_highest_weight,
    norm_squared,
    scalar_product,
)
from .report import (
    RunConfig,
    build_closed_spectrum,
    build_open_spectrum,
    build_table_report,
)
from .suites import run_suite, run_suites

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "SolverError",
    "ModelParams",
    "omega",
    "zeta",
    "loop_parameter",
    "solve_deformation",
    "tl_generator",
    "hamiltonian",
    "r_matrix",
    "transfer_matrix",
    "hamiltonian_from_transfer",
    "BetheSolution",
    "bethe_residuals",
    "eval_lambda",
    "energy",
    "twist_from_roots",
    "SearchConfig",
    "solve_sector_closed",
    "solve_all_open",
    "solve_all_closed",
    "refine",
    "expected_census",
    "predicted_degeneracy",
    "check_symmetry",
    "bethe_vector",
    "check_highest_weight",
    "scalar_product",
    "norm_squared",
    "RunConfig",
    "build_open_spectrum",
    "build_closed_spectrum",
    "build_table_report",
    "run_suite",
    "run_suites",
    "__version__",
]
