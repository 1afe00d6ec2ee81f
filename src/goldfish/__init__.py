"""Solvable goldfish-type many-body systems.

Simulation of the particle, coefficient, and matrix-flow forms of the
goldfish family (direct integration and the spectral route through the
matrix companion), the exponential time substitution producing the
isochronous variants, closed-form equilibrium families, and exact
verification of the integer-spectrum results for the linearised
dynamics about the isochronous equilibria.
"""

from .dynamics import (
    CoefficientState,
    CollisionError,
    MatrixFlowState,
    ModelSpec,
    ParticleState,
    PeriodReport,
    SimulationResult,
    System,
    build_matrix_initial_data,
    detect_period,
    eval_rhs,
    simulate,
    trick_transform,
)
from .equilibria import (
    EquilibriumConfig,
    Family,
    enumerate_altgold_equilibria,
    enumerate_iso_equilibria,
    equilibrium_residual,
    genuineness_check,
)
from .linalg import (
    AmbiguousTrackingError,
    MovableSingularityError,
    TrackedPaths,
    Trajectory,
    eigenvalues,
    integrate_ode,
    track_trajectories,
)
from .polynomials import (
    CertificateError,
    GoldfishError,
    IntegerPolynomial,
    MonicPolynomial,
    PLAIN,
    RationalMatrix,
    TILDE,
    coeff_velocities,
    find_roots,
    from_roots,
    integer_roots,
    pencil_charpoly_exact,
)
from .spectrum import (
    QuadraticPencil,
    SpectralReport,
    build_pencil,
    solve_pencil_numeric,
    verify_conjectures,
    verify_integrality,
)

__version__ = "0.1.0"
