"""FEM-FCT solvers for evolutionary convection-diffusion-reaction equations."""

from .assembly import (
    ProblemSpec,
    apply_dirichlet,
    assemble_laplacian,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
)
from .errors import (
    ErrorReport,
    ErrorWorkspace,
    dh_seminorm,
    eoc,
    time_integrate,
)
from .fct import (
    LimiterMatrix,
    MMatrixReport,
    PairGraph,
    artificial_diffusion,
    correction_vector,
    linear_fluxes,
    lump,
    m_matrix_check,
    predictor_half_step,
    prelimit,
    raw_fluxes,
    zalesak,
    zalesak_bounds,
)
from .mesh import (
    MeshError,
    TriMesh,
    build_friedrichs_keller,
    build_shifted_grid,
    edge_arrays,
    load_mesh,
    max_opposite_angle_sum,
    refine_uniform,
)
from .problems import ExactSolution, space_study_problem, time_study_problem
from .solver import Factorization, SolverError
from .stepper import (
    ConstantLimiter,
    SchemeKind,
    StepFailure,
    StepRecord,
    TimeLevel,
    TimeStepper,
    ZalesakLimiter,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
