"""Monte Carlo toolkit for optimal control of stochastic Volterra equations.

Forward simulation of memory-kernel state dynamics with Brownian and
compound Poisson noise, a discrete Malliavin calculus engine with
regression conditional expectations, adjoint BSDE solvers, Hamiltonian
evaluation and stationarity checks, and the construction of the optimal
portfolio in a linear wealth market with memory.
"""

from .errors import (
    CalibrationError,
    ConfigurationError,
    RegistrationError,
    RegressionError,
    SimulationError,
)
from .grids import JumpModel, PathBundle, TimeGrid, compensated_jump_integral, sample_paths
from .models import (
    CoefficientModel,
    ControlProcess,
    InfoMode,
    PerformanceSpec,
    UtilitySpec,
    registry_get,
)
from .volterra import (
    StateEnsemble,
    evaluate_performance,
    simulate_differential_form,
    simulate_integral_form,
)
from .malliavin import (
    Feature,
    RegressionBasis,
    check_chaos_derivative,
    check_duality_brownian,
    check_duality_jump,
    clark_ocone_reconstruct,
    conditional_expectation,
    d_brownian,
    d_jump,
    iterated_integral,
)

__version__ = "0.1.0"
