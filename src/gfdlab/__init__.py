"""Numerical laboratory for growth-fragmentation-death population models.

Cells grow deterministically, divide into two fractions, and die. The
package computes the two faces of criticality for such models, the
principal eigenvalue of the population generator and the extinction
probability of the branching process, and cross-checks them against
Monte Carlo simulation and closed-form benchmark oracles.
"""

from .config import (AssumptionReport, ConfigError, DivisionRateModel,
                     EnvironmentRange, GrowthModel, ModelDefinition,
                     RunConfig, SimulationSettings, SolverSettings,
                     config_hash, load_config, validate_assumptions,
                     write_config)
from .cli import (SweepResult, SweepRow, check_consistency,
                  check_monotonicity, run_sweep)
from .extinction import (ExtinctionProfile, MassGrid, fixed_point_residual,
                         generation_curve, solve_extinction)
from .flow import JumpSampler, cumulative_rate, flow, hitting_time
from .kernels import (CouplingReport, DivisionKernel, check_coupling,
                      monotone_integral)
from .simulate import (MartingaleReport, SimulationLimits, SimulationOutcome,
                       SurvivalEstimate, estimate_survival, martingale_check,
                       simulate, wilson_interval)
from .spectral import (SpectralSolution, assemble_adjoint, assemble_operator,
                       eigen_residual, principal_eigenpair)
from . import benchmarks

__version__ = "0.1.0"
