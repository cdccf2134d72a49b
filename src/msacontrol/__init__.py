"""Modified successive approximations for stochastic recursive optimal control."""

from .adjoint import (FirstOrderAdjoint, SecondOrderAdjoint, empirical_knorm,
                      explicit_p0_oracle, first_order_adjoint, lq_second_order_ode,
                      ode_adjoint_linear, second_order_adjoint, second_order_vanishes)
from .benchmarks import TreeModel, tree_backend, tree_batch, tree_bruteforce
from .bsde import (BackwardPaths, ExactTreeBackend, RegressionBackend, pathwise_cost,
                   solve_bsde, solve_state_bsde)
from .errors import ConfigurationError, NumericalError, SimulationError
from .model import (Bounds, Box, ControlDomain, DerivativeReport, Derivatives,
                    FiniteSet, ProblemSpec, Structure, check_derivatives,
                    enumerate_controls)
from .msa import (GapReport, IterationRecord, MsaConfig, MsaResult, RunHints,
                  compute_mu, near_optimality_gap, run_msa)
from .problems import (Benchmark, example41, example41_rho, linear_recursive_problem,
                       linrec_desk, lq_desk, lq_problem)
from .stochastics import (BrownianBatch, ControlField, ForwardPaths, TimeGrid,
                          constant_control, random_control, sample_brownian,
                          simulate_forward)

__version__ = "0.1.0"
