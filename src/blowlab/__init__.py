"""Numerical laboratory for blowup in semilinear nonlocal diffusion.

The library builds semigroup kernels of convolution generators and
fractional Laplacians, evaluates the moment-threshold blowup criterion,
integrates the Cauchy problem spectrally with blowup detection, and checks
the closed-form constants and dimension asymptotics that the theory pins
down. `blowlab.cli` exposes all of it as subcommands; `blowlab.acceptance`
is the twelve-check release gate.
"""

from .errors import DomainError, ResolutionError
from .specfun import log_sphere_area, sphere_area
from .nonlinearity import (
    Nonlinearity,
    OsgoodTransform,
    fujita_exponent,
)
from .kernels import (
    Grid,
    GridFunction,
    KernelSpec,
    SemigroupKernel,
    StableProfile,
    semigroup_kernel,
    stable_profile,
)
from .norms import (
    MorreyResult,
    RadialProfile,
    concentration_values,
    morrey_norm_grid,
    radial_concentration,
    read_profile_csv,
)
from .stationary import (
    SingularSolution,
    singular_constant,
    singular_morrey_norm,
    singular_profile,
    stationary_residual,
)
from .asymptotics import (
    AsymptoticReport,
    K_fractional,
    L_fractional,
    sweep_K,
    sweep_L,
    window_lower_bound,
)
from .blowup import (
    BlowupVerdict,
    CriterionInput,
    evaluate_criterion,
    moment_at_zero,
)
from .solver import (
    DichotomySummary,
    JensenReport,
    SimConfig,
    Trajectory,
    dichotomy_experiment,
    jensen_report,
    run,
)

__version__ = "0.1.0"
