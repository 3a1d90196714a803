"""Phase-mixing laboratory for 1D transport in a confining quartic potential."""

import os

# OpenBLAS starts its worker threads when NumPy is first imported, and each
# spins for about 0.15 s before it sleeps, so the CPU time of whatever runs
# next depends on how long the rest of the import took.  No pipeline makes
# a threaded BLAS or LAPACK call, so NumPy is loaded with one BLAS thread
# unless the environment says otherwise, and the environment is restored.
if "OPENBLAS_NUM_THREADS" in os.environ:
    import numpy
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .action_angle import (
    ChartError,
    ChartRangeError,
    OrbitChart,
    build_chart,
    chart_range_for_support,
    compute_c,
    compute_c_prime,
    exact_frequency,
    from_action_angle,
    rate_a,
    to_angle_energy,
)
from .flow import FlowError, flow_map
from .mixing import (
    DecayFit,
    FitError,
    fit_decay,
    q_fourier_spectrum,
    sup_phi_t,
)
from .moments import MomentCalculator, spatial_grid
from .potential import (
    PotentialParams,
    hamiltonian,
    invert_phi,
    phi,
)
from .transport import (
    InitialData,
    evaluate_f_actionangle,
    evaluate_f_characteristic,
    solution_bar,
)

__version__ = "0.1.0"
