"""Phase-mixing laboratory for 1D transport in a confining quartic potential."""

from .action_angle import (
    ChartError,
    ChartRangeError,
    OrbitChart,
    build_chart,
    chart_range_for_support,
    compute_c,
    compute_c_prime,
    from_action_angle,
    from_angle_energy,
    rate_a,
    to_angle_energy,
)
from .flow import FlowError, flow_map, orbit_period
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
