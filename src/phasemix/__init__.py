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
    to_action_angle,
    to_angle_energy,
)
from .flow import FlowError, flow_map, orbit_period
from .mixing import (
    DecayReport,
    FitError,
    SpectrumEntry,
    VectorFieldProbe,
    fit_decay,
    q_fourier_spectrum,
    solution_bar,
    sup_phi_t,
    vector_field_norms,
)
from .moments import MomentCalculator, cumulative_from_zero, spatial_grid
from .potential import (
    PotentialParams,
    dphi,
    hamiltonian,
    invert_phi,
    phi,
)
from .transport import (
    InitialData,
    evaluate_f_actionangle,
    evaluate_f_characteristic,
    make_initial_data,
)

__version__ = "0.1.0"
