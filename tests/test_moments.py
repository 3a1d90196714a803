"""Velocity moments, potential reconstruction, and the two phi_t routes."""

import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from phasemix import MomentCalculator, evaluate_f_actionangle, spatial_grid
from phasemix import moments
from phasemix.moments import gauss_legendre, series_order, stream
from phasemix.experiment import Experiment, ExperimentConfig
from phasemix.mixing import sup_phi_t
from phasemix.potential import invert_phi, phi


@pytest.fixture(scope="module")
def grid(params):
    return spatial_grid(params, 0.5, 201)


@pytest.fixture(scope="module")
def calc(f0):
    return MomentCalculator(f0, 201, n_quad=128)


@pytest.fixture(scope="module")
def fine_calc(f0):
    return MomentCalculator(f0, 801, n_quad=128)


def test_spatial_grid_shape(params):
    g = spatial_grid(params, 0.5, 201)
    assert g.size == 201
    npt.assert_allclose(g[100], 0.0, atol=1e-15)
    npt.assert_allclose(g[-1], invert_phi(params, 2.0), rtol=1e-14)
    npt.assert_allclose(g, -g[::-1], atol=1e-15)
    # An even count has no node at x = 0, and the grid keeps the count asked for.
    with pytest.raises(ValueError):
        spatial_grid(params, 0.5, 200)


@pytest.mark.parametrize("grid_points", [1, 2, 200])
def test_node_set_needs_an_odd_grid_of_at_least_three_points(f0, grid_points):
    # Every moment reflects the x >= 0 half of the grid to x < 0, so the node
    # set's own grid keeps a node at x = 0 and one on either side.
    with pytest.raises(ValueError, match="odd number of nodes, at least 3"):
        MomentCalculator(f0, grid_points, n_quad=64)


def _legendre_node(n, x0):
    """The root of P_n next to ``x0`` and its Gauss weight, to 40 digits."""
    import mpmath

    def legendre(x):
        prev, p = mpmath.mpf(1), x
        for j in range(1, n):
            prev, p = p, ((2 * j + 1) * x * p - j * prev) / (j + 1)
        return p, prev

    with mpmath.workdps(40):
        x = mpmath.mpf(x0)
        for _ in range(20):
            p, prev = legendre(x)
            step = p * (x * x - 1) / (n * (x * p - prev))
            x -= step
            if abs(step) < mpmath.mpf(10) ** -35:
                break
        p, prev = legendre(x)
        slope = n * (x * p - prev) / (x * x - 1)
        return x, 2 / ((1 - x * x) * slope**2)


def test_gauss_legendre_is_built_once_and_read_only():
    # validate asks for the 128-node rule twice (velocity nodes, K nodes).
    x, w = gauss_legendre(128)
    again = gauss_legendre(128)
    assert again[0] is x and again[1] is w
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        w[0] = 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 17, 33, 64, 65, 128, 201, 512])
def test_gauss_legendre_against_mpmath(n):
    # Every node of the small rules, where the Bessel-zero first guess is
    # weakest (2.3e-4 at n = 2); else the 5 largest nodes and 3 middle ones
    # (0 for odd n).  NumPy's leggauss misses the weight bound at n = 512
    # (1.1e-10).
    import mpmath

    x, w = gauss_legendre(n)
    assert x.size == w.size == n
    assert np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert abs(w.sum() - 2.0) < 1e-14
    if n % 2:
        assert x[n // 2] == 0.0
    for i in range(n) if n < 64 else [*range(n - 5, n), n // 2 - 1, n // 2, n // 2 + 1]:
        node, weight = _legendre_node(n, x[i])
        assert abs(x[i] - node) < 2.5e-16, i
        assert abs(mpmath.mpf(w[i]) / weight - 1) < 1e-11, i


@pytest.mark.parametrize("n", [128, 201, 512])
def test_gauss_legendre_first_guess_ends_in_one_pass(n):
    # The guess's error grows toward the middle root (9.6e-11 at n = 128),
    # so the sample takes the 4 largest roots and the 8 middle ones.  Within
    # 1e-10, Newton's first step is below the stopping threshold 2e-8 / n.
    import mpmath

    theta = moments._first_guess(n)
    x = gauss_legendre(n)[0][::-1]
    worst = 0.0
    for i in [*range(4), *range(n // 2 - 8, n // 2)]:
        node, _ = _legendre_node(n, x[i])
        with mpmath.workdps(40):
            worst = max(worst, abs(float(mpmath.acos(node) - theta[i])))
    assert worst <= 1e-10
    assert moments._newton(n, theta)[2] == 1


def test_bessel_zero_table_is_mpmath_rounded():
    import mpmath

    assert moments._BESSEL_J0_ZEROS == tuple(float(mpmath.besseljzero(0, k)) for k in range(1, 11))


def _from_zero(x, y):
    """int_0^x y along the last axis by SciPy's cumulative_simpson at the
    step of a uniform grid, taken outward from x = 0 on each half of a grid
    with x = 0 at its centre."""
    from scipy.integrate import cumulative_simpson

    i0 = x.size // 2
    dx = x[i0 + 1]
    right = cumulative_simpson(y[..., i0:], dx=dx, initial=0.0)
    left = cumulative_simpson(y[..., i0::-1], dx=dx, initial=0.0)
    return np.concatenate((-left[..., :0:-1], right), axis=-1)


def _phi_t_reference(x, j):
    """phi_t of a current on the whole grid, by the reconstruction formula."""
    return _from_zero(x, j - j[..., x.size // 2, None])


def _half_against_scipy(y, x):
    """The x >= 0 half's integral from x = 0 at the step x[1] of its uniform
    nodes x, checked bit for bit against SciPy's rule at that step.  SciPy's
    rule on the nodes x themselves takes each node's own rounded spacing and
    its general-spacing arithmetic: they differ by rounding, 5.6e-15 of the
    largest value at most (801 nodes)."""
    from scipy.integrate import cumulative_simpson

    got = moments._cumulative_simpson(y, x[1])
    assert np.array_equal(got, cumulative_simpson(y, dx=x[1], initial=0.0))
    general = cumulative_simpson(y, x=x, initial=0.0)
    assert np.max(np.abs(got - general)) <= 6e-15 * np.max(np.abs(general))
    return got


def test_cumulative_from_zero_polynomial():
    x = np.linspace(0.0, 2.0, 201)
    # int_0^x 3 y**2 dy = x**3, exact for Simpson.
    npt.assert_allclose(_half_against_scipy(3.0 * x**2, x), x**3, atol=1e-13)


def test_cumulative_from_zero_smooth():
    x = np.linspace(0.0, 1.0, 401)
    npt.assert_allclose(_half_against_scipy(np.cos(x), x), np.sin(x), atol=1e-11)


@pytest.mark.parametrize("n", [3, 5, 201, 801])
def test_cumulative_from_zero_matches_scipy(params, n):
    # The x >= 0 half of the grid, which the potential and phi_t integrate
    # outward from x = 0 (two nodes at n = 3: the trapezoid).
    x = spatial_grid(params, 0.5, n)[n // 2 :]
    _half_against_scipy(np.random.default_rng(n).standard_normal((3, x.size)), x)


@pytest.mark.parametrize("case", ["m = 1", "m = 2", "eps = 0 control"])
def test_reflected_moments_match_scipy(experiment, harmonic_f0, case):
    # The potential and phi_t integrate the x >= 0 rows and reflect them to
    # x < 0; SciPy integrates the node set's density and current outward
    # from x = 0 on each half of the grid.  At one time both take the same
    # trig row sums, so phi_t, linear in the current alone, is exact where
    # the current is even in x (odd m).  phi splits off its mean part, for
    # even m the reference's j(0) is rounding, not 0, and the default scan's
    # times take the series, which applies the tables to the moment rows.
    f0 = experiment.f0
    data = {"m = 1": f0, "m = 2": dataclasses.replace(f0, m=2), "eps = 0 control": harmonic_f0}
    calc = MomentCalculator(data[case], 201, n_quad=128)
    grid = calc.x
    for t in (0.0, 7.3, 150.0, experiment.times):
        phi, phi_t = calc.potential(t), calc.phi_t(t)
        ref_phi = -_from_zero(grid, _from_zero(grid, calc.density(t)))
        ref_phi_t = _phi_t_reference(grid, calc.fields(t)[1])
        assert np.max(np.abs(phi - ref_phi)) <= 2e-15 * np.max(np.abs(ref_phi)), (case, t)
        if case == "m = 2" or np.ndim(t):
            assert np.max(np.abs(phi_t - ref_phi_t)) <= 2e-15 * np.max(np.abs(ref_phi_t)), (case, t)
        else:
            assert np.array_equal(phi_t, ref_phi_t), (case, t)


def test_density_even_at_t0(calc, grid):
    # The initial data is even in x (it depends on x through Phi only
    # after angle averaging at +-v pairs), so rho(0, .) is even.
    rho = calc.density(0.0)
    npt.assert_allclose(rho, rho[::-1], atol=1e-12)
    assert np.all(rho >= 0.0)


def test_density_vanishes_outside_support(f0, grid):
    edge = MomentCalculator(f0, 3, n_quad=128)
    assert np.array_equal(edge.x, [-grid[-1], 0.0, grid[-1]])
    rho = edge.density(0.0)
    assert abs(rho[0]) < 1e-14 and abs(rho[-1]) < 1e-14


def test_mass_conservation(fine_calc):
    from scipy.integrate import simpson

    fine = fine_calc.x
    m0 = simpson(fine_calc.density(0.0), x=fine)
    for t in (1.0, 10.0, 100.0):
        mt = simpson(fine_calc.density(t), x=fine)
        npt.assert_allclose(mt, m0, rtol=1e-8)


def test_mass_frozen_value(fine_calc):
    # Mass of the default data, frozen from converged quadrature and
    # cross-checked against the action-angle integral with the 1/c
    # Jacobian factor.
    from scipy.integrate import simpson

    fine = fine_calc.x
    m = simpson(fine_calc.density(0.0), x=fine)
    npt.assert_allclose(m, 1.8326594895451827, rtol=1e-7)


def test_current_odd_at_quarter_turn(calc, grid):
    # j is an odd moment; at t = 0 the sin(Q) modulation makes it odd
    # under x -> -x up to the angle asymmetry; just pin j(0) = 0 is not
    # generally true, so check the tail instead: j -> 0 at the support
    # edge.
    j = calc.fields(0.0)[1]
    assert abs(j[0]) < 1e-14 and abs(j[-1]) < 1e-14


def test_phi_pinned_at_origin(calc, grid):
    p = calc.potential(0.0)
    mid = grid.size // 2
    npt.assert_allclose(p[mid], 0.0, atol=1e-15)
    # -phi'' = rho: check curvature sign near the origin where rho > 0.
    assert p[mid + 1] + p[mid - 1] - 2.0 * p[mid] < 0.0


def test_phi_t_routes_converge(f0):
    calc = MomentCalculator(f0, 801, n_quad=512)
    t = 5.0
    ref = calc.phi_t(t)
    err = [
        float(np.max(np.abs(calc.phi_t_fd(t, dt) - ref)))
        for dt in (2e-3, 1e-3)
    ]
    assert 3.5 <= err[0] / err[1] <= 4.5


def test_series_assembles_everything(calc, grid):
    # evolve's columns over a schedule: one row per time of each moment,
    # from two streams where the moment methods take three; the current,
    # which has no method of its own, against its rows at one time.
    times = np.array([0.0, 1.0])
    fields = calc.fields(times)
    methods = (calc.density, lambda t: calc.fields(t)[1], calc.potential, calc.phi_t)
    for field, moment in zip(fields, methods):
        assert field.shape == (2, grid.size)
        npt.assert_allclose(field, moment(times), atol=1e-14)
        npt.assert_allclose(field[1], moment(1.0), atol=1e-14)


def test_node_sets_of_one_f0_share_one_band(f0, calc, fine_calc):
    # The band [r0 - h, r0 + h] is m c(K) over the support, from the chart,
    # so every node set of f0 expands in the same Chebyshev basis.
    others = [MomentCalculator(f0, n, n_quad=64) for n in (3, 51)]
    bands = {(c.r0, c.h) for c in (calc, fine_calc, *others)}
    lo, hi = f0.m * f0.chart.c_of_k([f0.h_min, f0.h_max])
    assert bands == {(0.5 * (hi + lo), 0.5 * (hi - lo))}


def test_n_quad_floor(f0):
    with pytest.raises(ValueError):
        MomentCalculator(f0, 201, n_quad=32)


@pytest.mark.parametrize("t", [0.0, 7.3, 150.0])
def test_node_set_matches_pointwise_route(params, f0, grid, t):
    # The cached pull-back of the x >= 0, v >= 0 quarter must reproduce
    # evaluating the solution afresh at every grid and velocity node and
    # summing with the Gauss weights, for an even node count and for odd
    # ones, which have a centre node v = 0.  The reference pulls (-x, v)
    # back itself, so it checks the reflection's signs, which depend on the
    # parity of m.
    # Both routes take the package's Gauss rule, so this checks how the
    # node set is assembled.  The two routes round differently (mirror pairs folded by a trig
    # identity against one node at a time), so the bound is relative to
    # the rounding scale of each sum, the quadrature of |f| and of |f v|.
    v_max = np.sqrt(np.clip(2.0 * (f0.h_max - phi(params, grid)), 0.0, None))
    for m in (1, 2):
        data = dataclasses.replace(f0, m=m)
        for n_quad in (128, 65, 129):
            case = (m, n_quad)
            calc = MomentCalculator(data, 201, n_quad=n_quad)
            nodes, w = gauss_legendre(n_quad)
            v = v_max[:, None] * nodes
            f = evaluate_f_actionangle(data, t, grid[:, None], v)
            rho, j = v_max * (f @ w), v_max * ((f * v) @ w)
            rho_scale = v_max * (np.abs(f) @ w)
            j_scale = v_max * (np.abs(f * v) @ w)
            assert np.all(np.abs(calc.density(t) - rho) <= 1e-14 * rho_scale), case
            assert np.all(np.abs(calc.fields(t)[1] - j) <= 1e-14 * j_scale), case
            batch = calc.density(np.array([t, t]))
            assert np.all(np.abs(batch - rho) <= 1e-14 * rho_scale), case


def test_reflection_parity_is_exact_for_huge_odd_m(f0):
    # m = 2^53 + 1 is odd, but as a float it rounds to the even 2^53.  For
    # an odd m the current is even in x: (-1)^(m+1) = 1.
    calc = MomentCalculator(dataclasses.replace(f0, m=2**53 + 1), 201, n_quad=64)
    j = calc.fields(0.0)[1]
    assert np.any(j != 0.0)
    npt.assert_array_equal(j[::-1], j)


def _order(calc, times):
    """The Jacobi-Anger order of one call over ``times``."""
    return moments._order(calc.h * np.max(np.abs(times)), times.size + 1)


def _rounding_scale(calc, amp):
    """The quadrature of |amp| at each grid node, the rounding scale of its sums."""
    rows = np.zeros(calc.abs_x.size)
    rows[calc.rows] = np.add.reduceat(np.abs(amp), calc.starts)
    return calc._to_grid(rows)


def _long_double_current(calc, times):
    """The current on the grid from row sums with long-double phases, trig and
    sums, reflected to x < 0 with the current's sign."""
    rate = calc.rate.astype(np.longdouble)
    rows = np.zeros((times.size, calc.abs_x.size), dtype=np.longdouble)
    for i, t in enumerate(times):
        vals = calc.j_amp.astype(np.longdouble) * np.cos(rate * np.longdouble(t))
        rows[i, calc.rows] = np.add.reduceat(vals, calc.starts)
    return calc._to_grid(rows, -calc._parity)


def _sup_phi_t_error(calc, times):
    """Largest relative error of the shipped sup_x |phi_t| at any time against
    SciPy's integral of the long-double current on the whole grid."""
    ref = _phi_t_reference(calc.x, _long_double_current(calc, times).astype(float))
    sup, _ = sup_phi_t(calc, times)
    sup_ref = np.max(np.abs(ref), axis=-1)
    return float(np.max(np.abs(sup - sup_ref) / sup_ref))


def test_fewer_times_than_order_take_exact_trig(calc):
    # Fewer times than the Jacobi-Anger order: the call is, bit for bit,
    # one call per time.
    times = np.array([3.0, 17.5, 42.0, 99.9, 150.0])
    assert times.size < _order(calc, times)
    npt.assert_array_equal(calc.density(times), [calc.density(t) for t in times])
    npt.assert_array_equal(calc.fields(times)[1], [calc.fields(t)[1] for t in times])


@pytest.fixture(scope="module")
def default_scan(experiment):
    """The default decay scan's node set and times."""
    return experiment.node_set, experiment.times


def test_default_scan_stays_near_exact_trig(default_scan):
    # Row by row, the Jacobi-Anger sum stays within 1e-13 of the rounding
    # scale of its sum, the quadrature of |amplitude|; the phase rounding
    # eps * m c t alone is about 2.5e-14 at t = 200.
    calc, times = default_scan
    assert series_order(calc, times) == _order(calc, times) == 43
    for name, moment, amp in (("density", calc.density, calc.rho_amp),
                              ("current", lambda t: calc.fields(t)[1], calc.j_amp)):
        exact = np.array([moment(t) for t in times])
        bound = 1e-13 * _rounding_scale(calc, amp)
        assert np.all(np.abs(moment(times) - exact) <= bound), name


def _hand_measure(counts):
    """A row measure built by hand, with no chart or pull-back: ``counts``
    nodes in each of five rows, with seeded rates across the band 1.1 +- 0.07,
    and seeded amplitudes."""
    rng = np.random.default_rng(5)
    counts = np.array(counts)
    rows = np.flatnonzero(counts)
    measure = SimpleNamespace(abs_x=np.linspace(0.0, 1.0, counts.size), rows=rows,
                              starts=(np.cumsum(counts) - counts)[rows], r0=1.1, h=0.07,
                              rate=rng.uniform(1.1 - 0.07, 1.1 + 0.07, counts.sum()))
    return measure, rng.standard_normal(counts.sum())


@pytest.mark.parametrize("case", ["fewer times than P", "trig by work", "series"])
def test_stream_of_a_hand_built_measure(case):
    # The stream against long-double sums of the measure's nodes, on both
    # routes, with its rows and with a table (a cumulative sum along the
    # rows); the series case takes two blocks.  Row 2 holds no node.
    few, many = (30, 50, 0, 40, 20), (80, 140, 0, 120, 60)
    measure, amp = _hand_measure(few if case == "trig by work" else many)
    times = np.linspace(0.0, 100.0, 1200)
    if case == "fewer times than P":
        times = np.array([3.0, 17.5, 99.9])
    order = _order(measure, times)
    assert (times.size < order) == (case == "fewer times than P")
    assert series_order(measure, times) == (order if case == "series" else 0)
    phase = np.multiply.outer(times.astype(np.longdouble), measure.rate.astype(np.longdouble))
    scale = np.zeros(measure.abs_x.size)
    scale[measure.rows] = np.add.reduceat(np.abs(amp), measure.starts)
    for part, trig in (("real", np.cos), ("imag", np.sin)):
        exact = np.zeros((times.size, measure.abs_x.size))
        exact[:, measure.rows] = np.add.reduceat(amp * trig(phase), measure.starts, axis=1)
        for table in (None, lambda rows: np.cumsum(rows, axis=-1)):
            got, blocks = np.full(exact.shape, np.nan), 0
            for lo, block in stream(measure, times, amp, part, table):
                got[lo : lo + block.shape[0]] = block
                blocks += 1
            assert blocks == (2 if case == "series" else 1)
            want, bound = (exact, scale) if table is None else (table(exact), table(scale))
            assert np.all(np.abs(got - want) <= 1e-13 * bound), (part, table)
            if table is None:
                assert np.all(got[:, 2] == 0.0)


def test_harmonic_scan_is_one_term(harmonic_f0):
    # At eps = 0 every node turns at the same rate: h = 0, one term.
    calc = MomentCalculator(harmonic_f0, 201, n_quad=128)
    times = np.linspace(0.0, 200.0, 41)
    assert calc.h == 0.0 and series_order(calc, times) == 1
    bound = 1e-13 * _rounding_scale(calc, calc.j_amp)
    exact = np.array([calc.fields(t)[1] for t in times])
    assert np.all(np.abs(calc.fields(times)[1] - exact) <= bound)


def test_sup_phi_t_against_long_double(default_scan):
    # sup_x |phi_t| is about 1e-5 of the node amplitudes, so the rounding of
    # the node sums shows relative to it: exact trig errs by 2.6e-12.
    calc, times = default_scan
    assert _sup_phi_t_error(calc, times) <= 2e-13


def test_long_scan_sup_phi_t_against_long_double():
    # The last 128 times of a t_max = 1000 scan at 201 x 512 (order 121);
    # exact trig errs by 1.1e-9.
    exp = Experiment(ExperimentConfig(v_quad=512, t_max=1000.0, fit_window=(20.0, 1000.0)))
    calc, times = exp.node_set, exp.times[-128:]
    assert series_order(calc, times) == _order(calc, times) > 0
    assert _sup_phi_t_error(calc, times) <= 1e-10


def test_series_scan_memory_is_blocked(f0):
    # 4,000 times to t = 4000 at order about 410: holding every time's
    # 2 * order + 2 DFT samples at once peaked at 125 MiB for a 1.6 MiB
    # result.  The series pays against trig with 1,024 velocity nodes; at
    # 512, trig, one tan a node and time, is the faster (0.19 s against 0.24 s).
    calc = MomentCalculator(f0, 51, n_quad=1024)
    times = np.linspace(0.0, 4000.0, 4000)
    assert series_order(calc, times) == 411
    tracemalloc.start()
    try:
        calc.fields(times)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _full_grid_sup(calc, times):
    """sup_x |phi_t| and |j(t, 0)| from SciPy's integral of the current on the
    whole grid."""
    j = calc.fields(times)[1]
    return np.max(np.abs(_phi_t_reference(calc.x, j)), axis=-1), np.abs(j[:, calc.x.size // 2])


@pytest.mark.parametrize("case", ["m = 1", "m = 2", "eps = 0 control", "fewer times than P"])
def test_streamed_scan_matches_full_grid(experiment, harmonic_experiment, case):
    # The streamed sup integrates the moment rows on the x >= 0 half, the
    # reference each time's current on the whole grid, so the two
    # round differently, at the scale of the node sums: relative to the
    # scan's largest sup they agree to about 1e-15.  Relative to each
    # time's own sup, which falls by 1e3 over the scan, the gap grows to
    # about 1e-13 (9e-13 at m = 3), with both routes equally far from
    # long-double sums.  The tail is the same sum, bit for bit.
    calc, times = experiment.node_set, experiment.times
    if case == "m = 2":
        calc = MomentCalculator(dataclasses.replace(experiment.f0, m=2), 201, n_quad=128)
    elif case == "eps = 0 control":
        calc, times = harmonic_experiment.node_set, harmonic_experiment.times
    elif case == "fewer times than P":
        times = np.array([3.0, 17.5, 42.0, 99.9, 150.0])
    route = {"m = 1": 43, "m = 2": 65, "eps = 0 control": 1, "fewer times than P": 0}
    assert series_order(calc, times) == route[case]
    sup, tail = sup_phi_t(calc, times)
    ref_sup, ref_tail = _full_grid_sup(calc, times)
    assert np.max(np.abs(sup - ref_sup)) <= 1e-13 * np.max(ref_sup)
    assert np.array_equal(tail, ref_tail)


def test_streamed_scan_memory(params, f0):
    # The 1,456-time t_max = 1000 scan at 201 x 128, order 124: the
    # full-grid route held every time's current and phi_t with their
    # Simpson temporaries at once (12.2 MiB traced); the stream holds one
    # block of times (3.9 MiB).
    exp = Experiment(ExperimentConfig(t_max=1000.0, fit_window=(20.0, 1000.0)))
    calc, times = exp.node_set, exp.times
    assert times.size == 1456 and series_order(calc, times) == 124
    tracemalloc.start()
    try:
        sup_phi_t(calc, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_route_by_work(default_scan):
    # Trig wherever it costs less than the series, not only with at most P
    # times.  At samples_per_period = 2 to t_max = 200000 (72,798 times,
    # P = 18,972) the series took 1,552 s (timed at P = 18,968, before the
    # band came from the chart); the config is built, not run.
    calc, times = default_scan
    assert series_order(calc, times) == 43
    long = Experiment(ExperimentConfig(samples_per_period=2.0, t_max=200000.0,
                                       fit_window=(20.0, 200000.0)))
    calc, times = long.node_set, long.times
    assert times.size == 72798
    assert _order(calc, times) == 18972 and series_order(calc, times) == 0
    # The resolved long scans keep the series.  Their counts (support nodes,
    # rows, times) are those of the 801 x 1024 and 1601 x 1024 node sets at
    # 17 samples per period, whose rates span the same band 2h: the route
    # reads only those counts and h, so measures of that shape stand in.
    for nodes, rows, t_max, order in ((174397, 400, 1000.0, 124), (348873, 800, 2000.0, 221)):
        measure = SimpleNamespace(h=calc.h, rate=np.zeros(nodes), starts=np.zeros(rows))
        times = np.linspace(0.0, t_max, round(3.094 * t_max))
        assert series_order(measure, times) == order
