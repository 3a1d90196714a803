"""One experiment: a validated configuration and the objects it determines.

:class:`ExperimentConfig` is the whole experiment description and
round-trips through JSON.  :class:`Experiment` turns it into the
potential, the action-angle chart, the initial data, the quadrature
node set on the configured grid and the decay sample times.  The chart
and everything built on it are made on first use and kept, so one
experiment builds its chart once however many pipelines or checks use
it, and a command that never needs the chart never builds it.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .action_angle import (
    OrbitChart,
    build_chart,
    chart_range_for_support,
    compute_c_prime,
)
from .moments import MomentCalculator
from .potential import PotentialParams, invert_phi
from .transport import InitialData

__all__ = ["ConfigError", "ResolutionError", "ExperimentConfig", "Experiment"]

# Bounds on the work one config may ask for.  The resolved t_max = 2000
# run (1601 grid points x 1024 velocity nodes, 17 samples per period:
# 6,188 times) fits each.  Its node set pulls back only the x >= 0, v >= 0
# quarter of the 1.6 M velocity nodes (348,873 support nodes): 25 MiB
# traced by tracemalloc, about 16 bytes per grid point and velocity node,
# a process peak RSS of 57 MiB and 0.11-0.16 s on a 2-vCPU Xeon.  Its
# decay scan streams blocks of times and raises neither (1.0 s, 15 MiB
# traced), so MAX_SCAN bounds the scan's work, not its memory: each time
# costs about P multiply-adds per x >= 0 grid row (P = 221 there), or trig
# at every support node.
MAX_CHART_CELLS = 2**20   # n_k * n_chi, the chart's energy-angle table
MAX_NODES = 2**22         # grid_points * v_quad, the velocity nodes of the node set
MAX_SCAN = 2**24          # decay times * grid_points, the work of the scan
MAX_EVOLVE_ROWS = 2**20   # evolve_samples * grid_points, the rows of evolve.csv


class ConfigError(ValueError):
    """Malformed or out-of-range experiment configuration."""


class ResolutionError(RuntimeError):
    """A node set with no quadrature node inside the support annulus."""


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    real = isinstance(value, (int, float, np.integer, np.floating))
    return real and not isinstance(value, bool) and math.isfinite(value)


def _overflows(epsilon: float, c_s: float) -> bool:
    """Whether the potential overflows over the chart's energy range.

    The closed form's c' (and with it c) at both ends of the range and the
    support's turning point must evaluate without overflow, invalid values
    or division by zero, and be finite; underflow is harmless.
    """
    params = PotentialParams(epsilon)
    ends = np.array(chart_range_for_support(c_s))
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            values = (compute_c_prime(params, ends), invert_phi(params, 1.0 / c_s))
    except FloatingPointError:
        return True
    return not all(np.isfinite(v).all() for v in values)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full experiment description; round-trips losslessly through JSON.

    Frozen, so an :class:`Experiment` built from it never holds objects
    cached from values the config no longer has.
    """

    epsilon: float = 0.1
    c_s: float = 0.5
    alpha: float = 0.5
    m: int = 1
    n_k: int = 64
    n_chi: int = 512
    grid_points: int = 201
    v_quad: int = 128
    t_max: float = 200.0
    samples_per_period: float = 8.0
    fit_window: tuple[float, float] = (20.0, 200.0)
    evolve_samples: int = 41
    include_control: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("epsilon", "c_s", "alpha", "t_max", "samples_per_period"):
            if not _is_finite_real(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite number")
        if self.epsilon < 0:
            raise ConfigError("epsilon must be >= 0")
        if not 0 < self.c_s < 1:
            raise ConfigError("c_s must lie in (0, 1)")
        if _overflows(self.epsilon, self.c_s):
            raise ConfigError("epsilon and c_s overflow the potential over the chart's energy range")
        # At alpha = 0 the data has no mode m, so validate could never pass.
        if not 0 < self.alpha < 1:
            raise ConfigError("alpha must lie in (0, 1)")
        if not _is_int(self.m) or self.m < 1:
            raise ConfigError("m must be an integer >= 1")
        if self.m > sys.float_info.max:
            raise ConfigError("m overflows a float")
        if not _is_int(self.n_k) or self.n_k < 4:
            raise ConfigError("n_k must be an integer >= 4")
        if not _is_int(self.n_chi) or self.n_chi < 8 or self.n_chi % 2:
            raise ConfigError("n_chi must be an even integer >= 8")
        if not _is_int(self.grid_points) or self.grid_points < 3 or self.grid_points % 2 == 0:
            raise ConfigError("grid_points must be an odd integer >= 3")
        if not _is_int(self.v_quad) or self.v_quad < 64:
            raise ConfigError("v_quad must be an integer >= 64")
        if not _is_int(self.evolve_samples) or self.evolve_samples < 1:
            raise ConfigError("evolve_samples must be an integer >= 1")
        if self.n_k * self.n_chi > MAX_CHART_CELLS:
            raise ConfigError(f"n_k * n_chi must be <= {MAX_CHART_CELLS}")
        if self.grid_points * self.v_quad > MAX_NODES:
            raise ConfigError(f"grid_points * v_quad must be <= {MAX_NODES}")
        if self.evolve_samples * self.grid_points > MAX_EVOLVE_ROWS:
            raise ConfigError(f"evolve_samples * grid_points must be <= {MAX_EVOLVE_ROWS}")
        if self.t_max <= 0 or self.samples_per_period <= 0:
            raise ConfigError("time schedule parameters must be positive")
        if not isinstance(self.include_control, bool):
            raise ConfigError("include_control must be true or false")
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError("seed must be an integer >= 0")
        window = self.fit_window
        if not (isinstance(window, (list, tuple)) and len(window) == 2
                and all(_is_finite_real(w) for w in window)):
            raise ConfigError("fit_window must be two finite numbers")
        lo, hi = window
        if not 0 < lo < hi <= self.t_max:
            raise ConfigError("fit_window must satisfy 0 < lo < hi <= t_max")
        object.__setattr__(self, "fit_window", (float(lo), float(hi)))

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["fit_window"] = list(self.fit_window)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        for key in data:
            if key not in known:
                raise ConfigError(f"unknown config key: {key!r}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


@dataclass(eq=False)
class Experiment:
    """The objects one configuration determines, each built at most once.

    ``params``, ``chart``, ``f0``, ``period`` and ``node_set`` are built on
    first access and cached; a chart that fails to build raises
    :class:`ChartError` at each access.
    """

    cfg: ExperimentConfig

    @functools.cached_property
    def params(self) -> PotentialParams:
        return PotentialParams(self.cfg.epsilon)

    @functools.cached_property
    def chart(self) -> OrbitChart:
        """Action-angle chart over the support annulus plus its margin."""
        k_min, k_max = chart_range_for_support(self.cfg.c_s)
        return build_chart(self.params, k_min, k_max, n_k=self.cfg.n_k, n_chi=self.cfg.n_chi)

    @functools.cached_property
    def f0(self) -> InitialData:
        cfg = self.cfg
        return InitialData(cfg.c_s, cfg.alpha, cfg.m, self.chart)

    @functools.cached_property
    def period(self) -> float:
        """Orbital period 2*pi / c(K) at the middle of the support annulus."""
        k_mid = 0.5 * (self.cfg.c_s + 1.0 / self.cfg.c_s)
        return 2.0 * np.pi / float(self.chart.c_of_k(k_mid))

    @functools.cached_property
    def node_set(self) -> MomentCalculator:
        """Moments on the configured spatial grid with ``v_quad`` velocity nodes."""
        cfg = self.cfg
        nodes = f"grid_points = {cfg.grid_points} grid x v_quad = {cfg.v_quad} velocity nodes"
        return self.node_set_on(cfg.grid_points, cfg.v_quad, nodes)

    def node_set_on(self, grid_points: int, n_quad: int, nodes: str) -> MomentCalculator:
        """The node set of ``f0`` on ``grid_points`` uniform grid points with
        ``n_quad`` velocity nodes.

        Raises :class:`ResolutionError`, naming the ``nodes`` (the grid and
        velocity nodes), if none of them lies in the support annulus.
        """
        calc = MomentCalculator(self.f0, grid_points, n_quad)
        if calc.support_nodes == 0:
            raise ResolutionError(
                f"no node of the {nodes} lies in the support annulus [c_s, 1/c_s] "
                f"at c_s = {self.cfg.c_s!r}"
            )
        return calc

    @property
    def times(self) -> np.ndarray:
        """Decay sample times: ``samples_per_period`` per period up to ``t_max``.

        The count needs the period, so it is bounded here, before the
        times are allocated, rather than in the config.
        """
        step = self.period / self.cfg.samples_per_period
        count = np.floor(self.cfg.t_max / step) + 1
        if count * self.cfg.grid_points > MAX_SCAN:
            raise ConfigError(
                f"the decay scan needs {count:.3g} times x {self.cfg.grid_points} grid "
                f"points, over {MAX_SCAN}; lower t_max, samples_per_period or grid_points"
            )
        return step * np.arange(int(count))
