"""Seeded samplers for the relay-location processes.

Reproducibility contract
------------------------
Every sampler draws from ``numpy.random.Generator(numpy.random.Philox(key=seed))``,
a counter-based 64-bit generator with a documented, platform-stable stream.
Each spec states once how it draws its point count (one Poisson draw, when
it is random) and its squared norms r^2 (one uniform per point through the
inverse cdf - no rejection; the ring, all at one radius, draws none), and
``sample`` draws the count, then r^2, then one uniform per point for the
angle. Identical ``(spec, seed)`` therefore yields an identical
``RelayField`` everywhere; ``run_trials`` draws through ``DiscHomogeneous``.
"""
from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import ParameterError

__all__ = [
    "DiscHomogeneous",
    "DiscWithExclusion",
    "CircleHomogeneous",
    "GaussianCluster",
    "AnnulusUniform",
    "ProcessSpec",
    "RelayField",
    "sample",
    "sample_half_disc",
    "default_window_radius",
]

# numpy's Poisson sampler raises "lam value too large" above this mean
_MAX_MEAN_COUNT = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)
_LAST_UNIFORM = 1.0 - 2.0 ** -53  # the largest double Generator.random returns


def _check_sampleable(mean_count, scale_sq, largest_uniform_map=1.0):
    """Reject a spec whose mean count numpy cannot draw, or whose r^2 maps overflow or
    underflow: scale_sq is the squared outer scale (radius^2, or 2 sigma^2), and the
    largest r^2 is scale_sq times largest_uniform_map."""
    if not mean_count <= _MAX_MEAN_COUNT:
        raise ParameterError(f"mean count {mean_count:g} is above numpy's {_MAX_MEAN_COUNT:g}")
    if not scale_sq * largest_uniform_map < math.inf:
        raise ParameterError("the squared norm of a relay overflows")
    if not scale_sq >= sys.float_info.min:
        raise ParameterError("the squared norm of a relay underflows")


def _area_uniform_norm_sq(inner, outer, u):
    """r^2 of points uniform on the annulus between two radii."""
    return inner * inner + (outer * outer - inner * inner) * u


class _PoissonCount:
    """A spec whose point count is Poisson with mean ``mean_count``."""

    def draw_count(self, rng: np.random.Generator) -> int:
        return rng.poisson(self.mean_count)


@dataclass(frozen=True)
class DiscHomogeneous(_PoissonCount):
    """Homogeneous Poisson field of the given intensity, clipped to a disc."""

    intensity: float
    radius: float

    def __post_init__(self):
        if not self.intensity > 0:
            raise ParameterError(f"intensity must be positive, got {self.intensity}")
        if not self.radius > 0:
            raise ParameterError(f"radius must be positive, got {self.radius}")
        _check_sampleable(self.mean_count, self.radius * self.radius)

    @property
    def mean_count(self) -> float:
        return self.intensity * math.pi * self.radius * self.radius

    def draw_norm_sq(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Squared norms of ``n`` points, one radial uniform each from ``rng``."""
        return (self.radius * self.radius) * rng.random(n)


@dataclass(frozen=True)
class DiscWithExclusion(_PoissonCount):
    """Homogeneous Poisson field on a disc minus a central exclusion disc."""

    intensity: float
    exclusion_radius: float
    radius: float

    def __post_init__(self):
        if not self.intensity > 0:
            raise ParameterError(f"intensity must be positive, got {self.intensity}")
        if not 0 <= self.exclusion_radius < self.radius:
            raise ParameterError(
                f"need 0 <= exclusion_radius < radius, got {self.exclusion_radius}, {self.radius}")
        _check_sampleable(self.mean_count, self.radius * self.radius)

    @property
    def mean_count(self) -> float:
        r0 = self.exclusion_radius
        return self.intensity * math.pi * (self.radius * self.radius - r0 * r0)

    def draw_norm_sq(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return _area_uniform_norm_sq(self.exclusion_radius, self.radius, rng.random(n))


@dataclass(frozen=True)
class CircleHomogeneous(_PoissonCount):
    """Poisson number of points spread uniformly on a circle line."""

    intensity: float
    radius: float

    def __post_init__(self):
        if not self.intensity > 0 or not self.radius > 0:
            raise ParameterError("intensity and radius must be positive")
        _check_sampleable(self.mean_count, self.radius * self.radius)

    @property
    def mean_count(self) -> float:
        return 2.0 * math.pi * self.intensity * self.radius

    def draw_norm_sq(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Every point at the one radius: no uniform is drawn."""
        return np.full(n, self.radius * self.radius)


@dataclass(frozen=True)
class GaussianCluster(_PoissonCount):
    """Poisson cluster around the origin with Gaussian radial fall-off.

    Radial law Rayleigh(spread); mean point count ``mean_count``.
    """

    mean_count: float
    spread: float

    def __post_init__(self):
        if not self.mean_count > 0 or not self.spread > 0:
            raise ParameterError("mean_count and spread must be positive")
        _check_sampleable(self.mean_count, 2.0 * self.spread * self.spread,
                          -math.log1p(-_LAST_UNIFORM))

    def draw_norm_sq(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return (-2.0 * self.spread * self.spread) * np.log1p(-rng.random(n))


@dataclass(frozen=True)
class AnnulusUniform:
    """Exactly ``count`` points uniform on the annulus between two radii."""

    inner_radius: float
    outer_radius: float
    count: int

    def __post_init__(self):
        if not 0 <= self.inner_radius < self.outer_radius:
            raise ParameterError(
                f"need 0 <= inner_radius < outer_radius, got "
                f"{self.inner_radius}, {self.outer_radius}")
        if not self.count >= 0:
            raise ParameterError(f"count must be non-negative, got {self.count}")
        _check_sampleable(0.0, self.outer_radius * self.outer_radius)

    def draw_count(self, rng: np.random.Generator) -> int:
        return self.count

    def draw_norm_sq(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return _area_uniform_norm_sq(self.inner_radius, self.outer_radius, rng.random(n))


ProcessSpec = Union[DiscHomogeneous, DiscWithExclusion, CircleHomogeneous,
                    GaussianCluster, AnnulusUniform]


@dataclass(frozen=True, eq=False)
class RelayField:
    """One realization: an (n, 2) float array plus its generating spec/seed.

    ``sample`` makes ``points`` read-only, so quantities derived from it can be
    kept in ``derived`` (``policies.select`` keeps each half-distance's geometry).
    Equality is identity, so a field is hashable; compare ``points`` for values.
    """

    points: np.ndarray
    spec: object
    seed: int
    derived: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def to_csv(self, path) -> None:
        """Write one ``x,y`` row per relay (debug aid)."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("x,y\n")
            for x, y in self.points:
                fh.write(f"{x:.17g},{y:.17g}\n")


_per_thread = threading.local()  # each thread's own Philox and the Generator over it


def _generator(seed: int) -> np.random.Generator:
    """The stream of ``Generator(Philox(key=seed))``, from the calling thread's
    Philox reset to key [seed, 0] and counter 0; constructing a Philox would
    first draw an unused seed from OS entropy. Valid until the thread's next call."""
    key = int(np.uint64(seed))  # rejects what Philox(key=np.uint64(seed)) rejects
    try:
        bits, rng = _per_thread.philox
    except AttributeError:
        bits = np.random.Philox(key=key)
        rng = np.random.Generator(bits)
        _per_thread.philox = bits, rng
    bits.state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": [key, 0]},
                  "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


def _polar_field(radii: np.ndarray, angles: np.ndarray, spec, seed) -> RelayField:
    points = np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))
    points.flags.writeable = False
    return RelayField(points, spec, int(seed))


def sample(spec: ProcessSpec, seed: int) -> RelayField:
    """Draw one realization of ``spec`` from its dedicated Philox stream."""
    rng = _generator(seed)
    n = spec.draw_count(rng)
    radii = np.sqrt(spec.draw_norm_sq(rng, n))  # drawn before the angles
    return _polar_field(radii, 2.0 * math.pi * rng.random(n), spec, seed)


def sample_half_disc(intensity: float, radius: float, side: str, seed: int) -> RelayField:
    """Homogeneous Poisson points on the left or right half of a disc."""
    spec = DiscHomogeneous(intensity, radius)
    if side not in ("left", "right"):
        raise ParameterError(f"side must be 'left' or 'right', got {side!r}")
    rng = _generator(seed)
    n = rng.poisson(spec.mean_count / 2.0)
    radii = np.sqrt(spec.draw_norm_sq(rng, n))
    base = math.pi / 2.0 if side == "left" else -math.pi / 2.0
    angles = base + math.pi * rng.random(n)
    return _polar_field(radii, angles, spec, seed)


def default_window_radius(intensity: float, half_distance: float) -> float:
    """Simulation disc radius with negligible truncation of the best-CQI law.

    The best-CQI density has a Gaussian-type tail, so a window a few multiples
    of both the geometry scale and the mean inter-point spacing leaves no
    measurable mass outside.
    """
    return max(6.0 * half_distance, 6.0 / math.sqrt(intensity))
