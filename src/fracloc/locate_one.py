"""Direct localization of a single inclusion from boundary measurements.

The algorithm probes the measurement I_Phi along exterior segments: for
a harmonic background U_j = a_j . x and a test function anchored at a
point P moving on a segment parallel to a_j, the measurement changes
sign exactly when P passes the orthogonal projection of the inclusion
center onto the segment.  Bisection finds that root on each of two
non-parallel segments, and the center is recovered by intersecting the
perpendicular axes through the roots (in 3D, the midpoint of the common
perpendicular of two skew axes, whose half-distance rho0 is reported).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ReconstructionError
from .greenfn import GreenCoeffs
from .measure import KernelProbe, measurement_boundary


@dataclass(frozen=True)
class ProbeSegment:
    """Exterior probe patch: a segment (one span) or a rectangle (two spans).

    ``direction`` is the background vector a_j paired with this patch;
    roots of the probe along the patch mark the projection of the
    inclusion center in that direction.
    """

    index: int
    direction: tuple
    origin: tuple
    spans: tuple

    def __post_init__(self):
        direction = tuple(float(v) for v in self.direction)
        origin = tuple(float(v) for v in self.origin)
        spans = tuple(tuple(float(v) for v in s) for s in self.spans)
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "spans", spans)
        d = len(origin)
        if d not in (2, 3):
            raise ConfigError(f"probe patches live in 2 or 3 dimensions, got {d}")
        if len(direction) != d or any(len(s) != d for s in spans):
            raise ConfigError("direction and spans must match the origin dimension")
        if len(spans) not in (1, 2):
            raise ConfigError(f"need 1 span (segment) or 2 (rectangle), got {len(spans)}")
        if np.linalg.norm(direction) == 0.0:
            raise ConfigError("background direction must be nonzero")
        mat = np.array(spans)
        if np.linalg.matrix_rank(mat, tol=1e-12) < len(spans):
            raise ConfigError("patch spans are linearly dependent")
        # the whole patch must stay outside the closed unit ball
        grids = np.meshgrid(*[np.linspace(0.0, 1.0, 17)] * len(spans), indexing="ij")
        params = np.stack([g.ravel() for g in grids], axis=1)
        pts = np.array(origin) + params @ mat
        if np.min(np.linalg.norm(pts, axis=1)) <= 1.0:
            raise ConfigError("probe patch touches the closed domain")

    @property
    def dim(self) -> int:
        return len(self.origin)

    def point_at(self, *params) -> np.ndarray:
        if len(params) != len(self.spans):
            raise ConfigError(f"patch takes {len(self.spans)} parameters, got {len(params)}")
        p = np.array(self.origin)
        for s, span in zip(params, self.spans):
            p = p + s * np.array(span)
        return p

    def axis_normal(self) -> np.ndarray:
        """Unit vector orthogonal to the patch (the probe-axis direction)."""
        if self.dim == 2:
            sx, sy = self.spans[0]
            n = np.array([-sy, sx])
        else:
            if len(self.spans) == 1:
                raise ConfigError("a 3D segment has no unique normal; use a rectangle")
            n = np.cross(np.array(self.spans[0]), np.array(self.spans[1]))
        return n / np.linalg.norm(n)


@dataclass(frozen=True)
class Reconstruction1:
    """Recovered center P with the per-segment roots that produced it."""

    P: np.ndarray
    P1: np.ndarray
    P2: np.ndarray
    rho0: float

    def __post_init__(self):
        for name in ("P", "P1", "P2"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.rho0 < 0.0:
            raise ConfigError(f"rho0 must be nonnegative, got {self.rho0}")
        if np.linalg.norm(self.P) > 1.0 + 1e-9:
            raise ReconstructionError(
                f"reconstructed point {self.P} lies outside the closed domain"
            )


def _check_distance(distance: float) -> None:
    if distance <= 1.0:
        raise ConfigError(f"segment distance must exceed 1, got {distance}")


def default_segments(distance: float = 2.0) -> tuple:
    """Axis-aligned probe segments at the given coordinate distance.

    Segment 0 is horizontal (paired with background (1,0).x), segment 1
    vertical (paired with (0,1).x); each spans the projection [-1, 1]
    of the unit disk.
    """
    _check_distance(distance)
    seg1 = ProbeSegment(
        index=0,
        direction=(1.0, 0.0),
        origin=(-1.0, distance),
        spans=((2.0, 0.0),),
    )
    seg2 = ProbeSegment(
        index=1,
        direction=(0.0, 1.0),
        origin=(distance, -1.0),
        spans=((0.0, 2.0),),
    )
    return seg1, seg2


def probe_value(
    P,
    diff,
    coeffs: GreenCoeffs,
    n_terms: int = 3,
    gamma0: float = 1.0,
) -> float:
    """Measurement against the test function anchored at exterior point P."""
    P = np.asarray(P, dtype=float)
    if np.linalg.norm(P) <= 1.0:
        raise ConfigError(f"probe anchor {P} must lie outside the closed domain")
    probe = KernelProbe(
        coeffs=coeffs,
        n_terms=n_terms,
        source=P,
        t_final=diff.grid.t_final,
        gamma0=gamma0,
    )
    return measurement_boundary(diff, probe.normal_derivative, gamma0).value


def _bisect(f, fa: float, fb: float, tol: float):
    """Sign-change bisection on [0, 1]; returns the bracket midpoint."""
    if fa == 0.0:
        return 0.0
    if fb == 0.0:
        return 1.0
    if math.copysign(1.0, fa) == math.copysign(1.0, fb):
        raise ReconstructionError(
            "probe values do not change sign over the patch "
            f"({fa:.3e} and {fb:.3e}); the projection falls outside or noise dominates"
        )
    a, b = 0.0, 1.0
    while b - a > tol:
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return m
        if math.copysign(1.0, fm) == math.copysign(1.0, fa):
            a, fa = m, fm
        else:
            b = m
    return 0.5 * (a + b)


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < 1.0:
        raise ConfigError(f"tolerance must lie in (0, 1), got {tol}")


def root_on_segment(segment: ProbeSegment, probe, tol: float = 1e-6) -> np.ndarray:
    """Bisection root of the probe along a one-span segment."""
    if len(segment.spans) != 1:
        raise ConfigError("root_on_segment needs a one-span segment")
    _check_tol(tol)

    def f(s):
        return probe(segment.point_at(s))

    s_star = _bisect(f, f(0.0), f(1.0), tol)
    return segment.point_at(s_star)


def root_on_patch(
    segment: ProbeSegment, probe_inner, probe_outer, tol: float = 1e-6
) -> np.ndarray:
    """Two-probe root on a rectangle by nested bisection.

    probe_inner must change sign along the second span on every slice of
    the first; its zero curve w*(s) reduces probe_outer to one variable,
    which an outer bisection solves.
    """
    if len(segment.spans) != 2:
        raise ConfigError("root_on_patch needs a two-span rectangle")
    _check_tol(tol)

    def inner(s):
        def g(w):
            return probe_inner(segment.point_at(s, w))

        return _bisect(g, g(0.0), g(1.0), tol)

    def outer(s):
        return probe_outer(segment.point_at(s, inner(s)))

    s_star = _bisect(outer, outer(0.0), outer(1.0), tol)
    return segment.point_at(s_star, inner(s_star))


def intersect(P1, P2, segments) -> Reconstruction1:
    """Intersect the probe axes through the two per-segment roots.

    The axis through each root runs orthogonal to its patch.  In 2D two
    non-parallel lines meet exactly (rho0 = 0); in 3D the two skew lines
    are joined by their common perpendicular, whose midpoint is returned
    with rho0 half its length.
    """
    P1 = np.asarray(P1, dtype=float)
    P2 = np.asarray(P2, dtype=float)
    seg1, seg2 = segments
    n1 = seg1.axis_normal()
    n2 = seg2.axis_normal()
    w0 = P2 - P1
    A = np.array([[n1 @ n1, -(n1 @ n2)], [n1 @ n2, -(n2 @ n2)]])
    if abs(np.linalg.det(A)) < 1e-12:
        raise ReconstructionError("probe axes are parallel; the roots do not intersect")
    t, s = np.linalg.solve(A, np.array([w0 @ n1, w0 @ n2]))
    q1 = P1 + t * n1
    q2 = P2 + s * n2
    return Reconstruction1(
        P=0.5 * (q1 + q2), P1=P1, P2=P2, rho0=0.5 * float(np.linalg.norm(q1 - q2))
    )


def locate_one_inclusion(
    diffs,
    coeffs: GreenCoeffs,
    segments=None,
    n_terms: int = 3,
    tol: float = 1e-6,
    gamma0: float = 1.0,
) -> Reconstruction1:
    """Full 2D pipeline: per-segment roots of the measured data, then intersect.

    diffs[j] is the boundary trace of u - U for the background paired
    with segments[j].
    """
    if segments is None:
        segments = default_segments()
    if len(diffs) != len(segments):
        raise ConfigError(f"{len(diffs)} data traces for {len(segments)} segments")
    roots = []
    for seg, diff in zip(segments, diffs):
        roots.append(
            root_on_segment(seg, lambda P: probe_value(P, diff, coeffs, n_terms, gamma0), tol)
        )
    return intersect(roots[0], roots[1], segments)
