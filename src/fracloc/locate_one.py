"""Direct localization of a single inclusion from boundary measurements.

The algorithm probes the measurement I_Phi along exterior segments: for
a harmonic background U_j = a_j . x and a test function anchored at a
point P moving on a segment parallel to a_j, the measurement changes
sign exactly when P passes the orthogonal projection of the inclusion
center onto the segment.  Bisection finds that root on each of two
non-parallel segments, and the center is recovered by intersecting the
perpendicular axes through the roots (in 3D, the midpoint of the common
perpendicular of two skew axes, whose half-distance rho0 is reported).

root_on_segment and root_on_patch take a probe handle, which maps an
anchor P to the measurement against the test function anchored there.
locate_one_inclusion bisects both segments in lockstep instead: it
makes one ProbeTable (measure) per run, which takes the kernel's time
half once, and each bisection round takes one table of measurements,
every trace against the anchors of both segments (ProbeTable.measure),
and keeps its diagonal, each segment's anchor against its own trace.
All three go through one bisection, _bisect, of k brackets at once.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ReconstructionError
from .greenfn import GreenCoeffs
from .measure import ProbeTable


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


def probe_value(P, diff, coeffs: GreenCoeffs, n_terms: int = 3, gamma0: float = 1.0) -> float:
    """Measurement against the test function anchored at exterior point P."""
    return float(ProbeTable(diff, coeffs, n_terms, gamma0).measure([P], [diff])[0, 0])


def _bisect(f, fa, fb, tol: float) -> np.ndarray:
    """Sign-change bisection on [0, 1] of k brackets in lockstep.

    f maps k parameters, one per bracket, to the k values there; fa and
    fb are its k values at 0 and 1.  Each round halves every open bracket
    with one call of f, so all open brackets have the same width.  A
    bracket whose value is exactly 0 at an end or a midpoint closes
    there and keeps that parameter in later calls, whose values it
    ignores; one whose values are 0 at both ends is refused, since data
    without signal give 0 everywhere.  Returns the k roots: where a value
    was 0, else the final bracket midpoint; bracket j gets the root it
    gets bisected alone.
    """
    fa = np.asarray(fa, dtype=float)
    fb = np.asarray(fb, dtype=float)
    for j in np.flatnonzero((fa == 0.0) & (fb == 0.0)):
        raise ReconstructionError(
            f"probe values are 0 at both ends of bracket {j}; the data carry no signal"
        )
    root = np.where(fa == 0.0, 0.0, np.where(fb == 0.0, 1.0, np.nan))
    live = np.isnan(root)
    # the value at a keeps the sign of fa
    sign = np.copysign(1.0, fa)
    for j in np.flatnonzero(live & (sign == np.copysign(1.0, fb))):
        raise ReconstructionError(
            "probe values do not change sign over the patch "
            f"({fa[j]:.3e} and {fb[j]:.3e}); the projection falls outside or noise dominates"
        )
    a, b = np.zeros(fa.size), np.ones(fa.size)
    width = 1.0
    while width > tol and live.any():
        m = np.where(live, 0.5 * (a + b), root)
        fm = np.asarray(f(m), dtype=float)
        zero = live & (fm == 0.0)
        root[zero] = m[zero]
        live &= ~zero
        left = np.copysign(1.0, fm) == sign
        a, b = np.where(left, m, a), np.where(left, b, m)
        width *= 0.5
    root[live] = 0.5 * (a + b)[live]
    return root


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < 1.0:
        raise ConfigError(f"tolerance must lie in (0, 1), got {tol}")


def _check_one_span(segment: ProbeSegment) -> None:
    if len(segment.spans) != 1:
        raise ConfigError(f"bisection along a segment needs one span, got {len(segment.spans)}")


def root_on_segment(segment: ProbeSegment, probe, tol: float = 1e-6) -> np.ndarray:
    """Bisection root of the probe along a one-span segment."""
    _check_one_span(segment)
    _check_tol(tol)

    def f(params):
        return [probe(segment.point_at(s)) for s in params]

    (s_star,) = _bisect(f, f([0.0]), f([1.0]), tol)
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
        def g(params):
            return [probe_inner(segment.point_at(s, w)) for w in params]

        (w_star,) = _bisect(g, g([0.0]), g([1.0]), tol)
        return w_star

    def outer(params):
        return [probe_outer(segment.point_at(s, inner(s))) for s in params]

    (s_star,) = _bisect(outer, outer([0.0]), outer([1.0]), tol)
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
    with segments[j]; all of them lie on the same mesh and time grid.
    The segments are bisected in lockstep (_bisect): one ProbeTable per
    run, and per round one ProbeTable.measure of every trace against
    every anchor, whose diagonal pairs each segment's anchor with its own
    trace.  Each root is the one root_on_segment finds with that
    segment's probe_value.
    """
    if segments is None:
        segments = default_segments()
    if len(diffs) != len(segments):
        raise ConfigError(f"{len(diffs)} data traces for {len(segments)} segments")
    for seg in segments:
        _check_one_span(seg)
    _check_tol(tol)
    table = ProbeTable(diffs[0], coeffs, n_terms, gamma0)

    def f(params):
        anchors = [seg.point_at(s) for seg, s in zip(segments, params)]
        return np.diagonal(table.measure(anchors, diffs))

    k = len(segments)
    params = _bisect(f, f(np.zeros(k)), f(np.ones(k)), tol)
    P1, P2 = (seg.point_at(s) for seg, s in zip(segments, params))
    return intersect(P1, P2, segments)
