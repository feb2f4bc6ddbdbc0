"""Graded triangulations of the unit disk with embedded inclusion interfaces.

The mesh is built as a Delaunay triangulation of a structured point
cloud: the polygonal outer circle at the coarse size, arc-equidistributed
rings on every inclusion interface at the fine size, concentric fill
inside each inclusion, geometrically growing offset rings outside, and a
hexagonal background lattice.  Points are accepted in that priority
order with a nearest-neighbour dedup pass, so interface nodes are never
displaced and the triangulation conforms to the inclusion boundaries:
every triangle ends up wholly inside or wholly outside each inclusion
(verified after construction, not assumed).

Conductivity regions are tagged per triangle: -1 for background, the
inclusion index otherwise.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import interp1d
from scipy.spatial import Delaunay, cKDTree

from .errors import ConfigError, MeshError
from .textfile import write_hashed

_RING_STEP = 0.85  # radial ring spacing as a fraction of the local size
_RING_GROWTH = 1.45  # geometric growth of offset rings beyond 2 eps
_DEDUP = 0.55  # drop a candidate closer than this fraction of its size
MIN_CLEARANCE = 0.05  # least gap between inclusions and to the unit circle


@dataclass(frozen=True)
class Inclusion:
    """One small conductivity inclusion.

    Disk (aspect 1): |x - center| < eps.  Ellipse with aspect ratio ``aspect``:
    (a - c1)^2 / aspect + aspect (b - c2)^2 < eps^2, which has area
    pi eps^2 and semi-axes eps sqrt(aspect), eps / sqrt(aspect).
    """

    center: tuple
    eps: float
    gamma: float
    aspect: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))
        if not self.eps > 0.0:
            raise ConfigError(f"inclusion size must be positive, got {self.eps}")
        if not self.gamma > 0.0:
            raise ConfigError(f"inclusion conductivity must be positive, got {self.gamma}")
        if not self.aspect >= 1.0:
            raise ConfigError(f"aspect ratio must be >= 1, got {self.aspect}")

    @property
    def semi_axes(self) -> tuple:
        s = math.sqrt(self.aspect)
        return (self.eps * s, self.eps / s)

    @property
    def max_radius(self) -> float:
        return self.semi_axes[0]

    def area(self) -> float:
        return math.pi * self.eps**2

    def scaled_dist2(self, points) -> np.ndarray:
        """((x-c)/ax)^2 + ((y-c)/ay)^2; < 1 inside, = 1 on the interface."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        ax, ay = self.semi_axes
        return ((p[:, 0] - self.center[0]) / ax) ** 2 + ((p[:, 1] - self.center[1]) / ay) ** 2

    def contains(self, points, tol: float = 0.0) -> np.ndarray:
        return self.scaled_dist2(points) < 1.0 + tol

    def boundary_points(self, n: int, scale: float = 1.0) -> np.ndarray:
        """n arc-equidistributed points on the (scaled) interface curve."""
        ax, ay = self.semi_axes
        if self.aspect == 1.0:
            th = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        else:
            # equidistribute by arc length along the ellipse
            fine = np.linspace(0.0, 2.0 * math.pi, 720)
            speed = np.hypot(-ax * np.sin(fine), ay * np.cos(fine))
            arc = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(fine) * (speed[1:] + speed[:-1]))])
            targets = np.linspace(0.0, arc[-1], n, endpoint=False)
            th = interp1d(arc, fine)(targets)
        return np.column_stack(
            [
                self.center[0] + scale * ax * np.cos(th),
                self.center[1] + scale * ay * np.sin(th),
            ]
        )

    def perimeter(self) -> float:
        ax, ay = self.semi_axes
        if self.aspect == 1.0:
            return 2.0 * math.pi * self.eps
        # Ramanujan's approximation, plenty for choosing point counts
        h = ((ax - ay) / (ax + ay)) ** 2
        return math.pi * (ax + ay) * (1.0 + 3.0 * h / (10.0 + math.sqrt(4.0 - 3.0 * h)))


@dataclass(frozen=True)
class InclusionSet:
    """Inclusions plus the background conductivity.

    Enforces the clearance MIN_CLEARANCE between inclusions and to the
    unit circle, and a genuine contrast gamma != gamma0 for every item.
    """

    items: tuple
    gamma0: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        if self.gamma0 <= 0.0:
            raise ConfigError(f"background conductivity must be positive, got {self.gamma0}")
        for idx, inc in enumerate(self.items):
            if not isinstance(inc, Inclusion):
                raise ConfigError("items must be Inclusion instances")
            if inc.gamma == self.gamma0:
                raise ConfigError(f"inclusion {idx} has no contrast (gamma == gamma0)")
            clearance = 1.0 - math.hypot(*inc.center) - inc.max_radius
            if clearance < MIN_CLEARANCE:
                raise ConfigError(
                    f"inclusion {idx} too close to the boundary (clearance {clearance:.4f})"
                )
        for i in range(len(self.items)):
            for j in range(i + 1, len(self.items)):
                a, b = self.items[i], self.items[j]
                gap = (
                    math.hypot(a.center[0] - b.center[0], a.center[1] - b.center[1])
                    - a.max_radius
                    - b.max_radius
                )
                if gap < MIN_CLEARANCE:
                    raise ConfigError(f"inclusions {i} and {j} too close (gap {gap:.4f})")

    def gamma_of_tag(self, tags) -> np.ndarray:
        """Per-triangle conductivity from region tags (-1 = background)."""
        t = np.asarray(tags)
        out = np.full(t.shape, self.gamma0, dtype=float)
        for idx, inc in enumerate(self.items):
            out[t == idx] = inc.gamma
        return out


@dataclass(frozen=True)
class Mesh:
    """Conforming P1 triangulation of the unit disk.

    vertices: (nv, 2); triangles: (nt, 3) CCW; region_tag: (nt,) with -1
    for background; boundary_edges: (nb, 2) consecutive CCW node pairs on
    the outer polygon; boundary_normals: (nb, 2) outward unit normals per
    edge.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    region_tag: np.ndarray
    boundary_edges: np.ndarray
    boundary_normals: np.ndarray

    @property
    def boundary_nodes(self) -> np.ndarray:
        """Boundary node indices in CCW order (first column of the edges)."""
        return self.boundary_edges[:, 0]

    def triangle_areas(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        return 0.5 * np.abs(
            (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
            - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
        )

    def edge_lengths(self) -> np.ndarray:
        a = self.vertices[self.boundary_edges[:, 0]]
        b = self.vertices[self.boundary_edges[:, 1]]
        return np.hypot(b[:, 0] - a[:, 0], b[:, 1] - a[:, 1])

    def region_area(self, tag: int) -> float:
        return float(self.triangle_areas()[self.region_tag == tag].sum())

    def save(self, path) -> str:
        """Counts, vertices, triangles with their tags, then boundary edges, as text.

        Returns the sha256 hex digest of the file.
        """
        return write_hashed(path, self._text())

    def _text(self):
        yield "# disk mesh: nv nt nbe, then vertices, triangles+tag, edges\n"
        yield f"{len(self.vertices)} {len(self.triangles)} {len(self.boundary_edges)}\n"
        coords = list(map(repr, np.asarray(self.vertices, dtype=float).ravel().tolist()))
        yield "".join(f"{x} {y}\n" for x, y in zip(coords[0::2], coords[1::2]))
        rows = np.column_stack([self.triangles, self.region_tag]).ravel().tolist()
        yield "%d %d %d %d\n" * len(self.triangles) % tuple(rows)
        edges = self.boundary_edges.ravel().tolist()
        yield "%d %d\n" * len(self.boundary_edges) % tuple(edges)


def _edge_normals(vertices: np.ndarray, edges: np.ndarray) -> np.ndarray:
    t = vertices[edges[:, 1]] - vertices[edges[:, 0]]
    n = np.column_stack([t[:, 1], -t[:, 0]])
    return n / np.linalg.norm(n, axis=1)[:, None]


def _hex_lattice(h: float) -> np.ndarray:
    """Hexagonal lattice with spacing h covering the unit disk."""
    rows = int(math.ceil(2.2 / (h * math.sqrt(3.0) / 2.0)))
    pts = []
    for r in range(-rows, rows + 1):
        y = r * h * math.sqrt(3.0) / 2.0
        off = 0.5 * h if r % 2 else 0.0
        cols = int(math.ceil(2.2 / h))
        for c in range(-cols, cols + 1):
            pts.append((c * h + off, y))
    arr = np.array(pts)
    return arr[np.hypot(arr[:, 0], arr[:, 1]) < 1.0]


def _size_field(points, inclusions: InclusionSet, h_far: float, h_near: float) -> np.ndarray:
    """Target element size at each point: h_near in the graded zone around
    every inclusion, growing linearly with distance, capped at h_far."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    s = np.full(len(p), h_far)
    for inc in inclusions.items:
        # distance to the interface measured via the scaled metric; exact
        # for disks, a fine proxy for the mild ellipses used here
        d = (np.sqrt(inc.scaled_dist2(p)) - 1.0) * inc.eps
        local = np.where(d <= 2.0 * inc.eps, h_near, h_near + 0.45 * (d - 2.0 * inc.eps))
        s = np.minimum(s, np.maximum(local, h_near))
    return s


def _circle_nodes(inclusions: InclusionSet, h_far: float, h_near: float) -> np.ndarray:
    """Outer polygon nodes spaced by the local size field.

    A uniform coarse circle next to a finely graded zone (inclusion close
    to the boundary) produces sliver elements; matching the boundary
    spacing to the interior size field keeps the triangles well shaped.
    """
    fine = np.linspace(0.0, 2.0 * math.pi, 2048, endpoint=False)
    ring = np.column_stack([np.cos(fine), np.sin(fine)])
    dens = 1.0 / _size_field(ring, inclusions, h_far, h_near)
    cum = np.concatenate([[0.0], np.cumsum(dens)]) * (2.0 * math.pi / 2048)
    n = max(24, int(math.ceil(cum[-1])))
    targets = np.linspace(0.0, cum[-1], n, endpoint=False)
    th = np.interp(targets, cum, np.append(fine, 2.0 * math.pi))
    return np.column_stack([np.cos(th), np.sin(th)])


def vertex_estimate(inclusions: InclusionSet, h_far: float, h_near: float) -> float:
    """Lattice points, 2 / (sqrt(3) h^2) per unit area, in the disk at h_far
    and at h_near in each inclusion's zone within 2 eps (9 times its area).
    build_mesh adds points on curves: up to half as many again on shipped meshes."""
    zones = sum(9.0 * inc.area() for inc in inclusions.items)
    # divisions overflow to inf where a power would raise
    return 2.0 / math.sqrt(3.0) * (math.pi / h_far / h_far + zones / h_near / h_near)


def build_mesh(inclusions: InclusionSet, h_far: float, h_near: float) -> Mesh:
    """Graded Delaunay mesh of the unit disk resolving every interface.

    Element size is ~h_near within distance 2 eps of each inclusion and
    grows geometrically to ~h_far in the background.  With no inclusions
    the mesh is quasi-uniform at h_far.
    """
    if h_far <= 0.0 or h_near <= 0.0:
        raise ConfigError("mesh sizes must be positive")
    if h_near > h_far:
        raise ConfigError(f"h_near ({h_near}) must not exceed h_far ({h_far})")
    for idx, inc in enumerate(inclusions.items):
        if h_near > inc.eps / 4.0 + 1e-12:
            raise ConfigError(
                f"h_near = {h_near} does not resolve inclusion {idx} (needs <= eps/4 = {inc.eps / 4.0})"
            )

    accepted = []  # (points, own-spacing) batches in priority order
    protected = 0  # leading batches that must never be dropped

    circle = _circle_nodes(inclusions, h_far, h_near)
    n_far = len(circle)
    accepted.append((circle, _size_field(circle, inclusions, h_far, h_near)))
    protected += 1

    for inc in inclusions.items:
        n_int = max(24, int(math.ceil(inc.perimeter() / h_near)))
        accepted.append((inc.boundary_points(n_int), np.full(n_int, h_near)))
        protected += 1

    for inc in inclusions.items:
        # concentric fill inside the inclusion
        n_int = max(24, int(math.ceil(inc.perimeter() / h_near)))
        step = _RING_STEP * h_near / inc.eps  # scale decrement per ring
        scale = 1.0 - step
        inner = [np.array([inc.center])]
        sizes = [h_near]
        while scale > 0.35 * step:
            n_ring = max(6, int(round(n_int * scale)))
            inner.append(inc.boundary_points(n_ring, scale=scale))
            sizes.extend([h_near] * n_ring)
            scale -= step
        accepted.append((np.vstack(inner), np.array(sizes)))

    for inc in inclusions.items:
        # offset rings: fine out to 2 eps, then geometric growth
        rings = []
        sizes = []
        offset = _RING_STEP * h_near
        local = h_near
        while local < 0.95 * h_far:
            scale = 1.0 + offset / inc.eps
            n_ring = max(12, int(math.ceil(inc.perimeter() * scale / local)))
            ring = inc.boundary_points(n_ring, scale=scale)
            rings.append(ring)
            sizes.extend([local] * n_ring)
            if offset > 2.0 * inc.eps:
                local = min(local * _RING_GROWTH, h_far)
            offset += _RING_STEP * local
        if rings:
            accepted.append((np.vstack(rings), np.array(sizes)))

    hexpts = _hex_lattice(h_far)
    field = _size_field(hexpts, inclusions, h_far, h_near)
    # deep inside the graded zone the offset rings place better points
    hexpts = hexpts[field > 0.7 * h_far]
    accepted.append((hexpts, field[field > 0.7 * h_far]))

    # dedup pass: keep a candidate only if no previously accepted point
    # lies within _DEDUP times its own target spacing; also reject points
    # outside the polygonal domain or inside a foreign inclusion zone
    points = []
    for batch_idx, (batch, size) in enumerate(accepted):
        keep = np.ones(len(batch), dtype=bool)
        if batch_idx >= protected:
            r = np.hypot(batch[:, 0], batch[:, 1])
            keep &= r < 1.0 - 0.5 * size
            if points:
                tree = cKDTree(np.vstack(points))
                dist, _ = tree.query(batch)
                keep &= dist > _DEDUP * size
        if np.any(keep):
            points.append(batch[keep])
    verts = np.vstack(points)

    tri = Delaunay(verts)
    simplices = tri.simplices.copy()
    # normalize orientation to CCW
    p = verts[simplices]
    det = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) - (
        p[:, 2, 0] - p[:, 0, 0]
    ) * (p[:, 1, 1] - p[:, 0, 1])
    flip = det < 0.0
    simplices[flip, 1], simplices[flip, 2] = simplices[flip, 2], simplices[flip, 1].copy()
    if np.any(np.isclose(np.abs(det), 0.0, atol=1e-14)):
        raise MeshError("degenerate (zero-area) triangle produced")

    centroids = verts[simplices].mean(axis=1)
    tags = np.full(len(simplices), -1, dtype=int)
    for idx, inc in enumerate(inclusions.items):
        tags[inc.contains(centroids)] = idx

    _check_conforming(verts, simplices, tags, inclusions)

    edges = np.column_stack([np.arange(n_far), (np.arange(n_far) + 1) % n_far])
    _check_boundary_edges(simplices, n_far)
    return Mesh(
        vertices=verts,
        triangles=simplices,
        region_tag=tags,
        boundary_edges=edges,
        boundary_normals=_edge_normals(verts, edges),
    )


def _check_conforming(verts, simplices, tags, inclusions) -> None:
    """Every triangle must lie wholly inside or outside each inclusion."""
    for idx, inc in enumerate(inclusions.items):
        d2 = inc.scaled_dist2(verts)[simplices]
        mine = tags == idx
        bad = np.where(mine, d2.max(axis=1) > 1.0 + 1e-6, d2.min(axis=1) < 1.0 - 1e-6)
        if bad.any():
            t = np.argmax(bad)
            if mine[t]:
                raise MeshError(f"triangle tagged {idx} has a vertex outside the inclusion")
            raise MeshError(f"triangle tagged {tags[t]} straddles inclusion {idx}")


def _check_boundary_edges(simplices, n_far: int) -> None:
    """The outer polygon edges must appear in the triangulation."""
    edges = np.sort(simplices[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    nodes = np.arange(n_far)
    wanted = np.sort(np.column_stack([nodes, (nodes + 1) % n_far]), axis=1)
    base = max(int(simplices.max()), n_far - 1) + 1
    missing = ~np.isin(wanted @ [base, 1], edges @ [base, 1])
    if missing.any():
        k = int(np.argmax(missing))
        raise MeshError(f"outer boundary edge ({k}, {(k + 1) % n_far}) missing from mesh")
