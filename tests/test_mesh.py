"""Tests for the graded disk mesh builder and inclusion geometry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ellipe

from fracloc.errors import ConfigError, MeshError
from fracloc.mesh import (
    Inclusion,
    InclusionSet,
    Mesh,
    _check_boundary_edges,
    _check_conforming,
    build_mesh,
    vertex_estimate,
)


def _min_angle_deg(mesh: Mesh) -> float:
    p = mesh.vertices[mesh.triangles]
    worst = 180.0
    for i in range(3):
        a = p[:, (i + 1) % 3] - p[:, i]
        b = p[:, (i + 2) % 3] - p[:, i]
        cosv = (a * b).sum(1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
        worst = min(worst, np.degrees(np.arccos(np.clip(cosv, -1, 1))).min())
    return worst


class TestInclusion:
    def test_disk_basics(self):
        inc = Inclusion((0.2, 0.3), 0.05, 50.0)
        assert inc.area() == pytest.approx(math.pi * 0.0025)
        assert inc.semi_axes == (0.05, 0.05)
        assert inc.perimeter() == pytest.approx(2 * math.pi * 0.05)
        assert inc.contains([(0.2, 0.3)])[0]
        assert inc.contains([(0.2, 0.36)])[0] == False  # noqa: E712

    def test_ellipse_area_and_axes(self):
        inc = Inclusion((0.2, 0.3), 0.1, 50.0, 3.0)
        ax, ay = inc.semi_axes
        assert ax == pytest.approx(0.1 * math.sqrt(3.0))
        assert ay == pytest.approx(0.1 / math.sqrt(3.0))
        assert inc.area() == pytest.approx(math.pi * 0.01)

    def test_ellipse_perimeter_vs_elliptic_integral(self):
        inc = Inclusion((0.0, 0.0), 0.1, 2.0, 5.0)
        ax, ay = inc.semi_axes
        exact = 4.0 * ax * ellipe(1.0 - (ay / ax) ** 2)
        assert inc.perimeter() == pytest.approx(exact, rel=1e-6)

    def test_boundary_points_on_interface(self):
        inc = Inclusion((0.1, -0.2), 0.05, 3.0, 2.0)
        pts = inc.boundary_points(40)
        np.testing.assert_allclose(inc.scaled_dist2(pts), 1.0, atol=1e-12)
        # arc-length equidistribution: neighbour spacings stay near the mean
        d = np.linalg.norm(np.diff(np.vstack([pts, pts[:1]]), axis=0), axis=1)
        assert d.max() / d.min() < 1.25

    def test_validation(self):
        with pytest.raises(ConfigError):
            Inclusion((0, 0), -0.05, 50.0)
        with pytest.raises(ConfigError):
            Inclusion((0, 0), 0.05, -1.0)
        with pytest.raises(ConfigError):
            Inclusion((0, 0), 0.05, 50.0, 0.5)
        for bad in ((float("nan"), 50.0, 1.0), (0.05, float("nan"), 1.0), (0.05, 50.0, float("nan"))):
            with pytest.raises(ConfigError):
                Inclusion((0, 0), *bad)


class TestInclusionSet:
    def test_requires_contrast(self):
        with pytest.raises(ConfigError):
            InclusionSet(items=(Inclusion((0, 0), 0.05, 1.0),), gamma0=1.0)

    def test_requires_boundary_clearance(self):
        with pytest.raises(ConfigError):
            InclusionSet(items=(Inclusion((0.93, 0.0), 0.05, 50.0),))

    def test_requires_pairwise_separation(self):
        with pytest.raises(ConfigError):
            InclusionSet(
                items=(
                    Inclusion((0.0, 0.0), 0.05, 3.0),
                    Inclusion((0.11, 0.0), 0.05, 3.0),
                )
            )

    def test_gamma_of_tag(self):
        s = InclusionSet(
            items=(Inclusion((0.3, 0.2), 0.05, 3.0), Inclusion((-0.4, 0.0), 0.05, 7.0)),
            gamma0=2.0,
        )
        np.testing.assert_allclose(s.gamma_of_tag([-1, 0, 1, -1]), [2.0, 3.0, 7.0, 2.0])


class TestBuildMesh:
    def test_empty_quasi_uniform(self):
        mesh = build_mesh(InclusionSet(items=()), 0.15, 0.15)
        assert np.all(mesh.region_tag == -1)
        # polygonal disk area: deficit of the inscribed polygon only
        assert mesh.triangle_areas().sum() == pytest.approx(math.pi, rel=1e-2)
        assert _min_angle_deg(mesh) > 20.0

    def test_single_disk_tagged_area(self):
        incs = InclusionSet(items=(Inclusion((0.2, 0.3), 0.05, 50.0),))
        mesh = build_mesh(incs, 0.15, 0.0125)
        area = mesh.region_area(0)
        assert abs(area - math.pi * 0.0025) / (math.pi * 0.0025) < 0.05
        assert mesh.region_area(-1) > 0.0

    def test_two_inclusions_two_tag_classes(self):
        incs = InclusionSet(
            items=(Inclusion((0.3, 0.2), 0.05, 3.0), Inclusion((-0.4, 0.0), 0.05, 3.0))
        )
        mesh = build_mesh(incs, 0.15, 0.0125)
        assert np.sum(mesh.region_tag == 0) > 0
        assert np.sum(mesh.region_tag == 1) > 0
        assert set(mesh.region_tag.tolist()) == {-1, 0, 1}

    def test_conforming_interfaces(self):
        incs = InclusionSet(items=(Inclusion((0.2, 0.3), 0.05, 50.0),))
        mesh = build_mesh(incs, 0.15, 0.0125)
        inc = incs.items[0]
        d2 = inc.scaled_dist2(mesh.vertices)
        for tri, tag in zip(mesh.triangles, mesh.region_tag):
            if tag == 0:
                assert np.all(d2[tri] <= 1.0 + 1e-6)
            else:
                assert np.all(d2[tri] >= 1.0 - 1e-6)

    def test_grading_near_inclusion(self):
        incs = InclusionSet(items=(Inclusion((0.2, 0.3), 0.05, 50.0),))
        mesh = build_mesh(incs, 0.15, 0.0125)
        centroids = mesh.vertices[mesh.triangles].mean(axis=1)
        dist = np.linalg.norm(centroids - [0.2, 0.3], axis=1)
        near = dist < 2.0 * 0.05
        # longest edge of near-zone triangles stays at the fine size
        p = mesh.vertices[mesh.triangles[near]]
        emax = max(
            np.linalg.norm(p[:, 1] - p[:, 0], axis=1).max(),
            np.linalg.norm(p[:, 2] - p[:, 1], axis=1).max(),
            np.linalg.norm(p[:, 0] - p[:, 2], axis=1).max(),
        )
        assert emax <= 2.2 * 0.0125

    def test_boundary_edges_ccw_outward(self):
        mesh = build_mesh(InclusionSet(items=()), 0.2, 0.2)
        a = mesh.vertices[mesh.boundary_edges[:, 0]]
        b = mesh.vertices[mesh.boundary_edges[:, 1]]
        # CCW traversal: cross product of consecutive positions positive
        assert np.all(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0] > 0.0)
        mid = 0.5 * (a + b)
        assert np.all((mesh.boundary_normals * mid).sum(1) > 0.0)
        np.testing.assert_allclose(np.linalg.norm(mesh.boundary_normals, axis=1), 1.0)

    def test_min_angle_across_configs(self):
        configs = [
            (InclusionSet(items=(Inclusion((0.6, 0.6), 0.05, 50.0),)), 0.15, 0.0125),
            (InclusionSet(items=(Inclusion((0.2, 0.3), 0.1, 50.0, 5.0),)), 0.15, 0.025),
        ]
        for incs, hf, hn in configs:
            assert _min_angle_deg(build_mesh(incs, hf, hn)) > 15.0

    @pytest.mark.parametrize(
        "items, h_far, h_near",
        [
            ((), 0.15, 0.15),
            ((), 0.05, 0.05),
            ((Inclusion((0.2, 0.3), 0.05, 50.0),), 0.15, 0.0125),
            ((Inclusion((0.2, 0.3), 0.1, 50.0, 2.0), Inclusion((-0.4, -0.2), 0.08, 5.0)), 0.15, 0.02),
        ],
        ids=["empty-coarse", "empty-fine", "one-disk", "ellipse-and-disk"],
    )
    def test_vertex_estimate_bounds_count(self, items, h_far, h_near):
        # the estimate leaves out points on curves, at most half as many again
        incs = InclusionSet(items=items)
        estimate = vertex_estimate(incs, h_far, h_near)
        assert estimate <= len(build_mesh(incs, h_far, h_near).vertices) <= 1.5 * estimate

    def test_vertex_estimate_never_raises(self):
        incs = InclusionSet(items=(Inclusion((0.2, 0.3), 0.05, 50.0),))
        assert vertex_estimate(incs, 5e-324, 5e-324) == math.inf
        assert vertex_estimate(incs, 1e300, 1e300) == 0.0

    def test_validation(self):
        incs = InclusionSet(items=(Inclusion((0.2, 0.3), 0.05, 50.0),))
        with pytest.raises(ConfigError):
            build_mesh(incs, 0.15, 0.2)  # h_near > h_far
        with pytest.raises(ConfigError):
            build_mesh(incs, 0.15, 0.02)  # does not resolve eps/4
        with pytest.raises(ConfigError):
            build_mesh(incs, -0.1, 0.0125)

    @given(
        cx=st.floats(-0.5, 0.5),
        cy=st.floats(-0.5, 0.5),
    )
    @settings(max_examples=10, deadline=None)
    def test_random_center_builds_and_tags(self, cx, cy):
        incs = InclusionSet(items=(Inclusion((cx, cy), 0.05, 50.0),))
        mesh = build_mesh(incs, 0.18, 0.0125)
        area = mesh.region_area(0)
        assert abs(area - math.pi * 0.0025) / (math.pi * 0.0025) < 0.05


class TestMeshChecks:
    incs = InclusionSet(items=(Inclusion((0.0, 0.0), 0.3, 50.0),))
    # vertices 0, 3, 4 lie inside the inclusion, 1, 2, 5 outside
    verts = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.1, 0.0], [0.0, 0.1], [0.5, 0.5]])
    tris = np.array([[0, 3, 4], [1, 2, 5]])

    @pytest.mark.parametrize(
        "tags, message",
        [
            ([0, -1], None),
            ([0, 0], "triangle tagged 0 has a vertex outside the inclusion"),
            ([-1, -1], "triangle tagged -1 straddles inclusion 0"),
        ],
    )
    def test_conforming(self, tags, message):
        args = (self.verts, self.tris, np.array(tags), self.incs)
        if message is None:
            _check_conforming(*args)
        else:
            with pytest.raises(MeshError, match=message):
                _check_conforming(*args)

    def test_boundary_edges(self):
        one = np.array([[0, 1, 2]])
        _check_boundary_edges(one, 3)
        with pytest.raises(MeshError, match=r"outer boundary edge \(2, 3\) missing"):
            _check_boundary_edges(one, 4)


class TestMeshIO:
    def test_save_matches_line_by_line_writer(self, tmp_path):
        # reference: one write per record; the manifest hashes these bytes
        def line_by_line(mesh, path):
            with open(path, "w", encoding="ascii") as fh:
                fh.write("# disk mesh: nv nt nbe, then vertices, triangles+tag, edges\n")
                fh.write(f"{len(mesh.vertices)} {len(mesh.triangles)} {len(mesh.boundary_edges)}\n")
                for x, y in mesh.vertices:
                    fh.write(f"{float(x)!r} {float(y)!r}\n")
                for (i, j, k), tag in zip(mesh.triangles, mesh.region_tag):
                    fh.write(f"{i} {j} {k} {tag}\n")
                for i, j in mesh.boundary_edges:
                    fh.write(f"{i} {j}\n")

        incs = InclusionSet(
            items=(
                Inclusion((0.3, 0.2), 0.05, 5.0),
                Inclusion((-0.3, -0.2), 0.08, 0.2, aspect=2.0),
            )
        )
        mesh = build_mesh(incs, 0.1, 0.0125)
        mesh.save(tmp_path / "new.txt")
        line_by_line(mesh, tmp_path / "old.txt")
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()
