import numpy as np
import pytest

from topospat import (
    GeometryError,
    GraphKind,
    SpatialGraph,
    GeometryWarning,
    DimensionError,
    ParameterError,
    ValidationError,
    delaunay_graph,
    epsilon_graph,
    hex_grid_graph,
    rect_grid_graph,
)

from oracles import (
    component_count_scipy,
    degrees_add_at,
    delaunay_edges_bruteforce,
    delaunay_edges_qhull,
    edge_index_loop,
    epsilon_edges_kdtree,
    exact_orient,
    exact_points,
    hex_lattice,
    hex_neighbors_kdtree,
    hull_boundary_count,
    make_graph,
    random_graph,
    rect_neighbors_dict,
)


def edge_set(graph):
    return {tuple(e) for e in graph.edges.tolist()}


@pytest.mark.parametrize("build", [
    lambda c: epsilon_graph(c, 1.0), delaunay_graph, hex_grid_graph, rect_grid_graph,
], ids=["epsilon", "delaunay", "hex", "rect"])
@pytest.mark.parametrize("coords, error", [
    (np.zeros((3, 3)), DimensionError),
    (np.zeros(6), DimensionError),
    (np.zeros((0, 2)), ValidationError),
    ([(0.0, 0.0), (1.0, np.nan), (0.0, 1.0)], ValidationError),
    ([(0.0, 0.0), (np.inf, 0.0), (0.0, 1.0)], ValidationError),
], ids=["three-columns", "1-D", "empty", "nan", "inf"])
def test_every_builder_checks_its_coordinates(build, coords, error):
    with pytest.raises(error):
        build(coords)


class TestEpsilonGraph:
    def test_three_collinear_points(self):
        g = epsilon_graph([(0, 0), (1, 0), (3, 0)], 1.5)
        assert edge_set(g) == {(0, 1)}

    def test_below_min_distance_gives_edgeless(self):
        g = epsilon_graph([(0, 0), (1, 0), (3, 0)], 0.5)
        assert g.n_edges == 0

    def test_epsilon_at_diameter_gives_complete_graph(self):
        pts = np.random.default_rng(0).random((8, 2))
        diam = max(np.linalg.norm(a - b) for a in pts for b in pts)
        g = epsilon_graph(pts, diam * (1 + 1e-12))
        assert g.n_edges == 8 * 7 // 2

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan")])
    def test_bad_epsilon(self, eps):
        with pytest.raises(ParameterError):
            epsilon_graph([(0, 0), (1, 1)], eps)

    def test_monotone_in_epsilon(self):
        rng = np.random.default_rng(7)
        pts = rng.random((40, 2))
        for _ in range(5):
            e1, e2 = sorted(rng.uniform(0.05, 0.8, 2))
            assert edge_set(epsilon_graph(pts, e1)) <= edge_set(epsilon_graph(pts, e2))

    def test_single_point(self):
        g = epsilon_graph([(0.5, 0.5)], 1.0)
        assert g.n_vertices == 1 and g.n_edges == 0

    def test_matches_kdtree_oracle(self):
        rng = np.random.default_rng(21)
        for case in range(60):
            n = int(rng.integers(1, 400))
            pts = rng.random((n, 2)) * 10.0 ** rng.uniform(-3, 3)
            if case % 3 == 1:  # integer lattice: many pairs at exactly epsilon
                pts = rng.integers(0, 12, (n, 2)).astype(float)
                eps = float(rng.choice([1.0, 2.0, 5.0 ** 0.5, 3.0]))
            else:
                eps = float(np.ptp(pts, axis=0).max() * rng.uniform(0.01, 0.5) or 1.0)
            if case % 5 == 2:  # coincident points
                pts[rng.integers(0, n, n // 3)] = pts[rng.integers(0, n, n // 3)]
            g = epsilon_graph(pts, eps)
            assert np.array_equal(g.edges, epsilon_edges_kdtree(pts, eps)), case

    def test_span_too_large_to_square_is_geometry_error(self):
        with pytest.raises(GeometryError, match="too far apart"):
            epsilon_graph([(0.0, 0.0), (1e155, 0.0)], 1.0)


class TestDelaunayGraph:
    def test_single_triangle(self):
        g = delaunay_graph([(0, 0), (1, 0), (0.4, 1)])
        assert edge_set(g) == {(0, 1), (0, 2), (1, 2)}

    def test_unit_square_has_five_edges(self):
        # cocircular corners: 4 sides plus one diagonal; either diagonal is valid
        g = delaunay_graph([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert g.n_edges == 5
        sides = {(0, 1), (1, 2), (2, 3), (0, 3)}
        assert sides <= edge_set(g)
        assert edge_set(g) - sides in ({(0, 2)}, {(1, 3)})
        _check_degenerate_triangulation(g.coords)

    def test_matches_bruteforce_circumcircle_oracle(self):
        rng = np.random.default_rng(11)
        for n in (5, 10, 20, 50):
            pts = rng.random((n, 2))
            g = delaunay_graph(pts)
            assert edge_set(g) == delaunay_edges_bruteforce(pts)

    def test_cocircular_points_accepted_by_oracle(self):
        theta = np.linspace(0, 2 * np.pi, 8, endpoint=False)
        pts = np.c_[np.cos(theta), np.sin(theta)]
        g = delaunay_graph(pts)
        # every returned edge must be licensed by some empty circumcircle
        assert edge_set(g) <= delaunay_edges_bruteforce(pts, tol=1e-9)
        # any triangulation of a convex cocircular octagon has 2n-3 edges
        assert g.n_edges == 2 * 8 - 3
        _check_degenerate_triangulation(pts)

    def test_too_few_points(self):
        with pytest.raises(GeometryError, match="epsilon_graph"):
            delaunay_graph([(0, 0), (1, 1)])

    def test_collinear_points(self):
        with pytest.raises(GeometryError):
            delaunay_graph([(0, 0), (1, 0), (2, 0), (3, 0)])

    def test_deterministic(self):
        pts = np.random.default_rng(3).random((30, 2))
        assert np.array_equal(delaunay_graph(pts).edges, delaunay_graph(pts).edges)

    @pytest.mark.parametrize("layout", ["uniform", "clustered"])
    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e3])
    def test_equals_qhull_in_general_position(self, layout, scale):
        rng = np.random.default_rng(17)
        for n in (3, 4, 5, 8, 20, 100, 500, 2000):
            if layout == "uniform":
                pts = rng.random((n, 2))
            else:
                centres = rng.random((5, 2))
                pts = centres[rng.integers(0, 5, n)] + rng.normal(0, 0.02, (n, 2))
            pts = pts * scale
            assert np.array_equal(delaunay_graph(pts).edges, delaunay_edges_qhull(pts)), n

    def test_power_of_two_scales_give_the_same_edges(self):
        # far outside the range where float determinants over- or underflow
        pts = np.random.default_rng(8).random((300, 2)) + 1.0
        edges = delaunay_graph(pts).edges
        for e in (-900, -500, 500, 900):
            assert np.array_equal(delaunay_graph(pts * 2.0 ** e).edges, edges)

    def test_coordinates_near_the_float_limits(self):
        # point 3 lies inside the circle through the other three
        g = delaunay_graph([(1e308, 0.0), (-1e308, 0.0), (0.0, 1.7e308), (0.0, -1e300)])
        assert {tuple(e) for e in g.edges.tolist()} == {
            (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}

    @pytest.mark.parametrize("case", range(90))
    def test_points_rounded_to_sevenths(self, case):
        # k/7 is not a float: such sets are full of nearly, not exactly,
        # collinear and cocircular points; duplicates are common
        rng = np.random.default_rng(1000 + case)
        pts = np.round(rng.random((int(rng.integers(6, 17)), 2)) * 7) / 7
        _check_degenerate_triangulation(pts)

    @pytest.mark.parametrize("case", range(30))
    def test_collinear_hull_points(self, case):
        # every lattice point on the sides of a rectangle, plus a few inside:
        # no edge may cross a point on a side, so the sides stay split
        rng = np.random.default_rng(2000 + case)
        w, h = (int(v) for v in rng.integers(1, 6, 2))
        side = [(x, 0) for x in range(w)] + [(w, y) for y in range(h)]
        side += [(w - x, h) for x in range(w)] + [(0, h - y) for y in range(h)]
        inner = [(rng.uniform(0, w), rng.uniform(0, h)) for _ in range(int(rng.integers(0, 6)))]
        pts = np.array(side + inner, dtype=float) * rng.choice([1.0, 0.25, 3.0])
        pts = pts[rng.permutation(len(pts))]
        edges = _check_degenerate_triangulation(pts)
        ex = exact_points(pts)
        for i, j in edges:
            for k in range(len(pts)):
                if k not in (i, j) and exact_orient(ex[i], ex[j], ex[k]) == 0:
                    lo, hi = np.minimum(pts[i], pts[j]), np.maximum(pts[i], pts[j])
                    assert not np.all((lo <= pts[k]) & (pts[k] <= hi)), (i, j, k)

    @pytest.mark.parametrize("far", [
        [(12.0, 12.0), (24.0, 24.0)],
        [(12.0, 12.0), (24.0, 24.0), (0.0, 1.0)],
        [(17.300000000000001, 17.300000000000001), (24.00000000000005, 24.0000000000000053)],
    ])
    def test_points_a_few_ulps_off_a_line(self, far):
        # a 5 x 5 block of neighbouring floats near the line y = x, where the
        # float orientation determinant often has the wrong sign (Kettner et
        # al., "Classroom examples of robustness problems in geometric
        # computations", 2008)
        ulp = 2.0 ** -53
        block = [(0.5 + i * ulp, 0.5 + j * ulp) for i in range(5) for j in range(5)]
        pts = np.array(block + far)
        for seed in range(5):
            _check_degenerate_triangulation(pts[np.random.default_rng(seed).permutation(len(pts))])

    @pytest.mark.parametrize("case", range(10))
    def test_coincident_pairs(self, case):
        rng = np.random.default_rng(3000 + case)
        pts = rng.random((14, 2))
        copies = rng.integers(0, 14, 4)
        pts = np.concatenate([pts, pts[copies]])[rng.permutation(18)]
        _check_degenerate_triangulation(pts)

    @pytest.mark.parametrize("pts", [
        [(0, 0), (0, 0), (1, 1)],
        [(0, 0), (1, 1), (0, 0), (1, 1)],
        [(2, 2), (2, 2), (2, 2)],
        [(0, 0), (1, 1), (2, 2), (1, 1)],
    ])
    def test_too_few_distinct_or_collinear_points(self, pts):
        with pytest.raises(GeometryError, match="collinear or coincident"):
            delaunay_graph(pts)


def _check_degenerate_triangulation(pts):
    """A Delaunay triangulation of the distinct points: every edge has an
    exactly empty circumcircle, the edge count is that of a full
    triangulation, copies above the lowest index are isolated, and a second
    build gives the same edges. Returns the edge set."""
    g = delaunay_graph(pts)
    edges = {tuple(e) for e in g.edges.tolist()}
    assert edges <= delaunay_edges_bruteforce(pts, tol=None)
    _, lowest = np.unique(pts, axis=0, return_index=True)
    m = len(lowest)
    assert len(edges) == 3 * m - 3 - hull_boundary_count(pts)
    assert set(np.flatnonzero(g.degrees())) == set(lowest.tolist())
    assert np.array_equal(delaunay_graph(pts).edges, g.edges)
    return edges


class TestHexGridGraph:
    def test_interior_vertex_has_degree_six(self):
        pts = hex_lattice(5, 5)
        g = hex_grid_graph(pts)
        deg = g.degrees()
        center = 12  # row 2, col 2
        assert deg[center] == 6

    def test_corner_vertex_degree_at_most_three(self):
        g = hex_grid_graph(hex_lattice(3, 3))
        assert g.degrees()[0] <= 3

    def test_single_vertex(self):
        g = hex_grid_graph([(0.0, 0.0)])
        assert g.n_edges == 0

    @pytest.mark.parametrize("pitch", [0.0, -1.0, np.nan, np.inf])
    def test_bad_pitch(self, pitch):
        with pytest.raises(ParameterError, match="pitch must be a positive real"):
            hex_grid_graph(hex_lattice(3, 3), pitch=pitch)

    def test_explicit_pitch_matches_estimated(self):
        pts = hex_lattice(4, 4, pitch=2.5)
        assert edge_set(hex_grid_graph(pts)) == edge_set(hex_grid_graph(pts, pitch=2.5))

    def test_no_edge_longer_than_1_1_pitch(self):
        rng = np.random.default_rng(5)
        pts = hex_lattice(6, 6) + rng.normal(0, 0.002, (36, 2))
        g = hex_grid_graph(pts)
        pitch = g.params["pitch"]
        lengths = np.linalg.norm(pts[g.edges[:, 0]] - pts[g.edges[:, 1]], axis=1)
        assert np.all(lengths <= 1.1 * pitch)

    def test_geometry_mismatch_warns_then_raises_under_strict(self):
        rng = np.random.default_rng(9)
        pts = rng.random((80, 2))  # not a lattice at all
        with pytest.warns(GeometryWarning):
            hex_grid_graph(pts)
        with pytest.raises(GeometryError):
            hex_grid_graph(pts, strict=True)


def _rotated(pts, angle):
    c, s = np.cos(angle), np.sin(angle)
    return pts @ np.array([[c, -s], [s, c]])


def _hex_inputs():
    """(name, coordinates) of lattices and near-lattices, Visium-sized and small."""
    rng = np.random.default_rng(31)
    visium = hex_lattice(64, 78, pitch=100.0)  # 4992 spots
    cases = [
        ("visium", visium),
        ("scaled", visium * 1e-3),
        ("offset", visium + 1e6),
        ("rotated", _rotated(visium, 0.3)),
        ("rotated_30", _rotated(visium, np.pi / 6)),
        ("jittered", visium + rng.normal(0, 1.0, visium.shape)),
        ("missing_20", visium[rng.random(len(visium)) > 0.2]),
        ("missing_30", visium[rng.random(len(visium)) > 0.3]),
        ("offset_rotated_jittered", _rotated(visium, 1.1) + 1e6 + rng.normal(0, 0.5, visium.shape)),
        ("one_row", hex_lattice(1, 50)),
        ("one_column", _rotated(hex_lattice(1, 50), np.pi / 2)),
        ("two_points", np.array([[0.0, 0.0], [3.0, 4.0]])),
        ("two_points_diagonal", np.array([[4639.5375445734835, 4312.829974687226],
                                          [4641.399566906017, 4312.326319500208]])),
        ("duplicated_spots", np.vstack([visium[:300], visium[:5]])),
    ]
    for t in range(40):
        rows, cols = (int(v) for v in rng.integers(1, 12, 2))
        pts = hex_lattice(rows, cols, pitch=float(rng.uniform(0.1, 10)))
        pts = _rotated(pts, rng.uniform(0, 2 * np.pi)) + rng.uniform(-1e4, 1e4, 2)
        if t % 2:
            pts = pts + rng.normal(0, rng.choice([1e-6, 1e-3, 0.02]), pts.shape)
        if t % 3 == 0:
            pts = pts[rng.random(len(pts)) > 0.3]
        if len(pts) > 1:
            cases.append((f"small_{t}", pts))
    return cases


HEX_INPUTS = _hex_inputs()


class TestHexNeighbourSearch:
    """The numpy cell search against the k-d tree oracle: bitwise equal pitch
    and identical edges."""

    @pytest.mark.filterwarnings("ignore::topospat.GeometryWarning")
    @pytest.mark.parametrize("name", [name for name, _ in HEX_INPUTS])
    def test_matches_kdtree(self, name):
        pts = dict(HEX_INPUTS)[name]
        pitch, edges = hex_neighbors_kdtree(pts)
        g = hex_grid_graph(pts)
        assert g.params["pitch"] == pitch
        assert np.array_equal(g.edges, edges)

    @pytest.mark.filterwarnings("ignore::topospat.GeometryWarning")
    @pytest.mark.parametrize("factor", [0.7, 1.0, 1.3, 3.0])
    def test_given_pitch(self, factor):
        pts = _rotated(hex_lattice(9, 11, pitch=2.5), 0.4) + 1e3
        pitch = 2.5 * factor
        g = hex_grid_graph(pts, pitch=pitch)
        assert g.params["pitch"] == pitch
        assert np.array_equal(g.edges, hex_neighbors_kdtree(pts, pitch)[1])

    def test_upper_bound_is_on_the_squared_distance(self):
        # pairs within a few ulps of 1.05 pitch: the tree keeps those whose
        # squared distance is at most hi**2, which a bound on the norm would
        # decide differently for some of them
        rng = np.random.default_rng(4)
        kept = 0
        for _ in range(2000):
            angle = rng.uniform(0, 2 * np.pi)
            p = rng.uniform(-10, 10, 2)
            q = p + 1.05 * np.array([np.cos(angle), np.sin(angle)])
            q = q + rng.integers(-3, 4, 2) * np.spacing(q)
            pts = np.array([p, q])
            g = hex_grid_graph(pts, pitch=1.0)
            assert np.array_equal(g.edges, hex_neighbors_kdtree(pts, 1.0)[1])
            kept += g.n_edges
        assert 0 < kept < 2000

    def test_pair_straddling_a_cell_boundary(self):
        # (x - origin) / cell width rounds x1 just below a cell boundary and x2
        # onto the next-but-one, although x2 - x1 is within the upper bound;
        # the cells must be wide enough to keep such a pair adjacent
        pts = np.array([[-275256.45, 0.0], [1.0499999999477585, 0.0],
                        [2.0999999999477583, 0.0]])
        g = hex_grid_graph(pts, pitch=1.0)
        assert np.array_equal(g.edges, hex_neighbors_kdtree(pts, 1.0)[1])
        assert edge_set(g) == {(1, 2)}

    def test_strict_on_non_lattice(self):
        pts = np.random.default_rng(9).random((80, 2))
        with pytest.raises(GeometryError):
            hex_grid_graph(pts, strict=True)
        with pytest.warns(GeometryWarning):
            g = hex_grid_graph(pts)
        pitch, edges = hex_neighbors_kdtree(pts)
        assert g.params["pitch"] == pitch
        assert np.array_equal(g.edges, edges)

    def test_degree_warning_on_sparse_lattice(self):
        rng = np.random.default_rng(12)
        lattice = hex_lattice(12, 12)
        pts = lattice[rng.random(len(lattice)) > 0.4]
        with pytest.warns(GeometryWarning, match="interior spots"):
            g = hex_grid_graph(pts)
        pitch, edges = hex_neighbors_kdtree(pts)
        assert g.params["pitch"] == pitch
        assert np.array_equal(g.edges, edges)

    def test_single_point(self):
        g = hex_grid_graph([(3.0, 4.0)])
        assert g.n_edges == 0 and g.params["pitch"] is None
        g = hex_grid_graph([(3.0, 4.0)], pitch=2.0)
        assert g.n_edges == 0 and g.params["pitch"] == 2.0

    @pytest.mark.parametrize("pts", [
        np.full((2, 2), 7.5),
        np.full((5, 2), 7.5),
        hex_lattice(3, 3) * 1e-200,  # squared distances underflow to 0, as in the tree
    ], ids=["two", "five", "underflow"])
    def test_coincident_points(self, pts):
        with pytest.raises(GeometryError, match="coincide"):
            hex_neighbors_kdtree(pts)
        with pytest.raises(GeometryError, match="coincide"):
            hex_grid_graph(pts)

    def test_overflowing_distances_raise(self):
        # squared distances of coordinates 1e200 apart overflow
        with pytest.raises(GeometryError, match="too far apart"):
            hex_grid_graph(hex_lattice(3, 3) * 1e200)
        with pytest.raises(GeometryError, match="too far apart"):
            hex_grid_graph(hex_lattice(3, 3) * 1e200, pitch=1e200)

    def test_pitch_with_duplicated_spots(self):
        # The pitch is the minimum nonzero pairwise distance. The tree oracle
        # takes the nearest distance of each point and skips points with a
        # coincident twin, so the two differ when every closest pair joins
        # two duplicated spots.
        pts = np.array([[0, 0], [0, 0], [1, 0], [1, 0], [10, 0], [12, 0]], dtype=float)
        assert hex_neighbors_kdtree(pts)[0] == 2.0
        assert hex_grid_graph(pts).params["pitch"] == 1.0
        pts = np.array([[0, 0], [0, 0], [1, 0], [1, 0]], dtype=float)
        with pytest.raises(GeometryError, match="coincide"):
            hex_neighbors_kdtree(pts)
        assert hex_grid_graph(pts).params["pitch"] == 1.0
        # they agree when an unduplicated spot is at the pitch
        pts = np.vstack([hex_lattice(4, 4), hex_lattice(4, 4)[:3]])
        assert hex_grid_graph(pts).params["pitch"] == hex_neighbors_kdtree(pts)[0]


class TestRectGridGraph:
    def test_full_3x3_grid(self):
        pts = [(x, y) for y in range(3) for x in range(3)]
        g = rect_grid_graph(pts)
        assert g.n_edges == 12
        assert np.all(g.degrees() <= 4)

    def test_line_of_spots_is_a_path(self):
        pts = [(float(i), 0.0) for i in range(6)]
        g = rect_grid_graph(pts)
        assert g.n_edges == 5
        assert edge_set(g) == {(i, i + 1) for i in range(5)}

    def test_missing_center_cell(self):
        pts = [(x, y) for y in range(3) for x in range(3) if (x, y) != (1, 1)]
        g = rect_grid_graph(pts)
        assert g.n_edges == 8

    def test_jitter_within_tolerance_is_snapped(self):
        rng = np.random.default_rng(2)
        pts = np.asarray([(x, y) for y in range(4) for x in range(4)], dtype=float)
        g = rect_grid_graph(pts + rng.uniform(-0.05, 0.05, pts.shape))
        assert g.n_edges == 24

    def test_no_edge_longer_than_1_1_spacing(self):
        rng = np.random.default_rng(6)
        pts = np.asarray([(x, y) for y in range(6) for x in range(6)], dtype=float)
        jittered = pts + rng.uniform(-0.06, 0.06, pts.shape)
        g = rect_grid_graph(jittered)
        sx, sy = g.params["spacing_x"], g.params["spacing_y"]
        lengths = np.linalg.norm(jittered[g.edges[:, 0]] - jittered[g.edges[:, 1]], axis=1)
        assert np.all(lengths <= 1.1 * max(sx, sy))

    @pytest.mark.parametrize("second_block", [9, 15])
    def test_empty_band_between_column_blocks(self, second_block):
        # the band between columns 4 and 9 (or 15) is the sharpest gap jump
        cols = [*range(5), *range(second_block, second_block + 5)]
        g = rect_grid_graph([(x, y) for y in range(6) for x in cols])
        assert g.n_edges == 98  # two 5x6 blocks of 49 edges, none across the band
        assert g.params == {"spacing_x": 1.0, "spacing_y": 1.0}

    @pytest.mark.parametrize("pts", [
        [(0, 0), (0.1, 0), (1, 0), (2, 0), (3, 0)],
        [(x, y) for y in range(3) for x in range(4)] + [(0.1, 0)],
        [(x, y) for y in range(3) for x in range(2)] + [(0.9, 0)],
    ], ids=["row", "three_rows", "two_columns"])
    def test_stray_spot_is_not_a_lattice_line(self, pts):
        # a finer grouping fits along x (spacing 0.1, multiples 1, 9, 10, ...),
        # but taking it would drop every horizontal edge of the grid
        with pytest.raises(GeometryError, match="same grid cell"):
            rect_grid_graph(pts)
        with pytest.raises(GeometryError):
            rect_neighbors_dict(pts)

    @pytest.mark.parametrize("seed", [28, 32, 45, 49])
    def test_jitter_with_uneven_within_level_gaps(self, seed):
        # ±6 % jitter whose tiniest within-level gaps differ more than
        # fourfold; each spot keeps its own cell
        pts = np.asarray([(x, y) for y in range(6) for x in range(6)], dtype=float)
        jittered = pts + np.random.default_rng(seed).uniform(-0.06, 0.06, pts.shape)
        g = rect_grid_graph(jittered)
        sx, sy = g.params["spacing_x"], g.params["spacing_y"]
        expected = set()
        for v in range(len(pts)):
            for u, spacing in ((v + 1, sx), (v + 6, sy)):
                if u < len(pts) and np.abs(pts[u] - pts[v]).sum() == 1 \
                        and np.linalg.norm(jittered[u] - jittered[v]) <= 1.1 * spacing:
                    expected.add((v, u))
        assert edge_set(g) == expected

    def test_inconsistent_lattice_raises(self):
        with pytest.raises(GeometryError):
            rect_grid_graph([(0, 0), (1, 0), (2.4, 0), (3, 0)])

    def test_duplicate_cell_raises(self):
        with pytest.raises(GeometryError):
            rect_grid_graph([(0, 0), (0.01, 0.0), (1, 0), (2, 0)])


def _rect_lattice(rows, cols, sx=1.0, sy=1.0):
    return np.asarray([(x * sx, y * sy) for y in range(rows) for x in range(cols)])


def _checkerboard_jitter(grid, jx, jy):
    """Shift spot (column c, row r) of a row-major grid by (jx[c], jy[r]) times
    (-1)**(c + r): every level keeps its mean, and a neighbour pair along x
    ends up jx[c] + jx[c + 1] longer or shorter than the spacing."""
    col = np.tile(np.arange(len(jx)), len(jy))
    row = np.repeat(np.arange(len(jy)), len(jx))
    sign = (-1.0) ** (col + row)
    return grid + sign[:, None] * np.column_stack([jx[col], jy[row]])


def _rect_inputs():
    """(name, coordinates) of rectangular grids, near-grids and non-grids."""
    rng = np.random.default_rng(41)
    full = _rect_lattice(20, 30, sx=2.5, sy=4.0)
    cases = [
        ("full", full),
        ("missing_cells", full[rng.random(len(full)) > 0.3]),
        ("jitter_3pct", full + rng.uniform(-0.03, 0.03, full.shape) * [2.5, 4.0]),
        ("jitter_4_9pct", _checkerboard_jitter(full, rng.uniform(0.04, 0.09, 30) * 2.5,
                                               rng.uniform(0.04, 0.09, 20) * 4.0)),
        ("permuted", full[rng.permutation(len(full))]),
        ("offset", full + [1e6, -3e5]),
        ("one_row", _rect_lattice(1, 40, sx=0.7)),
        ("one_column", _rect_lattice(40, 1, sy=0.7)),
        ("one_spot", np.array([[3.0, 4.0]])),
        ("duplicated_spots", np.vstack([full, full[7:8]])),
        ("duplicated_after_snapping", np.vstack([full, full[7:8] + 0.05])),
        # the pair (0, 1) is exactly 1.1x the spacing apart, and kept
        ("on_the_bound", np.array([(-0.05, 0), (1.05, 0), (1.95, 0),
                                   (0.05, 1), (0.95, 1), (2.05, 1)])),
        ("uneven_levels", np.array([(0, 0), (1, 0), (2.4, 0), (3, 0)], dtype=float)),
    ]
    for t in range(60):
        rows, cols = (int(v) for v in rng.integers(1, 12, 2))
        spacing = rng.uniform(0.1, 10, 2)
        pts = _rect_lattice(rows, cols, *spacing) + rng.uniform(-1e4, 1e4, 2)
        if t % 2:
            pts = pts + rng.uniform(-1, 1, pts.shape) * spacing * rng.choice([0.01, 0.06, 0.09])
        if t % 3 == 0:
            pts = pts[rng.random(len(pts)) > 0.3]
        if t % 5 == 0 and len(pts):
            pts = np.vstack([pts, pts[rng.integers(len(pts))]])
        if len(pts):
            cases.append((f"small_{t}", pts[rng.permutation(len(pts))]))
    return cases


RECT_INPUTS = _rect_inputs()


class TestRectNeighbourSearch:
    """The cell search over snapped indices against the per-cell dict lookup:
    equal params and identical edges, or a GeometryError from both."""

    @pytest.mark.parametrize("name", [name for name, _ in RECT_INPUTS])
    def test_matches_dict_lookup(self, name):
        pts = dict(RECT_INPUTS)[name]
        try:
            params, edges = rect_neighbors_dict(pts)
        except GeometryError:
            with pytest.raises(GeometryError):
                rect_grid_graph(pts)
            return
        g = rect_grid_graph(pts)
        assert g.params == params
        assert g.edges.dtype == edges.dtype and np.array_equal(g.edges, edges)

    def test_inputs_reach_every_outcome(self):
        # the cases above include dropped edges, kept bound pairs and errors
        outcomes = {}
        for name, pts in RECT_INPUTS:
            try:
                outcomes[name] = rect_neighbors_dict(pts)[1]
            except GeometryError:
                outcomes[name] = None
        assert len(outcomes["jitter_4_9pct"]) < len(outcomes["full"])
        assert len(outcomes["jitter_3pct"]) == len(outcomes["full"])
        assert [0, 1] in outcomes["on_the_bound"].tolist()
        for name in ("duplicated_spots", "duplicated_after_snapping", "uneven_levels"):
            assert outcomes[name] is None


class TestGraphProperties:
    @pytest.mark.parametrize("builder", [
        lambda pts: epsilon_graph(pts, 0.35),
        delaunay_graph,
    ])
    def test_permutation_equivariance(self, builder):
        rng = np.random.default_rng(13)
        pts = rng.random((25, 2))
        perm = rng.permutation(25)
        g = builder(pts)
        g_perm = builder(pts[perm])
        # vertex v of the permuted input is vertex perm[v] of the original
        relabeled = {tuple(sorted((int(perm[i]), int(perm[j])))) for i, j in g_perm.edges}
        assert relabeled == edge_set(g)

    def test_hex_permutation_equivariance(self):
        rng = np.random.default_rng(21)
        pts = hex_lattice(4, 5)
        perm = rng.permutation(len(pts))
        g = hex_grid_graph(pts)
        g_perm = hex_grid_graph(pts[perm])
        relabeled = {tuple(sorted((int(perm[i]), int(perm[j])))) for i, j in g_perm.edges}
        assert relabeled == edge_set(g)

    def test_rect_permutation_equivariance(self):
        rng = np.random.default_rng(22)
        pts = np.asarray([(x, y) for y in range(4) for x in range(5) if (x, y) != (2, 2)],
                         dtype=float)
        perm = rng.permutation(len(pts))
        g = rect_grid_graph(pts)
        g_perm = rect_grid_graph(pts[perm])
        relabeled = {tuple(sorted((int(perm[i]), int(perm[j])))) for i, j in g_perm.edges}
        assert relabeled == edge_set(g)

    def test_edges_are_canonical(self):
        # the edge canonicaliser checks neither range nor self-loops, so each
        # builder must only ever pair two distinct points, coincident ones included
        rng = np.random.default_rng(1)
        cloud = rng.random((30, 2))
        cloud = np.concatenate([cloud, cloud[:5]])
        hexes = hex_lattice(5, 5)
        rect = np.asarray([(x, y) for y in range(4) for x in range(5) if (x, y) != (2, 1)],
                          dtype=float)
        for build, pts in [(lambda p: epsilon_graph(p, 0.3), cloud), (delaunay_graph, cloud),
                           (hex_grid_graph, np.concatenate([hexes, hexes[[0, 4]]])),
                           (rect_grid_graph, rect)]:
            e = build(pts[rng.permutation(len(pts))]).edges
            assert e.dtype == np.int64 and e.shape == (len(e), 2) and len(e) > 0
            assert np.all(0 <= e[:, 0]) and np.all(e[:, 0] < e[:, 1])
            assert np.all(e[:, 1] < len(pts))
            assert np.array_equal(e, np.unique(e, axis=0))  # sorted and duplicate-free


def _graphs_with_sparse_corners():
    rng = np.random.default_rng(31)
    graphs = [random_graph(rng, n, prob) for n in (1, 2, 7, 30, 60)
              for prob in (0.0, 0.05, 0.3, 1.0)]
    # isolated vertices first, last and in the middle, and an edgeless graph
    graphs.append(make_graph(rng.random((9, 2)), [(1, 2), (2, 3), (5, 7)]))
    graphs.append(make_graph(rng.random((5, 2)), []))
    graphs.append(epsilon_graph([(0, 0), (1, 0), (3, 0)], 0.5))
    graphs.append(hex_grid_graph([(0.0, 0.0)]))
    return graphs


@pytest.mark.parametrize("graph", _graphs_with_sparse_corners())
def test_csr_and_degrees_match_the_scatter_oracle(graph):
    # the cached edge index, a CSR of the edges to higher-numbered
    # neighbours, against a plain loop over the edges, and the bincount
    # degrees against the np.add.at ones they replaced: same values, same
    # dtypes, edgeless graphs and isolated vertices included
    ends, row_ptr = graph.edge_index
    assert ends.flags.c_contiguous
    assert graph.edge_index[0] is ends  # built once per graph
    got = (ends, row_ptr, graph.degrees())
    want = (*edge_index_loop(graph), degrees_add_at(graph))
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def _component_graphs():
    """Connected, disconnected, edgeless, one-vertex and empty graphs, long
    paths and stars in both labellings, and lattices."""
    rng = np.random.default_rng(37)
    graphs = _graphs_with_sparse_corners()
    n = 300
    path = [(i, i + 1) for i in range(n - 1)]
    order = rng.permutation(n)
    graphs += [
        make_graph(rng.random((n, 2)), path),
        make_graph(rng.random((n, 2)), [(order[i], order[i + 1]) for i in range(n - 1)]),
        make_graph(rng.random((n, 2)), [(0, i) for i in range(1, n)]),
        make_graph(rng.random((n, 2)), [(i, n - 1) for i in range(n - 1)]),
        # two paths and a triangle, interleaved labels, and isolated vertices
        make_graph(rng.random((12, 2)), [(0, 2), (2, 4), (4, 6), (1, 3), (3, 5), (7, 9),
                                         (9, 11), (7, 11)]),
        hex_grid_graph(hex_lattice(9, 11)),
        rect_grid_graph(np.asarray([(x, y) for y in range(6) for x in range(7)
                                    if (x, y) not in {(3, 0), (3, 1), (3, 2), (3, 3), (3, 4),
                                                      (3, 5)}], dtype=float)),
        delaunay_graph(rng.random((200, 2))),
        SpatialGraph(np.zeros((0, 2)), np.zeros((0, 2), dtype=np.int64), GraphKind.EPSILON, {}),
    ]
    return graphs


class TestComponentCount:
    """`SpatialGraph.n_components` against scipy's connected_components."""

    @pytest.mark.parametrize("graph", _component_graphs())
    def test_matches_scipy(self, graph):
        assert graph.n_components == component_count_scipy(graph)

    def test_named_cases(self):
        rng = np.random.default_rng(41)
        assert make_graph(rng.random((5, 2)), [(0, 1), (1, 2), (2, 3), (3, 4)]).n_components == 1
        assert make_graph(rng.random((6, 2)), [(0, 1), (2, 3), (4, 5)]).n_components == 3
        assert make_graph(rng.random((4, 2)), []).n_components == 4
        assert make_graph([(0.0, 0.0)], []).n_components == 1
        empty = SpatialGraph(np.zeros((0, 2)), np.zeros((0, 2), dtype=np.int64),
                             GraphKind.EPSILON, {})
        assert empty.n_components == 0

    def test_lean_graph_for_pool_workers(self):
        # run_battery hands its workers a copy without the cached properties;
        # it counts the same after a pickle round trip, cached or not, and a
        # worker rebuilds the edge index rather than unpickling it
        import pickle

        cached = {"n_components", "edge_index"}
        rng = np.random.default_rng(43)
        graph = make_graph(rng.random((80, 2)), [(i, i + 1) for i in range(0, 79, 2)]
                           + [(i, i + 2) for i in range(0, 60, 4)])
        want = component_count_scipy(graph)
        assert graph.n_components == want
        assert cached <= set(vars(graph))
        lean = SpatialGraph(graph.coords, graph.edges, graph.kind, graph.params)
        assert not cached & set(vars(lean))
        shipped = pickle.loads(pickle.dumps(lean))
        assert not cached & set(vars(shipped))
        assert shipped.n_components == want
        for got, built in zip(shipped.edge_index, graph.edge_index):
            assert got is not built
            assert np.array_equal(got, built)
        assert lean.n_components == want
        assert pickle.loads(pickle.dumps(lean)).n_components == want
        assert graph.n_components == want
