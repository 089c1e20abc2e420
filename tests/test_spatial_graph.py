import numpy as np
import pytest

from topospat import (
    GeometryError,
    GeometryWarning,
    GraphKind,
    ParameterError,
    delaunay_graph,
    epsilon_graph,
    hex_grid_graph,
    rect_grid_graph,
    write_graph,
)

from oracles import delaunay_edges_bruteforce, hex_lattice, hex_neighbors_kdtree


def edge_set(graph):
    return {tuple(e) for e in graph.edges.tolist()}


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

    def test_too_few_points(self):
        with pytest.raises(GeometryError, match="epsilon_graph"):
            delaunay_graph([(0, 0), (1, 1)])

    def test_collinear_points(self):
        with pytest.raises(GeometryError):
            delaunay_graph([(0, 0), (1, 0), (2, 0), (3, 0)])

    def test_deterministic(self):
        pts = np.random.default_rng(3).random((30, 2))
        assert np.array_equal(delaunay_graph(pts).edges, delaunay_graph(pts).edges)


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

    def test_inconsistent_lattice_raises(self):
        with pytest.raises(GeometryError):
            rect_grid_graph([(0, 0), (1, 0), (2.4, 0), (3, 0)])

    def test_duplicate_cell_raises(self):
        with pytest.raises(GeometryError):
            rect_grid_graph([(0, 0), (0.01, 0.0), (1, 0), (2, 0)])


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
        g = delaunay_graph(np.random.default_rng(1).random((15, 2)))
        assert np.all(g.edges[:, 0] < g.edges[:, 1])
        assert len(np.unique(g.edges, axis=0)) == g.n_edges


def test_write_graph(tmp_path):
    g = epsilon_graph([(0, 0), (1, 0), (3, 0)], 1.5)
    path = tmp_path / "graph.tsv"
    write_graph(g, path)
    assert path.read_text().splitlines() == ["i\tj", "0\t1"]
    sidecar = (tmp_path / "graph.tsv.json").read_text()
    assert '"epsilon"' in sidecar and '"n_edges": 1' in sidecar
    assert g.kind is GraphKind.EPSILON
