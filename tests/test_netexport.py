import tracemalloc

import numpy as np
import pytest

import wtnrank as w

from conftest import parse_edge_csv

LABELS4 = ("AA:33", "BB:33", "CC:33", "DD:33")

# hand-placed weights; column CC has a tie between AA and DD
HAND = np.array(
    [
        [0.70, 0.10, 0.20, 0.05],
        [0.10, 0.60, 0.00, 0.30],
        [0.15, 0.05, 0.60, 0.00],
        [0.05, 0.25, 0.20, 0.65],
    ]
)


def _reference_top_links(matrix, labels, k, view):
    """Per-column Python sort: weight descending, index ascending on ties."""
    n = matrix.shape[0]
    edges = []
    for j in range(n):
        col = matrix[:, j]
        partners = [i for i in range(n) if i != j and col[i] > 0.0]
        partners.sort(key=lambda i: (-col[i], i))
        for i in partners[:k]:
            pair = (labels[j], labels[i]) if view == "import" else (labels[i], labels[j])
            edges.append((*pair, float(col[i])))
    return tuple(edges)


class TestTopLinks:
    def test_k_bounds(self):
        with pytest.raises(ValueError):
            w.top_links(HAND, LABELS4, 4)
        with pytest.raises(ValueError):
            w.top_links(HAND, LABELS4, 0)
        edges = w.top_links(HAND, LABELS4, 3)
        # k = size-1 returns every nonzero off-diagonal partner per column
        per_col = {}
        for src, dst, _ in edges.edges:
            col = src if edges.view == "import" else dst
            per_col[col] = per_col.get(col, 0) + 1
        assert per_col == {"AA:33": 3, "BB:33": 3, "CC:33": 2, "DD:33": 2}

    def test_single_offdiagonal_always_selected(self):
        m = np.diag([0.9, 0.8, 0.7]).astype(float)
        m[2, 0] = 0.1
        m[0, 1] = 0.2
        m[1, 2] = 0.3
        edges = w.top_links(m, ("a", "b", "c"), 1)
        assert edges.edges == (("a", "c", 0.1), ("b", "a", 0.2), ("c", "b", 0.3))

    def test_hand_enumeration_import_view(self):
        edges = w.top_links(HAND, LABELS4, 2, view="import")
        expected = (
            ("AA:33", "CC:33", 0.15),
            ("AA:33", "BB:33", 0.10),
            ("BB:33", "DD:33", 0.25),
            ("BB:33", "AA:33", 0.10),
            # CC column: AA and DD tie at 0.20 -> ascending index keeps AA first
            ("CC:33", "AA:33", 0.20),
            ("CC:33", "DD:33", 0.20),
            ("DD:33", "BB:33", 0.30),
            ("DD:33", "AA:33", 0.05),
        )
        assert edges.edges == expected

    def test_export_view_orientation(self):
        edges = w.top_links(HAND, LABELS4, 1, view="export")
        # column AA's best supplier is CC (0.15): flow CC -> AA
        assert edges.edges[0] == ("CC:33", "AA:33", 0.15)

    def test_selected_are_maxima(self):
        rng = np.random.default_rng(3)
        m = rng.random((8, 8))
        labels = tuple(f"N{i}" for i in range(8))
        k = 3
        edges = w.top_links(m, labels, k, view="import")
        by_col = {}
        for src, dst, weight in edges.edges:
            by_col.setdefault(src, []).append((dst, weight))
        for j, label in enumerate(labels):
            chosen = by_col[label]
            assert len(chosen) == k
            floor = min(weight for _, weight in chosen)
            chosen_rows = {labels.index(dst) for dst, _ in chosen}
            for i in range(8):
                if i != j and i not in chosen_rows:
                    assert m[i, j] <= floor

    def test_label_count_checked(self):
        with pytest.raises(ValueError):
            w.top_links(HAND, LABELS4[:3], 2)

    @pytest.mark.parametrize("view", ["import", "export"])
    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_matches_per_column_sort(self, k, view):
        # few distinct values force ties; a third of the entries are exact zeros
        rng = np.random.default_rng(k)
        m = rng.integers(0, 4, size=(9, 9)) / 4.0
        m[rng.random((9, 9)) < 0.33] = 0.0
        m[:, 2] = 0.0
        m[[2, 5], 2] = [0.5, 0.25]  # column 2: its diagonal and one partner only
        labels = tuple(f"N{i}" for i in range(9))
        assert w.top_links(m, labels, k, view=view).edges == _reference_top_links(m, labels, k, view)

    @pytest.mark.parametrize("view", ["import", "export"])
    def test_column_blocks_match_per_column_sort(self, view):
        # 70 columns go through blocks of three, the last of one column
        rng = np.random.default_rng(70)
        m = rng.integers(0, 3, size=(70, 70)) / 3.0
        labels = tuple(f"N{i}" for i in range(70))
        assert w.top_links(m, labels, 4, view=view).edges == _reference_top_links(m, labels, 4, view)

    def test_peak_at_shock_mid_size(self):
        """Beside the 733 x 733 input, the sort's temporaries (one block of
        columns at a time) and the edges peak under half an n x n array."""
        n = 733
        rng = np.random.default_rng(0)
        m = rng.random((n, n))
        m[rng.random((n, n)) < 0.5] = 0.0
        labels = tuple(f"N{i}" for i in range(n))
        tracemalloc.start()
        try:
            edges = w.top_links(m, labels, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(edges.edges) == 4 * n
        assert peak < 0.5 * 8 * n * n


class TestSerialize:
    def test_empty_edges_valid_files(self, tmp_path):
        empty = w.TradeEdgeList(edges=(), view="import", k=4)
        dot = tmp_path / "g.dot"
        csv = tmp_path / "g.csv"
        w.serialize_graph(empty, "dot", dot)
        w.serialize_graph(empty, "edge-csv", csv)
        assert dot.read_text().startswith("digraph trade {")
        assert "from,to,weight" in csv.read_text()

    def test_edge_count_and_order(self, tmp_path):
        edges = w.top_links(HAND, LABELS4, 1, view="import")
        path = tmp_path / "edges.csv"
        w.serialize_graph(edges, "edge-csv", path)
        rows = [l for l in path.read_text().splitlines() if l and not l.startswith(("#", "from"))]
        assert len(rows) == len(edges.edges)
        assert rows[0].split(",")[0] == edges.edges[0][0]

    def test_round_trip(self, tmp_path):
        edges = w.top_links(HAND, LABELS4, 2, view="export")
        path = tmp_path / "edges.csv"
        w.serialize_graph(edges, "edge-csv", path)
        assert parse_edge_csv(path) == edges

    def test_dot_attributes(self, tmp_path):
        edges = w.top_links(HAND, LABELS4, 1, view="import")
        path = tmp_path / "g.dot"
        w.serialize_graph(edges, "dot", path)
        text = path.read_text()
        assert '"AA:33" -> "CC:33" [weight=0.15, label="0.15"];' in text

    def test_determinism(self, tmp_path):
        edges = w.top_links(HAND, LABELS4, 2, view="import")
        a, b = tmp_path / "a.dot", tmp_path / "b.dot"
        w.serialize_graph(edges, "dot", a)
        w.serialize_graph(edges, "dot", b)
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_format(self, tmp_path):
        empty = w.TradeEdgeList(edges=(), view="import", k=1)
        with pytest.raises(ValueError):
            w.serialize_graph(empty, "gexf", tmp_path / "x")
