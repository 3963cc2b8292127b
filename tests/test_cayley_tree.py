import itertools

import pytest
from conftest import direct_successors, vertex_parity

from padic_potts.cayley_tree import (
    TreeShape,
    TreeVertex,
    ball_with_edges,
)


def _addresses_in_level_order(k: int, n: int) -> list[tuple[int, ...]]:
    """Every address of the n-ball, sorted by (level, address): the root has
    k+1 children and every other vertex k."""
    out = [()]
    for m in range(1, n + 1):
        out.extend(itertools.product(range(k + 1), *[range(k)] * (m - 1)))
    return sorted(out, key=lambda a: (len(a), a))


class TestShape:
    def test_counts_match_closed_forms(self):
        for k in (1, 2, 3):
            shape = TreeShape(k)
            assert ball_with_edges(shape, 0) == ([TreeVertex.root()], [])
            for n in range(1, 9):
                want = (k + 1) * k ** (n - 1)
                vertices = ball_with_edges(shape, n)[0]
                assert sum(v.level == n for v in vertices) == want == shape.sphere_size(n)
                assert len(vertices) == shape.ball_size(n)
                assert shape.ball_size(n) == sum(shape.sphere_size(m) for m in range(n + 1))
            # the walk's order against a separate enumeration of the addresses
            for n in range(6):
                vertices, pairs = ball_with_edges(shape, n)
                assert [v.address for v in vertices] == _addresses_in_level_order(k, n)
                # the n-th sphere is the ball's tail
                assert {v.level for v in vertices[-shape.sphere_size(n):]} == {n}
                assert [(vertices[i], vertices[j]) for i, j in pairs] == [
                    (v.parent(), v) for v in vertices[1:]
                ]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_level_order_is_the_closed_form_index_map(self, k):
        # level m starts at |B_{m-1}|; an address read as a base-k numeral
        # (its first index may reach k) is its offset there; the parent of
        # index j at level m >= 2 is starts[m-1] + (j - starts[m]) // k
        shape = TreeShape(k)
        for n in range(7):
            vertices, pairs = ball_with_edges(shape, n)
            starts = [0] + [shape.ball_size(m) for m in range(n + 1)]
            for j, v in enumerate(vertices):
                offset = 0
                for a in v.address:
                    offset = offset * k + a
                assert j == starts[v.level] + offset
            assert len(pairs) == len(vertices) - 1
            for i, j in pairs:
                m = vertices[j].level
                assert i == (0 if m == 1 else starts[m - 1] + (j - starts[m]) // k)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_index_arithmetic_matches_the_walk(self, k):
        # the walk that makes each level from the one before it, through
        # direct_successors, is the oracle for the index arithmetic
        shape = TreeShape(k)
        for n in range(6):
            vertices = [TreeVertex.root()]
            pairs = []
            for i in range(shape.ball_size(n - 1) if n else 0):
                for y in direct_successors(shape, vertices[i]):
                    pairs.append((i, len(vertices)))
                    vertices.append(y)
            assert ball_with_edges(shape, n) == (vertices, pairs)
            assert ([shape.level_start(v.level) + shape.offset_of(v.address) for v in vertices]
                    == list(range(len(vertices))))
            for m in range(n + 1):
                level = [v for v in vertices if v.level == m]
                assert shape.level_vertices(m) == level
                assert vertices[shape.level_start(m)] == level[0]
            # vertices made without the address check key the same dict entries
            laws = {TreeVertex(v.address): i for i, v in enumerate(vertices)}
            assert [laws[v] for v in ball_with_edges(shape, n)[0]] == list(range(len(vertices)))

    def test_k2_small_values(self):
        shape = TreeShape(2)
        vertices, pairs = ball_with_edges(shape, 2)
        assert sum(v.level == 2 for v in vertices) == 6
        assert len(vertices) == 10
        assert len(pairs) == 9  # tree on 10 vertices

    def test_line_is_two_sided(self):
        shape = TreeShape(1)
        assert sum(v.level == 3 for v in ball_with_edges(shape, 3)[0]) == 2
        assert len(direct_successors(shape, TreeVertex.root())) == 2

    def test_depth_guard(self):
        shape = TreeShape(2)
        for query in (ball_with_edges, TreeShape.sphere_size, TreeShape.ball_size):
            with pytest.raises(ValueError):
                query(shape, -1)

    def test_invalid_branching(self):
        with pytest.raises(ValueError):
            TreeShape(0)


class TestVertex:
    def test_root(self):
        r = TreeVertex.root()
        assert r.is_root
        assert r.level == 0
        assert str(r) == ""

    def test_address_round_trip(self):
        v = TreeVertex.from_string("0.1.0")
        assert v.level == 3
        assert str(v) == "0.1.0"
        assert TreeVertex.from_string(str(v)) == v
        assert TreeVertex.from_string("") == TreeVertex.root()

    @pytest.mark.parametrize(
        "text",
        ["1_0", "0.1_0", "\u0663", "0.\u0663", " +1", "+1", "-1", "1 ", " 1", "0..1", ".0", "0.",
         "\u00b2", "\uff11", "x", "0.x"],
    )
    def test_only_ascii_digit_indices_are_addresses(self, text):
        # int() reads '1_0' as 10, the Arabic-Indic '\u0663' as 3 and ' +1' as 1
        with pytest.raises(ValueError, match="is not dot-joined child indices"):
            TreeVertex.from_string(text)

    def test_leading_zeros_name_the_same_index(self):
        assert TreeVertex.from_string("01.002") == TreeVertex((1, 2))

    def test_parent_child(self):
        v = TreeVertex.root().child(2).child(0)
        assert v.parent() == TreeVertex.root().child(2)
        assert v.parent().parent() == TreeVertex.root()
        with pytest.raises(ValueError):
            TreeVertex.root().parent()

    def test_successor_counts(self):
        shape = TreeShape(2)
        assert len(direct_successors(shape, TreeVertex.root())) == 3
        v = TreeVertex.root().child(0)
        assert len(direct_successors(shape, v)) == 2

    def test_successors_are_children_at_next_level(self):
        shape = TreeShape(3)
        for x in ball_with_edges(shape, 2)[0][shape.ball_size(1):]:
            for y in direct_successors(shape, x):
                assert y.parent() == x
                assert y.level == 3

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_membership_matches_the_ball(self, k):
        shape = TreeShape(k)
        inside = set(_addresses_in_level_order(k, 3))
        candidates = itertools.chain.from_iterable(
            itertools.product(range(k + 2), repeat=m) for m in range(4)
        )
        for address in candidates:
            assert (address in shape) == (address in inside)


class TestEdges:
    def test_every_edge_joins_adjacent_levels(self):
        shape = TreeShape(2)
        vertices, pairs = ball_with_edges(shape, 3)
        for i, j in pairs:
            parent, child = vertices[i], vertices[j]
            assert child.parent() == parent
            assert child.level == parent.level + 1

    def test_edge_count_is_vertices_minus_one(self):
        for k in (1, 2, 3):
            shape = TreeShape(k)
            for n in (1, 2, 3):
                assert len(ball_with_edges(shape, n)[1]) == shape.ball_size(n) - 1


class TestWords:
    def test_line_parity_alternates(self):
        shape = TreeShape(1)
        v = TreeVertex.root()
        for depth in range(6):
            assert vertex_parity(v) == ("even" if depth % 2 == 0 else "odd")
            v = v.child(0)

    def test_edges_are_bipartite(self):
        shape = TreeShape(2)
        vertices, pairs = ball_with_edges(shape, 4)
        for i, j in pairs:
            assert vertex_parity(vertices[i]) != vertex_parity(vertices[j])
