import itertools

import pytest
from conftest import ball_with_edges, direct_successors, level_start, vertex_parity

from padic_potts.cayley_tree import TreeShape, parse_address, render_address


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
            assert ball_with_edges(shape, 0) == ([()], [])
            for n in range(1, 9):
                want = (k + 1) * k ** (n - 1)
                vertices = ball_with_edges(shape, n)[0]
                assert sum(len(v) == n for v in vertices) == want == shape.sphere_size(n)
                assert len(vertices) == shape.ball_size(n)
                assert shape.ball_size(n) == sum(shape.sphere_size(m) for m in range(n + 1))
            # the walk's order against a separate enumeration of the addresses
            for n in range(6):
                vertices, pairs = ball_with_edges(shape, n)
                assert vertices == _addresses_in_level_order(k, n)
                # the n-th sphere is the ball's tail
                assert {len(v) for v in vertices[-shape.sphere_size(n):]} == {n}
                assert [(vertices[i], vertices[j]) for i, j in pairs] == [
                    (v[:-1], v) for v in vertices[1:]
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
                for a in v:
                    offset = offset * k + a
                assert j == starts[len(v)] + offset
            assert len(pairs) == len(vertices) - 1
            for i, j in pairs:
                m = len(vertices[j])
                assert i == (0 if m == 1 else starts[m - 1] + (j - starts[m]) // k)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_index_arithmetic_matches_the_walk(self, k):
        # the walk that makes each level from the one before it, through
        # direct_successors, is the oracle for the index arithmetic
        shape = TreeShape(k)
        for n in range(6):
            vertices = [()]
            pairs = []
            for i in range(shape.ball_size(n - 1) if n else 0):
                for y in direct_successors(shape, vertices[i]):
                    pairs.append((i, len(vertices)))
                    vertices.append(y)
            assert ball_with_edges(shape, n) == (vertices, pairs)
            assert ([level_start(shape, len(v)) + shape.offset_of(v) for v in vertices]
                    == list(range(len(vertices))))
            for m in range(n + 1):
                level = [v for v in vertices if len(v) == m]
                assert list(shape.level_addresses(m)) == level
                assert vertices[level_start(shape, m)] == level[0]

    def test_k2_small_values(self):
        shape = TreeShape(2)
        vertices, pairs = ball_with_edges(shape, 2)
        assert sum(len(v) == 2 for v in vertices) == 6
        assert len(vertices) == 10
        assert len(pairs) == 9  # tree on 10 vertices

    def test_line_is_two_sided(self):
        shape = TreeShape(1)
        assert sum(len(v) == 3 for v in ball_with_edges(shape, 3)[0]) == 2
        assert len(direct_successors(shape, ())) == 2

    def test_depth_guard(self):
        shape = TreeShape(2)
        for query in (TreeShape.sphere_size, TreeShape.ball_size, TreeShape.level_addresses):
            with pytest.raises(ValueError):
                query(shape, -1)

    def test_invalid_branching(self):
        with pytest.raises(ValueError):
            TreeShape(0)


class TestVertex:
    def test_root(self):
        assert parse_address("") == ()
        assert render_address(()) == ""

    def test_address_round_trip(self):
        a = parse_address("0.1.0")
        assert a == (0, 1, 0)
        assert render_address(a) == "0.1.0"
        assert parse_address(render_address(a)) == a

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_ball_address_round_trips_and_sits_at_its_offset(self, k):
        shape = TreeShape(k)
        for m in range(5):
            for o, a in enumerate(shape.level_addresses(m)):
                assert parse_address(render_address(a)) == a
                assert shape.offset_of(a) == o
                assert a in shape

    @pytest.mark.parametrize(
        "text",
        ["1_0", "0.1_0", "\u0663", "0.\u0663", " +1", "+1", "-1", "1 ", " 1", "0..1", ".0", "0.",
         "\u00b2", "\uff11", "x", "0.x"],
    )
    def test_only_ascii_digit_indices_are_addresses(self, text):
        # int() reads '1_0' as 10, the Arabic-Indic '\u0663' as 3 and ' +1' as 1
        with pytest.raises(ValueError, match="is not dot-joined child indices"):
            parse_address(text)

    def test_leading_zeros_name_the_same_index(self):
        assert parse_address("01.002") == (1, 2)

    def test_successor_counts(self):
        shape = TreeShape(2)
        assert len(direct_successors(shape, ())) == 3
        assert len(direct_successors(shape, (0,))) == 2

    def test_successors_are_children_at_next_level(self):
        shape = TreeShape(3)
        for x in ball_with_edges(shape, 2)[0][shape.ball_size(1):]:
            for y in direct_successors(shape, x):
                assert y[:-1] == x
                assert len(y) == 3

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
            assert child[:-1] == parent
            assert len(child) == len(parent) + 1

    def test_edge_count_is_vertices_minus_one(self):
        for k in (1, 2, 3):
            shape = TreeShape(k)
            for n in (1, 2, 3):
                assert len(ball_with_edges(shape, n)[1]) == shape.ball_size(n) - 1


class TestWords:
    def test_line_parity_alternates(self):
        shape = TreeShape(1)
        v = ()
        for depth in range(6):
            assert vertex_parity(v) == ("even" if depth % 2 == 0 else "odd")
            v += (0,)

    def test_edges_are_bipartite(self):
        shape = TreeShape(2)
        vertices, pairs = ball_with_edges(shape, 4)
        for i, j in pairs:
            assert vertex_parity(vertices[i]) != vertex_parity(vertices[j])
