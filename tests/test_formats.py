import json
import random
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from nbhdrecon import (
    FormatError,
    Graph,
    InputError,
    NeighborhoodMultiset,
    SetFamily,
    closed_support,
    neighborhood_multiset,
)
from nbhdrecon.formats import (
    family_from_json_dict,
    family_to_json_dict,
    from_graph6,
    graph_from_json_dict,
    graph_to_json_dict,
    multiset_from_json_dict,
    multiset_to_json_dict,
    parse_json,
    to_dot,
    to_graph6,
)

from helpers import WORKED_EXAMPLE, random_graph


def nx_graph6(g: Graph) -> str:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return nx.to_graph6_bytes(h, header=False).decode().strip()


class TestGraph6:
    def test_known_strings_against_networkx(self):
        cases = [
            Graph(1),
            Graph(2, [(0, 1)]),
            Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
            Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)]),
            Graph(8, WORKED_EXAMPLE.edges()),
        ]
        for g in cases:
            assert to_graph6(g) == nx_graph6(g)

    def test_decode_networkx_output(self):
        rng = random.Random(12)
        for _ in range(50):
            g = random_graph(rng.randint(1, 12), rng)
            assert from_graph6(nx_graph6(g)) == Graph(g.n, g.edges())

    @given(st.integers(1, 20), st.data())
    @settings(max_examples=80)
    def test_roundtrip_fuzz(self, n, data):
        rng = random.Random(data.draw(st.integers(0, 10 ** 9)))
        g = random_graph(n, rng)
        assert from_graph6(to_graph6(g)) == g
        assert to_graph6(g) == nx_graph6(g)

    def test_header_stripped(self):
        g = Graph(3, [(0, 1)])
        assert from_graph6(">>graph6<<" + to_graph6(g)) == g

    @pytest.mark.parametrize("n", [62, 63, 64])
    def test_long_size_form_roundtrip(self, n):
        # from n = 63 the size is "~" and then n in three 6-bit groups
        g = random_graph(n, random.Random(n))
        text = to_graph6(g)
        assert text == nx_graph6(g)
        assert text.startswith("~") == (n > 62)
        assert from_graph6(text) == g

    def test_large_graphs_rejected(self):
        # n = 65 in the long size form, with a body of the right length
        with pytest.raises(FormatError, match="must be in 1..64"):
            from_graph6("~?@@" + "?" * (65 * 64 // 2 // 6 + 1))
        with pytest.raises(FormatError, match="must be in 1..64"):
            from_graph6("~~" + "?" * 10)  # the 36-bit size form
        with pytest.raises(FormatError, match="position 0"):
            from_graph6("~??")  # a size cut short

    def test_malformed_inputs_carry_positions(self):
        with pytest.raises(FormatError):
            from_graph6("")
        with pytest.raises(FormatError, match="position 0"):
            from_graph6("~AAAA")
        with pytest.raises(FormatError):
            from_graph6("D")  # truncated body
        with pytest.raises(FormatError, match="position"):
            from_graph6("C" + chr(130))

    def test_padding_bits_checked(self):
        # n=3 stores 3 data bits plus 3 padding bits; flipping the lowest
        # bit of the final byte dirties the padding
        good = to_graph6(Graph(3, [(0, 1)]))
        tampered = good[:-1] + chr(ord(good[-1]) ^ 1)
        with pytest.raises(FormatError):
            from_graph6(tampered)


class TestDot:
    def test_edges_and_isolated_vertices_present(self):
        g = Graph(4, [(0, 1), (1, 2)], labels=["a", "b", "c", "d"])
        dot = to_dot(g)
        assert '"a" -- "b";' in dot
        assert '"b" -- "c";' in dot
        assert '"d";' in dot
        assert dot.startswith("graph g {")

    def test_labels_with_quotes_and_backslashes_are_escaped(self):
        g = Graph(3, [(0, 1)], labels=['a"b', "c\\", "d"])
        assert to_dot(g) == 'graph g {\n  "d";\n  "a\\"b" -- "c\\\\";\n}\n'


class TestGraphJson:
    def test_roundtrip(self):
        g = Graph(5, [(0, 1), (2, 4)], labels=["p", "q", "r", "s", "t"])
        obj = graph_to_json_dict(g)
        back = graph_from_json_dict(json.loads(json.dumps(obj)))
        assert back == g and back.labels == g.labels

    def test_edge_list_form(self):
        g = graph_from_json_dict({"n": 3, "edges": [[0, 1], [1, 2]]})
        assert g == Graph(3, [(0, 1), (1, 2)])

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(FormatError):
            graph_from_json_dict({"n": 2, "adjacency": [[1], []]})

    def test_missing_fields_rejected(self):
        with pytest.raises(FormatError):
            graph_from_json_dict({"n": 2})
        with pytest.raises(FormatError):
            graph_from_json_dict({"adjacency": [[1], [0]]})

    @pytest.mark.parametrize("obj", [
        {"n": 3, "labels": 5, "edges": []},
        {"n": 3, "labels": [[1], [2], [3]], "edges": []},
        {"n": 3, "labels": "abc", "edges": []},
        {"n": 3, "edges": 5},
        {"n": True, "edges": []},
        {"n": True, "adjacency": [[]]},
        {"n": 3, "edges": [[True, 2]]},
        {"n": 2, "adjacency": [[True], [0]]},
    ])
    def test_mistyped_fields_rejected(self, obj):
        # bool is an int subclass, so true must not pass for 1
        with pytest.raises(FormatError):
            graph_from_json_dict(obj)

    @pytest.mark.parametrize("labels", [
        "[true, false]", "[1, true]", "[NaN, 1]", "[Infinity, 1]", "[1e400, 1]",
    ])
    def test_labels_must_be_strings_or_finite_numbers(self, labels):
        # JSON true is never a number, and a non-finite float does not
        # write back as JSON
        obj = parse_json('{"n": 2, "edges": [], "labels": %s}' % labels)
        with pytest.raises(FormatError, match="finite numbers"):
            graph_from_json_dict(obj)

    def test_string_int_and_float_labels_accepted(self):
        g = graph_from_json_dict(parse_json(
            '{"n": 3, "edges": [[0, 1]], "labels": ["a", -2, 2.5]}'))
        assert g.labels == ("a", -2, 2.5)


class TestFamilyJson:
    def test_canonical_order_is_diff_stable(self):
        f = SetFamily(4, [0b1100, 0b0001, 0b0110])
        obj = family_to_json_dict(f)
        assert obj == {"universe": 4, "sets": [[0], [1, 2], [2, 3]]}

    def test_family_roundtrip(self):
        f = closed_support(WORKED_EXAMPLE)
        assert family_from_json_dict(family_to_json_dict(f)) == f

    def test_multiset_roundtrip_keeps_multiplicity(self):
        m = neighborhood_multiset(Graph(2, [(0, 1)]))
        obj = multiset_to_json_dict(m)
        assert obj["sets"] == [[0, 1], [0, 1]]
        assert multiset_from_json_dict(obj) == m

    def test_family_parse_dedupes(self):
        obj = {"universe": 2, "sets": [[0, 1], [0, 1]]}
        assert len(family_from_json_dict(obj)) == 1
        assert multiset_from_json_dict(obj).total_multiplicity == 2

    def test_out_of_universe_members_rejected(self):
        with pytest.raises(FormatError):
            family_from_json_dict({"universe": 2, "sets": [[2]]})

    @pytest.mark.parametrize("parse", [family_from_json_dict, multiset_from_json_dict])
    def test_universe_ceiling_checked_before_any_member(self, parse):
        # a member below a huge universe would cost a (member + 1)-bit mask:
        # 12 MiB for this one, 128 GiB for one near 2^40
        obj = {"universe": 10**8, "sets": [[10**8 - 1]]}
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match=r"^universe must be in 0\.\.64, got 100000000$"):
                parse(obj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("parse", [family_from_json_dict, multiset_from_json_dict])
    def test_repeated_vertex_rejected(self, parse):
        # summed bits would read [0, 0] as {1} and [1, 1] as {2}
        with pytest.raises(FormatError, match=r"^set #0 lists vertex 0 twice$"):
            parse({"universe": 2, "sets": [[0, 0], [0, 1]]})
        with pytest.raises(FormatError, match=r"^set #1 lists vertex 1 twice$"):
            parse({"universe": 3, "sets": [[0], [1, 2, 1]]})
        assert parse({"universe": 2, "sets": [[1, 0], [0]]}) == \
            parse({"universe": 2, "sets": [[0, 1], [0]]})

    @pytest.mark.parametrize("obj", [
        {"universe": True, "sets": [[0]]},
        {"universe": 2, "sets": [[True]]},
        {"universe": 2, "sets": [[0, False]]},
    ])
    def test_bools_rejected(self, obj):
        with pytest.raises(FormatError):
            family_from_json_dict(obj)
        with pytest.raises(FormatError):
            multiset_from_json_dict(obj)

    def test_bad_json_carries_position(self):
        with pytest.raises(FormatError, match="position"):
            parse_json("{not json")

    @given(st.integers(0, 10), st.data())
    def test_fuzz_roundtrip(self, universe, data):
        masks = data.draw(st.lists(st.integers(0, max(0, (1 << universe) - 1)),
                                   max_size=8))
        f = SetFamily(universe, masks)
        assert family_from_json_dict(family_to_json_dict(f)) == f
        m = NeighborhoodMultiset(universe, masks)
        assert multiset_from_json_dict(multiset_to_json_dict(m)) == m
