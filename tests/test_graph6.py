import pytest

from defram import (
    Graph6Error,
    complete_graph,
    cycle_graph,
    empty_graph,
    graph6_decode,
    graph6_encode,
    named_graph,
)


def test_known_encodings():
    assert graph6_encode(complete_graph(2)) == "A_"
    assert graph6_encode(empty_graph(5)) == "D??"
    assert graph6_decode("A_") == complete_graph(2)
    assert graph6_decode("A?") == empty_graph(2)


def test_roundtrip_small(all_levels_6):
    for level in all_levels_6:
        for g in level:
            assert graph6_decode(graph6_encode(g)) == g


def test_roundtrip_named_graphs():
    for tag in ("g1", "g2", "g3", "g4", "s1", "s2", "s3", "s4", "s5", "s6", "s7",
                "gkl:2:3", "gkl:3:2", "hl:6"):
        g = named_graph(tag)
        assert graph6_decode(graph6_encode(g)) == g


def test_malformed_input():
    with pytest.raises(Graph6Error):
        graph6_decode("!!")
    with pytest.raises(Graph6Error):
        graph6_decode("")
    with pytest.raises(Graph6Error) as err:
        graph6_decode("D?")  # truncated order-5 line
    assert "offset" in str(err.value)
    with pytest.raises(Graph6Error):
        graph6_decode("~??")  # truncated 4-byte size header


def test_roundtrip_large_orders():
    for n in (62, 63, 64):
        for g in (empty_graph(n), cycle_graph(n), complete_graph(n)):
            assert graph6_decode(graph6_encode(g)) == g
    assert graph6_encode(empty_graph(62))[0] == "}"
    assert graph6_encode(empty_graph(63)).startswith("~??~")
    assert graph6_encode(empty_graph(64)).startswith("~?@?")


def test_orders_above_64_are_refused():
    for header in ("~?@@", "~?~~", "~~??????", "~~?????@"):
        with pytest.raises(Graph6Error):
            graph6_decode(header + "?" * 400)
