import pytest

import spans
from spans import Span


def _tree():
    # cli.main [0, 10]
    #   kernels.regularize [1, 3]
    #     kernels.quad [1.5, 2]
    #   chain.star_to_chain [4, 8]
    #     chain.star_to_chain [5, 6]     (nested repeat of the same name)
    #     dynamics.eigh [6.5, 7.5]
    # fock.enumerate_basis [10.5, 11]   (second root)
    rows = [("cli.main", 0, 10, -1), ("kernels.regularize", 1, 3, 0),
            ("kernels.quad", 1.5, 2, 1), ("chain.star_to_chain", 4, 8, 0),
            ("chain.star_to_chain", 5, 6, 3), ("dynamics.eigh", 6.5, 7.5, 3),
            ("fock.enumerate_basis", 10.5, 11, -1)]
    return [Span(n, s, e, p, "op000") for n, s, e, p in rows]


def test_self_times_subtract_children():
    assert spans.self_times(_tree()) == pytest.approx(
        [4.0, 1.5, 0.5, 2.0, 1.0, 1.0, 0.5])


def test_self_times_union_of_overlapping_children():
    tree = [Span("a.x", 0, 10, -1, "op"), Span("b.y", 1, 5, 0, "op"),
            Span("b.z", 4, 6, 0, "op")]
    assert spans.self_times(tree)[0] == pytest.approx(5.0)


def test_layer_self_and_unspanned_add_up_to_wall():
    tree = _tree()
    layers = spans.layer_self(tree)
    assert layers == pytest.approx({"kernels": 2.0, "chain": 3.0, "fock": 0.5,
                                    "dynamics": 1.0, "oracle": 0.0,
                                    "cli": 4.0})
    wall = 12.0
    assert spans.unspanned(tree, wall) == pytest.approx(1.5)
    assert sum(layers.values()) + spans.unspanned(tree, wall) \
        == pytest.approx(wall)


def test_total_counts_nested_repeats_once():
    assert spans.total(_tree(), "chain.star_to_chain") == (2, pytest.approx(4.0))
    assert spans.total(_tree(), "oracle.star_evolve") == (0, 0)


def test_minus_children():
    assert spans.minus_children(_tree(), "chain.star_to_chain",
                                {"dynamics.eigh"}) == pytest.approx(3.0)


def test_tracer_records_nesting_and_keys():
    tracer = spans.Tracer("op007")

    def inner(x):
        return x + 1

    def outer(x):
        return tracer.call("b.inner", inner, (x,), {}) * 2

    assert tracer.call("a.outer", outer, (1,), {}) == 4
    doc = tracer.to_json()
    tree = spans.load(doc)
    assert [(s.name, s.parent, s.op) for s in tree] == [
        ("a.outer", -1, "op007"), ("b.inner", 0, "op007")]
    assert tree[0].start <= tree[1].start <= tree[1].end <= tree[0].end
