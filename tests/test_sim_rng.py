"""Unit tests for named deterministic RNG streams."""

from repro.sim.rng import RngRegistry


def test_same_name_returns_same_stream():
    registry = RngRegistry(42)
    assert registry.stream("a") is registry.stream("a")


def test_streams_are_reproducible_across_registries():
    first = RngRegistry(42).stream("replica.0")
    second = RngRegistry(42).stream("replica.0")
    assert [first.random() for _ in range(10)] == [
        second.random() for _ in range(10)
    ]


def test_different_names_give_different_sequences():
    registry = RngRegistry(42)
    a = [registry.stream("a").random() for _ in range(5)]
    b = [registry.stream("b").random() for _ in range(5)]
    assert a != b


def test_different_seeds_give_different_sequences():
    a = RngRegistry(1).stream("x").random()
    b = RngRegistry(2).stream("x").random()
    assert a != b


def test_consuming_one_stream_does_not_disturb_another():
    registry = RngRegistry(7)
    reference = RngRegistry(7)
    expected = [reference.stream("b").random() for _ in range(5)]
    for _ in range(100):
        registry.stream("a").random()
    actual = [registry.stream("b").random() for _ in range(5)]
    assert actual == expected


def test_root_seed_exposed():
    assert RngRegistry(123).root_seed == 123
