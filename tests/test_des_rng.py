"""Unit tests for the seeded RNG registry."""

import pytest

from repro.des import RngRegistry
from repro.des.rng import block_draws


def test_same_name_returns_same_stream_object():
    reg = RngRegistry(seed=1)
    assert reg.stream("video") is reg.stream("video")


def test_streams_reproducible_across_registries():
    a = RngRegistry(seed=42).stream("loss").random(8)
    b = RngRegistry(seed=42).stream("loss").random(8)
    assert (a == b).all()


def test_different_names_give_independent_draws():
    reg = RngRegistry(seed=42)
    a = reg.stream("alpha").random(8)
    b = reg.stream("beta").random(8)
    assert not (a == b).all()


def test_different_seeds_differ():
    a = RngRegistry(seed=1).stream("x").random(8)
    b = RngRegistry(seed=2).stream("x").random(8)
    assert not (a == b).all()


def test_creation_order_does_not_affect_streams():
    r1 = RngRegistry(seed=7)
    r1.stream("a")
    va = r1.stream("b").random(4)

    r2 = RngRegistry(seed=7)
    vb = r2.stream("b").random(4)  # created first this time
    assert (va == vb).all()


def test_contains_and_names():
    reg = RngRegistry(seed=0)
    assert "x" not in reg
    reg.stream("x")
    reg.stream("y")
    assert "x" in reg
    assert reg.names() == ["x", "y"]


def test_a_private_stream_is_the_shared_one_handed_out_once():
    reg = RngRegistry(seed=3)
    private = reg.stream("traffic:x", private=True)
    assert "traffic:x" in reg and reg.names() == ["traffic:x"]
    shared = RngRegistry(seed=3).stream("traffic:x")
    assert (private.random(8) == shared.random(8)).all()


def test_a_private_stream_cannot_be_obtained_twice():
    reg = RngRegistry(seed=3)
    reg.stream("loss", private=True)
    with pytest.raises(ValueError, match="'loss'"):
        reg.stream("loss", private=True)
    with pytest.raises(ValueError, match="'loss'"):
        reg.stream("loss")
    # nor can a stream somebody may already be drawing from turn private
    reg.stream("video")
    with pytest.raises(ValueError, match="'video'"):
        reg.stream("video", private=True)
    assert reg.stream("video") is reg.stream("video")


@pytest.mark.parametrize("draws", [1, 256, 257, 1000])
def test_block_draws_are_the_scalar_draws_value_for_value(draws):
    """Across block boundaries, and scaled as the sources scale them:
    ``mean * standard_exponential()`` is ``exponential(mean)``."""
    mean = 0.0016
    scalar = RngRegistry(seed=8).stream("s")
    draw = block_draws(RngRegistry(seed=8).stream("s").standard_exponential)
    got = [mean * draw() for _ in range(draws)]
    assert got == [float(scalar.exponential(mean)) for _ in range(draws)]
    assert all(type(v) is float for v in got)

    scalar = RngRegistry(seed=8).stream("u")
    uniform = block_draws(RngRegistry(seed=8).stream("u").random)
    assert ([uniform() for _ in range(draws)]
            == [float(scalar.random()) for _ in range(draws)])


def test_block_draws_touch_the_stream_only_when_first_drawn_from():
    rng = RngRegistry(seed=8).stream("lazy")
    untouched = RngRegistry(seed=8).stream("lazy")
    draw = block_draws(rng.random)
    assert rng.bit_generator.state == untouched.bit_generator.state
    draw()
    assert rng.bit_generator.state != untouched.bit_generator.state
