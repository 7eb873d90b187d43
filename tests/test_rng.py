"""The key-addressed draw layer: the bits of a fill do not depend on how it
is split across threads, and uniforms stay inside the open interval."""

import numpy as np
import pytest
from scipy.special import ndtri

from hrex import rng
from hrex.rng import RngKey, standard_normal, uniform_open


def sequential_uniforms(key, size):
    # reference: one sequential fill, the 53-bit integer's lattice midpoint
    return (key.generator().integers(0, 1 << 53, size=size).astype(np.float64) + 0.5) / (1 << 53)


def counted_opens(monkeypatch):
    opens = []
    generator = RngKey.generator

    def counting(key):
        opens.append(key)
        return generator(key)

    monkeypatch.setattr(RngKey, "generator", counting)
    return opens


@pytest.mark.parametrize("size, parts", [(1001, 1), (2003, 2), (2000, 2), (3002, 3), (4097, 3)])
def test_split_fill_gives_the_sequential_bits(size, parts, monkeypatch):
    # parts of at least 1000 values on up to 3 threads; sizes that are not
    # a multiple of 4 leave a short last part
    key = RngKey(41).child(size)
    want = sequential_uniforms(key, size)
    monkeypatch.setattr(rng, "_PART_VALUES", 1000)
    monkeypatch.setattr(rng.os, "cpu_count", lambda: 3)
    opens = counted_opens(monkeypatch)
    assert np.array_equal(uniform_open(key, size), want)
    assert np.array_equal(standard_normal(key, size), ndtri(want))
    assert opens == [key] * 2 * parts


def test_shaped_draw_is_the_flat_draw_reshaped(monkeypatch):
    key = RngKey(43)
    want = sequential_uniforms(key, 3 * 1001).reshape(3, 1001)
    monkeypatch.setattr(rng, "_PART_VALUES", 1000)
    monkeypatch.setattr(rng.os, "cpu_count", lambda: 2)
    assert np.array_equal(uniform_open(key, (3, 1001)), want)
    assert np.array_equal(standard_normal(key, (3, 1001)), ndtri(want))


def test_out_is_filled_in_place():
    key = RngKey(47).child(3)
    block = np.zeros((3, 7))
    got = uniform_open(key, 7, out=block[1])
    assert np.shares_memory(got, block)
    assert np.array_equal(block[1], sequential_uniforms(key, 7))
    assert not block[0].any() and not block[2].any()
    for size, out in ((3, block[:, 0]), (6, block[0]), ((1, 7), block[0])):
        with pytest.raises(ValueError, match="C-contiguous array of shape"):
            uniform_open(key, size, out=out)


def test_top_lattice_point_stays_below_one(monkeypatch):
    # Generator.random's largest value 1 - 2^-53 plus the half step rounds
    # to 1.0; it is clamped to the largest double below 1
    class Top:
        def random(self, out):
            out[...] = 1.0 - 2.0**-53

    monkeypatch.setattr(RngKey, "generator", lambda key: Top())
    u = uniform_open(RngKey(1), 5)
    assert (u == np.nextafter(1.0, 0.0)).all()
    z = standard_normal(RngKey(1), 5)
    assert np.isfinite(z).all() and (z > 8.0).all()
