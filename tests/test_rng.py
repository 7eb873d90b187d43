"""The counter-addressed draw layer: a read from any start gives the bits
of one sequential fill, in the calling thread, and uniforms stay inside
the open interval.  Its core-split runner is the only thread pool in the
package, and only the sampler and theta call it."""

import ast
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

from hrex import rng
from hrex.rng import RngKey, run_parts, standard_normal, uniform_open

SRC = Path(__file__).resolve().parents[1] / "src" / "hrex"


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


@pytest.mark.parametrize("size, cpus", [(1001, 1), (2003, 2), (2000, 2), (3002, 3), (4097, 3)])
def test_split_fill_gives_the_sequential_bits(size, cpus, monkeypatch):
    # a fill opens its substream once and reads it in the calling thread,
    # however many CPUs there are; sizes that are not a multiple of 4 end
    # inside a counter step
    key = RngKey(41).child(size)
    want = sequential_uniforms(key, size)
    monkeypatch.setattr(rng.os, "cpu_count", lambda: cpus)
    opens = counted_opens(monkeypatch)
    assert np.array_equal(uniform_open(key, size), want)
    assert np.array_equal(standard_normal(key, size), ndtri(want))
    assert opens == [key] * 2


def test_shaped_draw_is_the_flat_draw_reshaped():
    key = RngKey(43)
    want = sequential_uniforms(key, 3 * 1001).reshape(3, 1001)
    assert np.array_equal(uniform_open(key, (3, 1001)), want)
    assert np.array_equal(standard_normal(key, (3, 1001)), ndtri(want))


@pytest.mark.parametrize("cpus", [1, 3])
def test_read_from_start_is_the_tail_of_a_longer_read(cpus, monkeypatch):
    # values s, s + 1, ... for every offset within and across counter steps,
    # and their normals, with one CPU or three
    key = RngKey(59)
    monkeypatch.setattr(rng.os, "cpu_count", lambda: cpus)
    size = 23
    for s in range(10):
        want = uniform_open(key, s + size)[s:]
        assert np.array_equal(want, sequential_uniforms(key, s + size)[s:])
        assert np.array_equal(uniform_open(key, size, start=s), want)
        assert standard_normal(key, size, start=s).tobytes() == ndtri(want).tobytes()


def test_negative_start_rejected():
    for draw in (uniform_open, standard_normal):
        with pytest.raises(ValueError, match="non-negative start"):
            draw(RngKey(1), 3, start=-1)


def test_out_is_filled_in_place():
    key = RngKey(47).child(3)
    block = np.zeros((3, 7))
    got = standard_normal(key, 7, start=2, out=block[1])
    assert np.shares_memory(got, block)
    assert block[1].tobytes() == ndtri(sequential_uniforms(key, 9)[2:]).tobytes()
    assert not block[0].any() and not block[2].any()
    assert np.shares_memory(uniform_open(key, 7, start=2, out=block[2]), block[2])
    assert block[2].tobytes() == sequential_uniforms(key, 9)[2:].tobytes()
    for size, out in ((3, block[:, 0]), (6, block[0]), ((1, 7), block[0])):
        for draw in (uniform_open, standard_normal):
            with pytest.raises(ValueError, match="C-contiguous array of shape"):
                draw(key, size, out=out)


@pytest.mark.parametrize("total, parts, cpus, offset", [
    (10, 3, 8, 1), (7, 10**6, 3, 1), (2, 10**6, 3, 1), (9, 3, 1, 1), (5, 0, 4, 1),
    (4097, 3, 3, 4), (2003, 2, 3, 4), (4097, 4, 4, 4), (0, 4, 4, 1),
])
def test_run_parts_covers_the_range_once_in_order(total, parts, cpus, offset, monkeypatch):
    # each range reads its slice of one fill from value offset + start, so
    # ranges that start inside a counter step still rebuild the fill
    monkeypatch.setattr(rng.os, "cpu_count", lambda: cpus)
    key = RngKey(53).child(total)
    flat = np.empty(total)
    ranges, threads = [], set()

    def work(start, stop):
        ranges.append((start, stop))  # list.append is atomic
        threads.add(threading.get_ident())
        rng._fill(key, flat[start:stop], offset + start)

    run_parts(total, parts, work)
    ranges.sort()
    assert ranges[0][0] == 0 and ranges[-1][1] == total
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
    assert all(start < stop for start, stop in ranges) or ranges == [(0, 0)]
    assert len(ranges) == max(1, min(parts, cpus, total))
    assert np.array_equal(flat, sequential_uniforms(key, offset + total)[offset:])
    # one range runs in the caller's thread, more run on pool threads only
    caller = threading.get_ident()
    assert (threads == {caller}) if len(ranges) == 1 else (caller not in threads)


@pytest.mark.parametrize("cpus", [1, 3])
def test_run_parts_propagates_a_part_error(cpus, monkeypatch):
    monkeypatch.setattr(rng.os, "cpu_count", lambda: cpus)
    done = []

    def work(start, stop):
        if stop == 9:
            raise RuntimeError("part ending at %d" % stop)
        done.append((start, stop))

    with pytest.raises(RuntimeError, match="part ending at 9"):
        run_parts(9, 3, work)
    assert sorted(done) == ([(0, 3), (3, 6)] if cpus > 1 else [])


def test_only_rng_builds_a_thread_pool():
    # every split across cores goes through run_parts
    builders = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "ThreadPoolExecutor":
                    builders.add(path.name)
    assert builders == {"rng.py"}


def test_only_the_sampler_and_theta_split_across_cores():
    # the draw layer never splits: a split is a consumer's, bounded by its own count
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "run_parts":
                callers.add(path.name)
    assert callers == {"sampler.py", "theta.py"}


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
