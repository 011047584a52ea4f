"""The stream key rule: one Philox key per flattened path, no aliasing,
``stream_rows`` reads exactly what ``stream`` yields, ``seek`` leaves a
stream where its draws do, and no key is built twice in a run of every
suite on a shipped config."""

import cProfile
import pstats
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinetree import rng
from affinetree.config import load_config
from affinetree.grid import BATCH_COLS
from affinetree.rng import position, seek, stream, stream_rows
from affinetree.suites import (
    algebra_claims,
    boundary_limit_claims,
    boundary_measure_claims,
    omega_limit_claims,
    padic_isometry_claims,
    period_invariance_claims,
    regime_claims,
    renewal_claims,
    wald_claims,
)

CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("*.ini"))


def key(gen):
    return tuple(int(w) for w in gen.bit_generator.state["state"]["key"])


def test_stream_is_a_philox_generator():
    gen = stream(3, 7)
    assert isinstance(gen, np.random.Generator)
    assert isinstance(gen.bit_generator, np.random.Philox)


def test_pinned_encoding():
    # blake2b-128 of repr((11, 'renewal.oracle', 3, 'kernel', 0)),
    # read as two little-endian 64-bit words
    assert key(stream(11, "renewal.oracle", 3, "kernel", 0)) == (
        16779080856420387289, 3695638010278291371)


def test_no_aliasing_between_seed_and_index():
    assert key(stream(0, 2 ** 64)) != key(stream(1, 0))
    assert key(stream(2 ** 64 + 5, 0)) != key(stream(5, 0))
    assert key(stream(1, 2)) != key(stream(12)) != key(stream("1", 2))


def test_tuple_keys_splice_and_numpy_ints_are_ints():
    assert key(stream((7, "limit.boundary"), "kernel", 3)) \
        == key(stream(7, "limit.boundary", "kernel", 3))
    assert key(stream(7, np.int64(3))) == key(stream(7, 3))
    with pytest.raises(TypeError):
        stream(7, 1.5)


def test_same_draws_as_philox_keyed_directly():
    words = stream(5, "x").bit_generator.state["state"]["key"]
    direct = np.random.Generator(np.random.Philox(
        key=int(words[0]) | int(words[1]) << 64))
    assert np.array_equal(stream(5, "x").random(9), direct.random(9))


@pytest.mark.parametrize("start", [0, 1, 3, 4, 7, 130])
def test_stream_rows_read_each_stream(start):
    rows = [0, 1, 17, np.int64(5), 2 ** 65]
    for path in [(5, "kernel"), ((7, "limit.boundary", 3), "kernel"),
                 (np.int64(3),), (2 ** 70, "x", (1, ("y", 2)))]:
        got = stream_rows(rows, start, 9, *path)
        assert got.shape == (len(rows), 9)
        for r, i in enumerate(rows):
            gen = stream(*path, i)
            gen.random(start)
            assert np.array_equal(got[r], gen.random(9))
    assert stream_rows([], start, 9, 5).shape == (0, 9)
    if start in (0, 130):   # the engine's input: an int64 array, full blocks
        ids = np.array([0, 3, 17, 2 ** 40, 127], dtype=np.int64)
        got = stream_rows(ids, start, BATCH_COLS, 5, "kernel")
        assert got.shape == (ids.size, BATCH_COLS)
        for r, i in enumerate(ids.tolist()):
            gen = stream(5, "kernel", i)
            gen.random(start)
            assert np.array_equal(got[r], gen.random(BATCH_COLS))


paths = st.lists(st.one_of(st.integers(-5, 2 ** 70),
                           st.text(alphabet="ab.", max_size=4)), max_size=3)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 70), path=paths,
       pos=st.integers(0, 600), moved=st.integers(0, 600))
def test_seek_leaves_a_stream_where_its_draws_do(seed, path, pos, moved):
    drawn = stream(seed, *path)
    drawn.random(pos)
    sought = stream(seed, *path)
    sought.random(moved)
    seek(sought, pos)
    assert position(sought) == position(drawn) == pos
    a, b = drawn.bit_generator.state, sought.bit_generator.state
    if pos:     # before the first draw the buffer holds nothing used
        assert np.array_equal(a["buffer"], b["buffer"])
    assert a["buffer_pos"] == b["buffer_pos"]
    assert np.array_equal(a["state"]["counter"], b["state"]["counter"])
    assert np.array_equal(drawn.random(11), sought.random(11))


@pytest.mark.parametrize("pos", [2 ** 40, 2 ** 60 + 3])
def test_seek_far(pos):
    gen = stream(4, "far", 0)
    seek(gen, pos)
    assert position(gen) == pos
    assert np.array_equal(gen.random(6),
                          stream_rows([0], pos, 6, 4, "far")[0])


def test_no_os_entropy_read():
    prof = cProfile.Profile()
    prof.runcall(lambda: [stream(11, "kernel", i) for i in range(200)])
    prof.runcall(lambda: stream_rows(range(200), 4, 8, 11, "kernel"))
    called = {fn for _, _, fn in pstats.Stats(prof).stats}
    assert not [fn for fn in called if "urandom" in fn or "getrandbits" in fn]


def record_keys(monkeypatch):
    """Rebind ``stream`` and ``stream_rows`` in every module of the package
    to recorders.  A batch serves the key of each of its rows when it
    reads the row from its first uniform; later reads resume the row."""
    keys = []

    def recording(*args):
        gen = real(*args)
        keys.append(key(gen))
        return gen

    def recording_rows(rows, start, size, *path):
        if not start:
            keys.extend(key(real(*path, i)) for i in rows)
        return real_rows(rows, start, size, *path)

    real, real_rows = rng.stream, rng.stream_rows
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "affinetree":
            continue
        if getattr(mod, "stream", None) is real:
            monkeypatch.setattr(mod, "stream", recording)
        if getattr(mod, "stream_rows", None) is real_rows:
            monkeypatch.setattr(mod, "stream_rows", recording_rows)
    return keys


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_no_key_built_twice_in_all_suites(path, monkeypatch):
    # every claim of every suite, at small sizes: keys depend on sizes only
    # through the range of indices.  These ranges are wide enough that
    # fixed numeric stream offsets per claim would make them overlap
    # (oracle cylinders and limit.boundary on drift_neg).
    cfg = load_config(path)
    keys = record_keys(monkeypatch)
    claims = (algebra_claims(cfg, cases=20)
              + padic_isometry_claims(cfg, pairs=20)
              + regime_claims(cfg, trajectories=20, horizon=200,
                              limit_samples=20)
              + boundary_measure_claims(cfg, samples=20)
              + wald_claims(cfg, excursions=200)
              + renewal_claims(cfg, n_upsilon=10, exc_per_upsilon=5,
                               oracle_trajectories=20)
              + boundary_limit_claims(cfg, trajectories=100, limit_samples=100)
              + period_invariance_claims(cfg, trajectories=100)
              + omega_limit_claims(cfg, trajectories=100, horizon=400))
    assert claims and keys
    shared = [k for k, count in Counter(keys).items() if count > 1]
    assert not shared, f"{len(shared)} of {len(set(keys))} keys built twice"
