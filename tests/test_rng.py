import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigbayes.rng import _ZERO_COUNTER, KeyedRng, _FoldedKey, _fold


def test_same_key_same_stream():
    root = KeyedRng(1234)
    a = root.derive("chain", 0, "step", 17).standard_normal(5)
    b = root.derive("chain", 0, "step", 17).standard_normal(5)
    assert np.array_equal(a, b)


def test_different_keys_differ():
    root = KeyedRng(1234)
    a = root.derive("step", 1).standard_normal(5)
    b = root.derive("step", 2).standard_normal(5)
    assert not np.array_equal(a, b)


def test_child_prefix_matches_flat_key():
    root = KeyedRng(7)
    via_child = root.child("worker", 3).derive("round", 5).random(4)
    flat = root.derive("worker", 3, "round", 5).random(4)
    assert np.array_equal(via_child, flat)


def test_order_independence():
    root = KeyedRng(99)
    first = root.derive("b").random(3)
    root.derive("a").random(1000)  # consuming another stream changes nothing
    again = root.derive("b").random(3)
    assert np.array_equal(first, again)


def test_seed_changes_stream():
    a = KeyedRng(1).derive("x").random(3)
    b = KeyedRng(2).derive("x").random(3)
    assert not np.array_equal(a, b)


def test_rejects_bad_key_part():
    root = KeyedRng(0)
    try:
        root.derive(3.14)
    except TypeError:
        pass
    else:
        raise AssertionError("float key part should be rejected")


# -- input checks: each bad value is rejected up front and named -------------


def test_rejects_float_seed():
    with pytest.raises(TypeError, match=r"seed must be an int, got 1\.5 \(float\)"):
        KeyedRng(1.5)


def test_rejects_str_seed():
    with pytest.raises(TypeError, match=r"got '7' \(str\)"):
        KeyedRng("7")


def test_rejects_seed_outside_int128():
    with pytest.raises(ValueError, match=str(2**200)):
        KeyedRng(2**200)
    with pytest.raises(ValueError, match=str(2**127)):
        KeyedRng(2**127)
    for seed in (2**127 - 1, -(2**127), np.int64(-3), np.uint64(2**64 - 1)):
        KeyedRng(seed).derive("x")
    assert np.array_equal(KeyedRng(np.int32(5)).derive("x").random(3),
                          KeyedRng(5).derive("x").random(3))


def test_rejects_bool_seed():
    with pytest.raises(TypeError, match=r"got True \(bool\)"):
        KeyedRng(True)


def test_child_rejects_float_key_part():
    with pytest.raises(TypeError, match=r"got 3\.14 \(float\)"):
        KeyedRng(0).child("worker", 3.14)


def test_rejects_bool_key_part():
    root = KeyedRng(0)
    with pytest.raises(TypeError, match=r"got True \(bool\)"):
        root.derive("s", True)
    with pytest.raises(TypeError, match=r"got False \(bool\)"):
        root.child(False)


def test_rejects_key_part_outside_int128():
    with pytest.raises(ValueError, match=str(2**127)):
        KeyedRng(0).derive("step", 2**127)
    with pytest.raises(ValueError, match=str(-(2**127) - 1)):
        KeyedRng(0).child(-(2**127) - 1)


# -- stream definition (version 2) -------------------------------------------


@pytest.mark.parametrize("rng, base", [
    (KeyedRng(11), ()),
    (KeyedRng(11).child("cluster"), ("cluster",)),
    (KeyedRng(-4).child("cluster").child("worker", 2), ("cluster", "worker", 2)),
])
def test_derive_is_philox_keyed_by_fold(rng, base):
    key = ("xi", 7)
    want = np.random.Generator(np.random.Philox(key=_fold(rng.seed, base + key)))
    got = rng.derive(*key)
    for part in ("key", "counter"):
        assert np.array_equal(got.bit_generator.state["state"][part],
                              want.bit_generator.state["state"][part])
    assert np.array_equal(got.random(64), want.random(64))
    assert np.array_equal(got.integers(0, 2**62, 9), want.integers(0, 2**62, 9))


def test_stream_version_marker():
    # Changing either value changes every keyed stream in the package: record
    # the new stream version in the changelog when editing this test.
    assert _fold(0, ("step", 0)) == 0xFE23A6A8C19C8F402D3CB4F8AA875795
    assert KeyedRng(0).derive("step", 0).random(3).tolist() == [
        0.46173068809396045, 0.9892051054187956, 0.45187399769381764]


_INT128 = st.integers(-(2**127), 2**127 - 1)
_KEY = st.lists(st.one_of(_INT128, st.integers(-(2**63), 2**63 - 1).map(np.int64),
                          st.text(max_size=6), st.binary(max_size=6)),
                max_size=4).map(tuple)


@settings(max_examples=200, deadline=None)
@given(seed=_INT128, prefixes=st.lists(_KEY, max_size=3), key=_KEY)
def test_derive_is_the_fold_for_any_seed_key_and_child_chain(seed, prefixes, key):
    # the sha256 prefix a KeyedRng keeps changes no stream: numpy int parts,
    # empty parts and keys, and prefixes built by nested child calls included
    rng, base = KeyedRng(seed), ()
    for prefix in prefixes:
        rng, base = rng.child(*prefix), base + prefix
    want = np.random.Generator(np.random.Philox(key=_fold(seed, base + key)))
    got = rng.derive(*key)
    for part in ("key", "counter"):
        assert np.array_equal(got.bit_generator.state["state"][part],
                              want.bit_generator.state["state"][part])
    assert np.array_equal(got.integers(0, 2**63, 6), want.integers(0, 2**63, 6))


def test_shared_zero_counter_is_read_only_and_stays_zero():
    assert not _ZERO_COUNTER.flags.writeable
    rng = KeyedRng(3)
    for t in range(300):
        rng.derive("step", t).random(t % 7 + 1)
    assert _ZERO_COUNTER.dtype == np.uint64
    assert np.array_equal(_ZERO_COUNTER, np.zeros(4, dtype=np.uint64))
    with pytest.raises(ValueError):
        _ZERO_COUNTER[0] = 1


def test_seed_and_base_are_read_only():
    rng = KeyedRng(5).child("worker", 1)
    before = rng.derive("x").random(3)
    with pytest.raises(AttributeError, match="'seed'"):
        rng.seed = 6
    with pytest.raises(AttributeError, match="'_base'"):
        rng._base = ()
    assert rng.seed == 5 and rng._base == ("worker", 1)
    assert np.array_equal(rng.derive("x").random(3), before)


def test_keyed_rng_pickles_to_the_same_streams():
    rng = KeyedRng(-8).child("cluster", b"")
    again = pickle.loads(pickle.dumps(rng))
    assert (again.seed, again._base) == (rng.seed, rng._base)
    assert np.array_equal(again.derive("x", 2).random(4), rng.derive("x", 2).random(4))


# -- live generators ----------------------------------------------------------


def test_live_generators_are_independent():
    rng = KeyedRng(21)
    step, z = rng.derive("step", 3), rng.derive("z", 3)
    assert step is not z and step.bit_generator is not z.bit_generator
    interleaved_step, interleaved_z = [], []
    for _ in range(50):
        interleaved_step.append(step.standard_normal())
        interleaved_z.append(z.random())
    assert interleaved_step == rng.derive("step", 3).standard_normal(50).tolist()
    assert interleaved_z == rng.derive("z", 3).random(50).tolist()


@pytest.mark.parametrize("n_words, dtype", [(4, np.uint64), (2, np.uint32), (1, np.uint64)])
def test_folded_key_rejects_other_requests(n_words, dtype):
    with pytest.raises(ValueError, match=rf"generate_state\({n_words}, "):
        _FoldedKey(_fold(0, ())).generate_state(n_words, dtype)
