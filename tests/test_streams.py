"""The engine derives every random stream of a run in one bulk pass.

``engine._pcg64_states`` must give, for each key, exactly the state of
``PCG64(SeedSequence(entropy=seed, spawn_key=key))``: numpy's derivation
is the definition of a stream, and every pinned digest rests on it. These
tests compare the bulk pass with numpy's own construction, one key at a
time, at the word-size edges of seeds and keys. One test pins the draws
themselves as literal bytes: a comparison with numpy would follow numpy if
a release changed how it draws. Two check the draws of streams that share
one generator against numpy's, and when a stream reads the state back.
"""

import hashlib
from itertools import islice

import numpy as np
import pytest
from conftest import count_pcg64_state
from hypothesis import given, settings
from hypothesis import strategies as st

from foggrid.engine import _exp_draws, _pcg64_states

# The engine takes seeds below 2**64. 2**128 - 1 is the last seed that
# fits SeedSequence's pool of four words; from 2**128 on, the hash mixes
# the seed's later words in before the key words, which then hash on from
# a later step.
SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128 - 1, 2**128, 2**130 + 5)
# Ids of one, two and three 32-bit words.
IDS = (0, 3, 2**32 - 1, 2**32 + 7, 2**70)
# Service keys (purpose 0, id) and arrival keys (purpose 1, target, k):
# from two to six words, mixed in one call, and one of 21 words, far
# longer than any key a run derives.
KEYS = [(0, i) for i in IDS] + [(1, i, k) for i in IDS for k in (0, 1, 5)]
KEYS += [(1, 2**70, 2**33), (1, 2**600, 3)]
# Keys of one-word parts only, as is every key of both bench workloads:
# two and three parts, up to the last one-word value.
ONE_WORD = (0, 3, 2**31, 2**32 - 1)
ONE_WORD_KEYS = [(0, i) for i in ONE_WORD] + [(1, i, k) for i in ONE_WORD for k in (0, 2**32 - 1)]


def canonical(seed, key):
    state = np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=key)).state
    return state["state"]["state"], state["state"]["inc"]


@pytest.mark.parametrize("keys", (KEYS, ONE_WORD_KEYS), ids=("mixed", "one-word"))
@pytest.mark.parametrize("seed", SEEDS)
def test_states_match_numpy(seed, keys):
    assert _pcg64_states(seed, keys) == [canonical(seed, key) for key in keys]


def test_no_keys():
    assert _pcg64_states(7, []) == []


def test_negative_key_is_rejected_as_by_numpy():
    with pytest.raises(ValueError):
        np.random.SeedSequence(entropy=1, spawn_key=(1, -4, 0))
    with pytest.raises(ValueError):
        _pcg64_states(1, [(0, 2), (1, -4, 0)])


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1) | st.integers(0, 2**200),
    keys=st.lists(
        st.tuples(st.integers(0, 1), st.lists(st.integers(0, 2**80), max_size=3)).map(
            lambda pk: (pk[0], *pk[1])
        ),
        max_size=12,
    ),
)
def test_random_keys_match_numpy(seed, keys):
    assert _pcg64_states(seed, keys) == [canonical(seed, key) for key in keys]


def test_first_blocks_of_a_stream_are_pinned():
    # The first six blocks (16, 32, ... 512 values) of one stream: the
    # ziggurat's rare rejections occur among them. The second block is
    # drawn from the stream's start, the first again and then its own; each
    # later block starts from the state read back after the one before.
    (state,) = _pcg64_states(7919, [(1, 3, 0)])
    draws = _exp_draws(np.random.Generator(np.random.PCG64(0)), state, 2.0)
    values = np.array(list(islice(draws, 16 + 32 + 64 + 128 + 256 + 512)), dtype="<f8")
    digest = hashlib.blake2b(values.tobytes(), digest_size=16).hexdigest()
    assert digest == "08fde2a9e6154a420f41280ba753bb7a", (
        f"Generator.exponential draws differently under numpy {np.__version__}: NEP 19 "
        "keeps the bit generators' streams stable across releases, not Generator methods"
    )


def test_streams_sharing_a_generator_match_numpy():
    # Each stream crosses its first-block boundary after the other has
    # moved the shared generator, so a block drawn from any state but the
    # stream's own shows.
    seed, rates = 7919, {(1, 3, 0): 2.0, (0, 5): 0.25}
    rng = np.random.Generator(np.random.PCG64(0))
    streams = {
        key: _exp_draws(rng, state, rates[key])
        for key, state in zip(rates, _pcg64_states(seed, list(rates)))
    }
    drawn = {key: [] for key in rates}
    a, b = rates
    for key, n in ((a, 10), (b, 40), (a, 60), (b, 600)):
        drawn[key] += islice(streams[key], n)
    for key, rate in rates.items():
        bitgen = np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=key))
        expected = np.random.Generator(bitgen).exponential(1 / rate, len(drawn[key]))
        assert drawn[key] == expected.tolist()


def test_a_stream_reads_its_state_first_for_its_second_block(monkeypatch):
    counts = count_pcg64_state(monkeypatch)
    (state,) = _pcg64_states(7919, [(1, 3, 0)])
    draws = _exp_draws(np.random.Generator(np.random.PCG64(0)), state, 2.0)
    assert len(list(islice(draws, 16))) == 16
    assert counts == {"write": 1}
    next(draws)
    assert counts == {"write": 2, "read": 1}
