"""The engine derives every random stream of a run in one bulk pass.

``engine._pcg64_states`` must give, for each key, exactly the state of
``PCG64(SeedSequence(entropy=seed, spawn_key=key))``: numpy's derivation
is the definition of a stream, and every pinned digest rests on it. These
tests compare the bulk pass with numpy's own construction, one key at a
time, at the word-size edges of seeds and keys.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foggrid.engine import _pcg64_states

# The engine takes seeds below 2**64; one beyond 2**128 spans more words
# than SeedSequence's pool holds, so the hash reads it on past the pool.
SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**130 + 5)
# Ids of one, two and three 32-bit words.
IDS = (0, 3, 2**32 - 1, 2**32 + 7, 2**70)
# Service keys (purpose 0, id) and arrival keys (purpose 1, target, k):
# from two to six words, mixed in one call, and one of 21 words, past the
# precomputed hash constants.
KEYS = [(0, i) for i in IDS] + [(1, i, k) for i in IDS for k in (0, 1, 5)]
KEYS += [(1, 2**70, 2**33), (1, 2**600, 3)]


def canonical(seed, key):
    state = np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=key)).state
    return state["state"]["state"], state["state"]["inc"]


@pytest.mark.parametrize("seed", SEEDS)
def test_states_match_numpy(seed):
    assert _pcg64_states(seed, KEYS) == [canonical(seed, key) for key in KEYS]


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
