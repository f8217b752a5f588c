"""The array generator construction is held to numpy's ``default_rng`` exactly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multicast_mimo.engine as engine
from multicast_mimo.channel import shadowing_db
from multicast_mimo.config import NetworkConfig
from multicast_mimo.engine import large_scale_batch, run_experiment
from multicast_mimo.geometry import build_hex_layout, drop_users
from multicast_mimo.seeding import make_rngs

# Master seeds of one, two, three and seven entropy words: with the stream
# tag and the index, three of them fill more than numpy's pool of four words.
MASTER_SEEDS = (0, 2**32 - 1, 2**32, 2**64, 3**200)
# The first, second and last realization index of one entropy word.
INDICES = (0, 1, 2**32 - 1)
STREAMS = (engine._POSITIONS_STREAM, engine._SHADOWING_STREAM, engine._FADING_STREAM)
DRAWS = 8


def first_draws(rng):
    return rng.integers(0, 2**63, DRAWS), rng.standard_normal(DRAWS)


def assert_numpy_generators(rngs, master_seed, stream, indices):
    """Each generator is ``default_rng([master_seed, stream, t])``, state for
    state and draw for draw."""
    assert len(rngs) == len(indices)
    for rng, t in zip(rngs, indices):
        reference = np.random.default_rng([master_seed, stream, int(t)])
        assert rng.bit_generator.state == reference.bit_generator.state
        for got, expected in zip(first_draws(rng), first_draws(reference)):
            assert np.array_equal(got, expected)


class TestMakeRngs:
    @pytest.mark.parametrize("stream", STREAMS)
    @pytest.mark.parametrize("master_seed", MASTER_SEEDS)
    def test_equals_the_numpy_idiom(self, master_seed, stream):
        indices = np.array(INDICES, dtype=np.uint64)
        rngs = make_rngs(master_seed, stream, indices)
        assert_numpy_generators(rngs, master_seed, stream, indices)

    def test_stream_tags_are_one_two_three_and_select_distinct_generators(self):
        assert STREAMS == (1, 2, 3)
        states = {make_rngs(1, s, [0])[0].bit_generator.state["state"]["state"] for s in STREAMS}
        assert len(states) == len(STREAMS)

    def test_index_dtype_does_not_matter(self):
        signed = make_rngs(7, 3, np.arange(5))
        for dtype in (np.uint32, np.uint64, np.int32):
            for a, b in zip(signed, make_rngs(7, 3, np.arange(5, dtype=dtype))):
                assert a.bit_generator.state == b.bit_generator.state

    def test_no_indices_give_no_generators(self):
        assert make_rngs(1, 2, np.arange(0)) == []

    @pytest.mark.parametrize(
        "indices, error",
        [
            (np.array([3, -1]), ValueError),
            (np.array([0, 2**32]), ValueError),
            (np.array([2**64 - 1], dtype=np.uint64), ValueError),
            (np.array([0.5]), TypeError),
        ],
    )
    def test_rejects_indices_outside_one_entropy_word(self, indices, error):
        with pytest.raises(error):
            make_rngs(1, 2, indices)

    def test_rejects_a_negative_master_seed_as_numpy_does(self):
        with pytest.raises(ValueError):
            np.random.default_rng([-1, 2, 0])
        with pytest.raises(ValueError):
            make_rngs(-1, 2, [0])

    def test_generators_are_independent_objects(self):
        a, b = make_rngs(4, 1, np.array([3, 3]))
        assert a is not b and a.bit_generator is not b.bit_generator
        assert np.array_equal(a.random(3), b.random(3))

    def test_preset_state_answers_shorter_requests_exactly(self):
        (rng,) = make_rngs(2**32 + 5, 2, [9])
        preset = rng.bit_generator.seed_seq
        sequence = np.random.SeedSequence([2**32 + 5, 2, 9])
        for n in range(1, 9):
            assert np.array_equal(preset.generate_state(n), sequence.generate_state(n))
        for n in range(1, 5):
            assert np.array_equal(
                preset.generate_state(n, np.uint64), sequence.generate_state(n, np.uint64)
            )
        with pytest.raises(ValueError):
            preset.generate_state(9)
        for dtype in (np.int64, np.int32, np.uint16):
            for source in (sequence, preset):
                with pytest.raises(ValueError, match="only support uint32 or uint64"):
                    source.generate_state(2, dtype)

    @settings(max_examples=60, deadline=None)
    @given(
        master_seed=st.integers(0, 2**160),
        stream=st.integers(0, 2**64 - 1),
        indices=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=10),
    )
    def test_equals_default_rng(self, master_seed, stream, indices):
        rngs = make_rngs(master_seed, stream, np.array(indices, dtype=np.uint64))
        assert_numpy_generators(rngs, master_seed, stream, indices)


class TestNoSeedSequenceOnTheEngineRoute:
    @pytest.fixture
    def sequences(self, monkeypatch):
        """Count the ``SeedSequence`` objects built through numpy's public
        names, including the one ``default_rng`` builds for a seed."""
        built = []
        original = np.random.SeedSequence

        class Counting(original):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        def default_rng(seed=None):
            if isinstance(seed, np.random.Generator):
                return seed
            return np.random.Generator(np.random.PCG64(Counting(seed)))

        monkeypatch.setattr(np.random, "SeedSequence", Counting)
        monkeypatch.setattr(np.random, "default_rng", default_rng)
        return built

    def test_the_counter_sees_the_scalar_route(self, sequences):
        shadowing_db(8.0, 3, [np.random.default_rng(5)])
        rngs = [np.random.default_rng(6), np.random.default_rng(7)]
        drop_users(build_hex_layout(3, 1000.0), 1000.0, 2, 100.0, rngs)
        assert len(sequences) == 3

    def test_large_scale_batch(self, sequences):
        large_scale_batch(NetworkConfig(num_large=7, master_seed=2))
        assert sequences == []

    def test_finite_antenna_experiment(self, sequences, monkeypatch):
        # blocks of two realizations, so several blocks build their generators
        config = NetworkConfig(antennas=8, num_large=5, num_small=3, master_seed=2)
        per_realization = config.num_small * config.cells * (config.users_per_cell + 1)
        monkeypatch.setattr(engine, "_BLOCK_AMPLITUDES", 2 * per_realization)
        run_experiment(config, scheme="composite")
        assert sequences == []
