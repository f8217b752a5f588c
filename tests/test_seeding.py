"""The array seed derivation is held to numpy's ``SeedSequence`` exactly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multicast_mimo.engine as engine
from multicast_mimo.config import NetworkConfig
from multicast_mimo.engine import large_scale_batch, run_experiment
from multicast_mimo.seeding import child_seed, child_seeds, make_rng, make_rngs

# One-word and two-word values at the edges of numpy's int coercion.
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)
DRAWS = 8


def reference_seed(*entropy):
    """What ``SeedSequence`` gives for this entropy: ``child_seed``'s definition."""
    state = np.random.SeedSequence(tuple(int(e) for e in entropy)).generate_state(1, np.uint64)
    return int(state[0])


def first_draws(rng):
    return rng.integers(0, 2**63, DRAWS), rng.standard_normal(DRAWS)


def assert_same_generators(rngs, seeds):
    assert len(rngs) == len(seeds)
    for rng, seed in zip(rngs, seeds):
        reference = np.random.default_rng(int(seed))
        assert rng.bit_generator.state == reference.bit_generator.state
        for got, expected in zip(first_draws(rng), first_draws(reference)):
            assert np.array_equal(got, expected)


class TestChildSeeds:
    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_edge_roots(self, seed):
        got = child_seeds(np.array([seed], dtype=np.uint64), 3)
        assert got.dtype == np.uint64
        assert int(got[0]) == reference_seed(seed, 3) == child_seed(seed, 3)
        assert int(child_seeds(seed)) == reference_seed(seed)

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_edge_path_entries(self, seed):
        got = child_seeds(5, np.array([seed, seed], dtype=np.uint64), 7)
        assert [int(s) for s in got] == [reference_seed(5, seed, 7)] * 2

    @pytest.mark.parametrize("master", [2**64, 2**64 + 9, 2**100 + 3, 3**200])
    def test_master_seed_of_several_words(self, master):
        got = child_seeds(master, 2, np.arange(6))
        assert [int(s) for s in got] == [reference_seed(master, 2, t) for t in range(6)]

    def test_one_and_two_word_seeds_in_one_array(self):
        roots = np.array([2**40, 0, 2**32 - 1, 2**32, 5, 2**64 - 1, 2**33 + 1, 7], dtype=np.uint64)
        got = child_seeds(roots, 1)
        assert [int(s) for s in got] == [reference_seed(int(r), 1) for r in roots]
        # word counts of root and path vary independently
        paths = roots[::-1].copy()
        got = child_seeds(roots, 4, paths)
        assert [int(s) for s in got] == [
            reference_seed(int(r), 4, int(p)) for r, p in zip(roots, paths)
        ]

    def test_broadcasts_and_keeps_the_shape(self):
        got = child_seeds(11, np.arange(3)[:, None], np.arange(4))
        assert got.shape == (3, 4)
        for i in range(3):
            for j in range(4):
                assert int(got[i, j]) == reference_seed(11, i, j)

    def test_more_than_a_pool_of_entropy_words(self):
        # beyond four words, SeedSequence mixes each further word into the pool
        got = child_seeds(2**64 - 1, 1, 2, np.arange(3), 2**40)
        assert [int(s) for s in got] == [
            reference_seed(2**64 - 1, 1, 2, t, 2**40) for t in range(3)
        ]

    def test_rejects_what_seed_sequence_rejects(self):
        with pytest.raises(ValueError):
            child_seeds(1, np.array([-1, 2]))
        with pytest.raises(ValueError):
            child_seeds(-1, 2)
        with pytest.raises(TypeError):
            child_seeds(1, np.array([0.5]))

    @settings(max_examples=60, deadline=None)
    @given(
        roots=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=12),
        path=st.lists(st.integers(0, 2**64 - 1), max_size=5),
        master=st.integers(0, 2**160),
    )
    def test_equals_seed_sequence(self, roots, path, master):
        array = np.array(roots, dtype=np.uint64)
        got = child_seeds(array, *path)
        assert [int(s) for s in got] == [reference_seed(r, *path) for r in roots]
        got = child_seeds(master, *path, array)
        assert [int(s) for s in got] == [reference_seed(master, *path, r) for r in roots]


class TestMakeRngs:
    def test_edge_seeds(self):
        seeds = np.array(EDGE_SEEDS, dtype=np.uint64)
        assert_same_generators(make_rngs(seeds), seeds)

    def test_derived_seeds(self):
        seeds = child_seeds(1, 3, np.arange(40))
        assert_same_generators(make_rngs(seeds), seeds)
        for t, rng in enumerate(make_rngs(seeds)):
            scalar = make_rng(child_seed(1, 3, t))
            assert rng.bit_generator.state == scalar.bit_generator.state

    def test_generators_are_independent_objects(self):
        a, b = make_rngs(np.array([4, 4]))
        assert a is not b and a.bit_generator is not b.bit_generator
        assert np.array_equal(a.random(3), b.random(3))

    def test_preset_state_answers_shorter_requests_exactly(self):
        (rng,) = make_rngs(np.array([2**32 + 5], dtype=np.uint64))
        preset = rng.bit_generator.seed_seq
        sequence = np.random.SeedSequence(2**32 + 5)
        for n in range(1, 9):
            assert np.array_equal(preset.generate_state(n), sequence.generate_state(n))
        for n in range(1, 5):
            assert np.array_equal(
                preset.generate_state(n, np.uint64), sequence.generate_state(n, np.uint64)
            )
        with pytest.raises(ValueError):
            preset.generate_state(9)

    @settings(max_examples=40, deadline=None)
    @given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=10))
    def test_equals_default_rng(self, seeds):
        assert_same_generators(make_rngs(np.array(seeds, dtype=np.uint64)), seeds)


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
        child_seed(1, 2)
        make_rng(3)
        assert len(sequences) == 2

    def test_large_scale_batch(self, sequences):
        large_scale_batch(NetworkConfig(num_large=7, master_seed=2))
        assert sequences == []

    def test_finite_antenna_experiment(self, sequences, monkeypatch):
        # blocks of two realizations, so several blocks derive their seeds
        config = NetworkConfig(antennas=8, num_large=5, num_small=3, master_seed=2)
        per_realization = config.num_small * config.cells * (config.users_per_cell + 1)
        monkeypatch.setattr(engine, "_BLOCK_AMPLITUDES", 2 * per_realization)
        run_experiment(config, scheme="composite")
        assert sequences == []

