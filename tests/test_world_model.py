import inspect
import json
import pickle
from array import array
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavplan.environment import (Hotspot, MissionConfig, sample_instance,
                                 sample_pool)
from uavplan.errors import (ConfigurationError, ConsistencyError,
                            DegenerateWordError, TrainingError)
from uavplan.environment import _canonical_json
from uavplan.oracle import (Demonstrations, ObjectiveWeights, Tour,
                            make_tour, solve)
from uavplan.planner import PlannerConfig, plan_mission
from uavplan.world_model import (WORLD_MODEL_SCHEMA, LetterStats, NoiseConfig,
                                 Word, WorldModel, learn, merge_global,
                                 model_from_dict, model_to_dict)
from uavplan.world_model import _build, _layout, _rows
from uavplan.world_model import _word as word_of

from world_model_oracles import (GeneralizedLetter, adjacency, degree, glyphs,
                                 letter_rows, reference_build, reference_learn,
                                 reference_merge_global,
                                 reference_model_from_dict, word_transition)


def merged(words, vocab, multiplicities):
    """``merge_global`` of ``words`` laid out over ``vocab`` (``_rows``)."""
    return merge_global(*_rows(words, vocab), multiplicities, len(vocab))


def random_words(rng, vocab_letters, n_words, max_len=6):
    words = []
    for _ in range(n_words):
        k = int(rng.integers(2, max_len + 1))
        letters = rng.choice(vocab_letters, size=min(k, len(vocab_letters)),
                             replace=False)
        words.append(tuple(int(x) for x in letters))
    return words


class TestWord:
    def test_from_letters_chains(self):
        w = Word.from_letters([3, 7, 9])
        assert glyphs(w.letters) == (GeneralizedLetter(3, 7),
                                     GeneralizedLetter(7, 9))
        assert w.letters == (3, 7, 9)

    def test_minimal_word(self):
        w = Word.from_letters([4, 5])
        assert glyphs(w.letters) == (GeneralizedLetter(4, 5),)
        assert len(w) == 2

    def test_single_letter_word(self):
        w = Word.from_letters([8])
        assert glyphs(w.letters) == () and w.letters == (8,)

    def test_empty_word(self):
        w = Word.from_letters([])
        assert w.letters == () and len(w) == 0

    def test_repeats_rejected(self):
        with pytest.raises(ConsistencyError):
            Word.from_letters([1, 2, 1])
        with pytest.raises(ConsistencyError):
            Word.from_letters([1, 1])

    @settings(max_examples=200, deadline=None)
    @given(letters=st.lists(st.integers(0, 200), max_size=50, unique=True),
           data=st.data())
    def test_letters_determine_the_word(self, letters, data):
        """A word is its repeat-free letters: its glyphs chain them and
        start at every letter but the last, from_letters and a pickle round
        trip give an equal word, and any list with a repeated letter is
        rejected."""
        w = Word.from_letters(letters)
        g = glyphs(w.letters)
        assert all(g[i].edge_to == g[i + 1].start for i in range(len(g) - 1))
        assert [x.start for x in g] + letters[-1:] == letters
        again = Word.from_letters(w.letters)
        assert again == w and hash(again) == hash(w)
        assert pickle.loads(pickle.dumps(w)) == w
        if letters:
            repeated = data.draw(st.sampled_from(letters))
            at = data.draw(st.integers(0, len(letters)))
            with pytest.raises(ConsistencyError):
                Word.from_letters(letters[:at] + [repeated] + letters[at:])


class TestWordFromTour:
    def test_direct_transcription(self, make_instance, default_weights):
        inst = make_instance([(1, 0), (2, 0), (3, 0)], ids=[3, 7, 9])
        t = make_tour([3, 7, 9], inst, default_weights)
        assert word_of(t.order) == (3, 7, 9)

    def test_two_vertex_tour(self, make_instance, default_weights):
        inst = make_instance([(1, 0), (2, 0)], ids=[4, 6])
        t = make_tour([4, 6], inst, default_weights)
        assert glyphs(word_of(t.order)) == (GeneralizedLetter(4, 6),)

    def test_single_vertex_rejected(self, make_instance, default_weights):
        inst = make_instance([(1, 0)])
        with pytest.raises(DegenerateWordError):
            word_of(make_tour([1], inst, default_weights).order)

    def test_an_order_of_ints_is_shared(self, make_instance, default_weights):
        """A tour's order of Python ints becomes the stored word without a
        copy; any other order is copied as Python ints."""
        inst = make_instance([(1, 0), (2, 0), (3, 0)], ids=[3, 7, 9])
        t = make_tour([3, 7, 9], inst, default_weights)
        assert word_of(t.order) is t.order
        for order in ([3, 7, 9], (np.int64(3), 7, 9), (True, 7, 9)):
            letters = word_of(Tour(order, 1.0, 1.0, 0.0).order)
            assert letters == (int(order[0]), 7, 9)
            assert list(map(type, letters)) == [int] * 3


class TestMatrices:
    def test_adjacency_definition(self):
        vocab = letter_rows([1, 2, 3])
        a = adjacency((1, 2, 3), vocab)
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 2] = 1.0
        assert np.array_equal(a, expected)

    def test_adjacency_empty_word(self):
        vocab = letter_rows([1, 2, 3])
        assert np.array_equal(adjacency((), vocab),
                              np.zeros((3, 3)))

    def test_degree_matches_adjacency_row_sums(self):
        rng = np.random.default_rng(1)
        vocab = letter_rows(range(1, 9))
        for w in random_words(rng, list(vocab), 50):
            a = adjacency(w, vocab)
            d = degree(w, vocab)
            assert np.array_equal(np.diag(d), a.sum(axis=1))
            assert np.array_equal(d, np.diag(np.diag(d)))

    def test_degree_example(self):
        vocab = letter_rows([1, 2, 3])
        d = degree((1, 2, 3), vocab)
        assert np.array_equal(np.diag(d), [1.0, 1.0, 0.0])

    def test_degree_trace_counts_glyphs(self):
        rng = np.random.default_rng(2)
        vocab = letter_rows(range(1, 9))
        for w in random_words(rng, list(vocab), 50):
            assert np.trace(degree(w, vocab)) == len(glyphs(w))

    def test_chain_word_rows_one_hot(self):
        vocab = letter_rows([1, 2, 3, 4])
        tm = word_transition((2, 4, 1), vocab)
        ix = vocab.__getitem__
        assert tm.active[ix(2)] and tm.active[ix(4)]
        assert not tm.active[ix(1)] and not tm.active[ix(3)]
        assert tm.probs[ix(2), ix(4)] == 1.0
        assert tm.probs[ix(4), ix(1)] == 1.0

    def test_empty_word_all_rows_flagged(self):
        vocab = letter_rows([1, 2])
        tm = word_transition((), vocab)
        assert not tm.active.any()

    def test_active_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        vocab = letter_rows(range(1, 12))
        for w in random_words(rng, list(vocab), 100, max_len=8):
            tm = word_transition(w, vocab)
            sums = tm.probs.sum(axis=1)
            assert np.all(np.abs(sums[tm.active] - 1.0) <= 1e-9)

    def test_transition_is_pseudoinverse_degree_times_adjacency(self):
        rng = np.random.default_rng(4)
        vocab = letter_rows(range(1, 9))
        for w in random_words(rng, list(vocab), 30):
            a = adjacency(w, vocab)
            d = np.diag(degree(w, vocab))
            tm = word_transition(w, vocab)
            for k in range(len(vocab)):
                if d[k] > 0:
                    assert np.allclose(tm.probs[k], a[k] / d[k])
                else:
                    assert np.all(tm.probs[k] == 0.0)


class TestMergeGlobal:
    def test_two_branches_split_evenly(self):
        vocab = letter_rows([1, 2, 3])
        tm = merged([(1, 2), (1, 3)], vocab, [1, 1])
        assert tm.probs[vocab[1], vocab[2]] == pytest.approx(0.5)
        assert tm.probs[vocab[1], vocab[3]] == pytest.approx(0.5)

    def test_singleton_merge_equals_word_transition(self):
        rng = np.random.default_rng(5)
        vocab = letter_rows(range(1, 9))
        for w in random_words(rng, list(vocab), 20):
            pooled = merged([w], vocab, [1])
            single = word_transition(w, vocab)
            assert np.array_equal(pooled.probs, single.probs)
            assert np.array_equal(pooled.active, single.active)

    def test_multiplicities_weight_counts(self):
        vocab = letter_rows([1, 2, 3])
        tm = merged([(1, 2), (1, 3)], vocab, [3, 1])
        assert tm.probs[vocab[1], vocab[2]] == pytest.approx(0.75)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.lists(st.integers(1, 9), max_size=9,
                                       unique=True),
                              st.integers(1, 10 ** 6)), max_size=40))
    def test_is_the_per_transition_sum(self, weighted):
        """Each count tallied in a dict and written once gives the bits of
        one numpy ``+=`` per transition (``reference_merge_global``)."""
        words = [tuple(letters) for letters, _ in weighted]
        vocab = letter_rows(range(1, 10))
        counts = [m for _, m in weighted]
        for multiplicities in (counts, [1] * len(words)):
            got = merged(words, vocab, multiplicities)
            want = reference_merge_global(words, vocab, multiplicities)
            assert got.probs.dtype == np.float64
            assert got.probs.tobytes() == want.probs.tobytes()
            assert np.array_equal(got.active, want.active)

    def test_row_stochastic_at_scale(self):
        rng = np.random.default_rng(6)
        vocab = letter_rows(range(1, 30))
        words = random_words(rng, list(vocab), 2000, max_len=5)
        tm = merged(words, vocab, [1] * len(words))
        sums = tm.probs.sum(axis=1)
        assert np.all(np.abs(sums[tm.active] - 1.0) <= 1e-9)


@pytest.fixture(scope="module")
def small_training(chan_module, mission_module):
    chan, mission = chan_module, mission_module
    w = ObjectiveWeights()
    pool = sample_pool(77, 12, 5.0, mission, chan)
    instances = [sample_instance(500 + k, pool, 4, (1000.0, 1000.0), chan, mission)
                 for k in range(60)]
    demos = [solve(i, w) for i in instances]
    return pool, instances, demos


@pytest.fixture(scope="module")
def chan_module():
    from uavplan.environment import ChannelParams
    return ChannelParams()


@pytest.fixture(scope="module")
def mission_module():
    from uavplan.environment import MissionConfig
    return MissionConfig()


class TestLearn:
    def test_vocabulary_bounded_by_pool(self, small_training, mission_module):
        pool, _, demos = small_training
        wm = learn(demos, pool, NoiseConfig(), mission_module)
        assert len(wm.vocab) <= len(pool)
        assert set(wm.vocab) <= {h.id for h in pool}

    def test_vocabulary_maps_each_letter_ascending_to_its_row(
            self, small_training, mission_module):
        """One dict is the model's letter map: the demonstrated letters,
        ascending, each mapped to its row of the transition matrix and
        of the word index."""
        pool, _, demos = small_training
        wm = learn(demos, pool, NoiseConfig(), mission_module)
        letters = sorted({l for t in demos for l in t.order})
        assert list(wm.vocab.items()) == [(l, k)
                                          for k, l in enumerate(letters)]
        for k, word in enumerate(wm.words):
            assert (np.flatnonzero(wm.word_index.incidence[:, k]).tolist()
                    == sorted(wm.vocab[l] for l in word))
            for a, b in zip(word, word[1:]):
                assert wm.transition.probs[wm.vocab[a], wm.vocab[b]] > 0

    def test_single_demo_reproduces_tour(self, small_training, mission_module):
        pool, _, demos = small_training
        wm = learn(demos[:1], pool, NoiseConfig(), mission_module)
        assert len(wm.words) == 1
        assert wm.words[0] == demos[0].order
        assert wm.word_counts == [1]

    @settings(max_examples=300, deadline=None)
    @given(st.floats(1e-6, 1e3), st.floats(1e-6, 1e3), st.floats(1e-3, 1e9),
           st.floats(1e-3, 1e4))
    # means whose square by ``**`` is not their square by ``x * x``
    @example(1.0, 0.25, 4999.310595243412, 703.9283572034993)
    def test_noise_matrices_are_python_powers(self, scale, ratio, profit,
                                              leg_time):
        """The process noise's diagonal is ``(process_scale * mean) ** 2``
        in Python floats, bit for bit (Python's ``**`` is the C ``pow``,
        which differs from ``x * x`` in the last bit for some x), and the
        measurement noise is that matrix times ``measurement_ratio``."""
        d = {"schema": "uavplan.world_model.v4",
             "words": [[1, 2]], "word_counts": [1],
             "letters": {str(l): {"center_m": [0.0, 0.0],
                                  "mean_profit_bps": 1.0} for l in (1, 2)},
             "mean_profit_bps": profit, "mean_leg_time_s": leg_time,
             "noise_config": {"process_scale": scale,
                              "measurement_ratio": ratio}}
        wm = model_from_dict(d)
        want = [(scale * profit) ** 2, (scale * leg_time) ** 2]
        assert wm.process_noise.tolist() == [[want[0], 0.0], [0.0, want[1]]]
        assert wm.measurement_noise.tolist() == [[want[0] * ratio, 0.0],
                                                 [0.0, want[1] * ratio]]

    def test_word_count_before_dedup(self, small_training, mission_module):
        pool, _, demos = small_training
        wm = learn(demos, pool, NoiseConfig(), mission_module)
        assert sum(wm.word_counts) == len(demos)

    def test_per_letter_profit_matches_recomputation(self, small_training,
                                                     mission_module):
        pool, _, demos = small_training
        wm = learn(demos, pool, NoiseConfig(), mission_module)
        by_id = {h.id: h for h in pool}
        visits = {}
        for t in demos:
            for l in t.order:
                visits.setdefault(l, []).append(by_id[l].profit_bps)
        for l, values in visits.items():
            assert sum(c for w, c in zip(wm.words, wm.word_counts)
                       if l in w) == len(values)
            assert wm.stats[l].mean_profit_bps == pytest.approx(
                float(np.mean(values)), rel=1e-12)

    def test_order_invariance_bitwise(self, small_training, mission_module):
        pool, _, demos = small_training
        wm1 = learn(demos, pool, NoiseConfig(), mission_module)
        shuffled = list(demos)
        np.random.default_rng(9).shuffle(shuffled)
        wm2 = learn(shuffled, pool, NoiseConfig(), mission_module)
        a = json.dumps(model_to_dict(wm1), sort_keys=True)
        b = json.dumps(model_to_dict(wm2), sort_keys=True)
        assert a == b

    def test_empty_demos_rejected(self, small_training, mission_module):
        pool, _, _ = small_training
        with pytest.raises(TrainingError):
            learn([], pool, NoiseConfig(), mission_module)

    def test_noise_matrices_scale_with_training_means(self, small_training,
                                                      mission_module):
        pool, _, demos = small_training
        cfg = NoiseConfig(process_scale=0.02, measurement_ratio=0.25)
        wm = learn(demos, pool, cfg, mission_module)
        assert wm.process_noise[0, 0] == pytest.approx(
            (0.02 * wm.mean_profit_bps) ** 2)
        assert wm.process_noise[1, 1] == pytest.approx(
            (0.02 * wm.mean_leg_time_s) ** 2)
        assert np.allclose(wm.measurement_noise, wm.process_noise * 0.25)

    def test_start_counts_sum_to_demo_count(self, small_training, mission_module):
        """One start count per vocabulary row: the number of
        demonstrations that start with the row's letter, as a float."""
        pool, _, demos = small_training
        wm = learn(demos, pool, NoiseConfig(), mission_module)
        assert wm.start_counts.sum() == len(demos)
        assert wm.start_counts.tolist() == [
            float(sum(t.order[0] == l for t in demos)) for l in wm.vocab]

    def test_each_model_build_lays_its_words_out_once(
            self, small_training, mission_module, monkeypatch):
        """``learn`` and ``model_from_dict`` each flatten the stored words
        (``_rows``) once, and ``_build`` and ``merge_global`` read that
        layout; only the word index, on first use, flattens them again."""
        from uavplan import world_model
        calls, rows = [], world_model._rows

        def counted(words, vocab):
            calls.append(len(words))
            return rows(words, vocab)

        monkeypatch.setattr(world_model, "_rows", counted)
        pool, _, demos = small_training
        wm = learn(demos, pool, NoiseConfig(), mission_module)
        assert len(calls) == 1
        back = model_from_dict(model_to_dict(wm))
        assert len(calls) == 2
        assert back.word_index.lengths.tolist() == list(map(len, wm.words))
        assert calls == [len(wm.words)] * 3

    def test_serialization_round_trip(self, small_training, mission_module):
        pool, _, demos = small_training
        wm = learn(demos, pool, NoiseConfig(), mission_module)
        back = model_from_dict(model_to_dict(wm))
        assert json.dumps(model_to_dict(back), sort_keys=True) == \
            json.dumps(model_to_dict(wm), sort_keys=True)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_demos=st.integers(1, 40),
           size=st.integers(2, 6),
           noise=st.builds(NoiseConfig, st.floats(1e-3, 1.0),
                           st.floats(1e-3, 4.0)))
    def test_loaded_model_equals_learned_model(self, chan_module,
                                               mission_module, seed, n_demos,
                                               size, noise):
        """The file stores only the sources; every field that
        ``model_from_dict`` derives from them equals ``learn``'s."""
        pool = sample_pool(seed, 12, 5.0, mission_module, chan_module)
        demos = [solve(sample_instance(seed + k, pool, size, (1000.0, 1000.0),
                                       chan_module, mission_module),
                       ObjectiveWeights())
                 for k in range(n_demos)]
        wm = learn(demos, pool, noise, mission_module)
        back = model_from_dict(json.loads(json.dumps(model_to_dict(wm))))
        for f in fields(wm):
            a, b = getattr(wm, f.name), getattr(back, f.name)
            if f.name == "transition":
                assert np.array_equal(a.probs, b.probs)
                assert np.array_equal(a.active, b.active)
            elif isinstance(a, np.ndarray):
                assert np.array_equal(a, b), f.name
            else:
                assert a == b, f.name


def _learned(seed, n_demos, size, noise, chan, mission) -> dict:
    """The model ``learn`` makes of ``n_demos`` solved demonstrations of
    ``size`` hotspots from a 12-hotspot pool, as ``world_model.json``
    holds it, read back by ``json.loads``."""
    pool = sample_pool(seed, 12, 5.0, mission, chan)
    demos = [solve(sample_instance(seed + k, pool, size, (1000.0, 1000.0),
                                   chan, mission), ObjectiveWeights())
             for k in range(n_demos)]
    return json.loads(_canonical_json(model_to_dict(
        learn(demos, pool, noise, mission))))


def _means_as_strings_scale_as_bool(d):
    """Both means as JSON strings and the process scale ``true``: the
    reference planned such a model at process scale 1.0."""
    d["mean_profit_bps"] = str(d["mean_profit_bps"])
    d["mean_leg_time_s"] = str(d["mean_leg_time_s"])
    d["noise_config"]["process_scale"] = True


class TestModelReader:
    """``model_from_dict`` (the one checked reader) against
    ``reference_model_from_dict`` (checks written key by key, and casts)."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_demos=st.integers(1, 40),
           size=st.integers(2, 6),
           noise=st.builds(NoiseConfig, st.floats(1e-3, 1.0),
                           st.floats(1e-3, 4.0)))
    def test_reads_as_the_reference(self, chan_module, mission_module, seed,
                                    n_demos, size, noise):
        """A learned model, as the file holds it, gives the same file
        bytes through the checked reader and the reference, and those of
        the file read."""
        d = _learned(seed, n_demos, size, noise, chan_module, mission_module)
        want = _canonical_json(model_to_dict(reference_model_from_dict(d)))
        assert _canonical_json(model_to_dict(model_from_dict(d))) == want
        assert want == _canonical_json(d)

    @pytest.mark.parametrize("edit,named", [
        pytest.param(_means_as_strings_scale_as_bool, "world model key mean_leg_time_s must "
                     'be of type float, not "', id="means-strings-scale-bool"),
        pytest.param(lambda d: d["noise_config"].update(process_scale=True),
                     "world model key noise_config.process_scale must be of "
                     "type float, not true", id="scale-bool"),
        pytest.param(lambda d: d.update(color="red"),
                     "unknown world model key color", id="unknown-key")])
    def test_refuses_what_the_reference_took(self, chan_module,
                                             mission_module, edit, named):
        """Each damage that the reference read as a model is refused,
        naming the dotted key."""
        d = _learned(5, 20, 4, NoiseConfig(), chan_module, mission_module)
        edit(d)
        assert isinstance(reference_model_from_dict(d), WorldModel)
        with pytest.raises(ConfigurationError) as e:
            model_from_dict(d)
        assert str(e.value).startswith(named)


# letters of any int: negative, past 2**32, and past the int64 range
_letter = st.sampled_from((-2 ** 70, -3, 0, 1, 2, 5, 10 ** 12, 2 ** 70))


@st.composite
def _model_sources(draw):
    """``_build``'s arguments as ``model_from_dict`` gives them: stored
    words of distinct letters with counts of at most 2**49 (nine of them
    add up to less than 2**53), each damaged now and then: a word that is
    empty, of one letter or repeats one, a count of 0 or below, one
    count more or fewer than the words, a word's letter without
    statistics, statistics of a letter that no word holds, and a mean
    that is not finite or whose noise overflows or underflows."""
    words = draw(st.lists(st.lists(_letter, min_size=2, max_size=6,
                                   unique=True).map(tuple), max_size=8))
    counts = draw(st.lists(st.integers(1, 2 ** 49), min_size=len(words),
                           max_size=len(words)))
    if words and draw(st.integers(0, 2)) == 0:
        words[draw(st.integers(0, len(words) - 1))] = tuple(
            draw(st.lists(_letter, max_size=4)))
    if counts and draw(st.integers(0, 3)) == 0:
        counts[draw(st.integers(0, len(counts) - 1))] = draw(
            st.integers(-2, 0))
    if draw(st.integers(0, 7)) == 0:
        counts = counts[:-1] if counts and draw(st.booleans()) else counts + [1]
    held = {l for w in words for l in w}
    if draw(st.integers(0, 3)) == 0:
        held ^= {draw(_letter)}
    letters = {l: LetterStats(
        (draw(st.floats(-1e6, 1e6)), draw(st.floats(-1e6, 1e6))),
        draw(st.floats(0.0, 1e15))) for l in held}
    means = st.floats(0.0, 1e12) | st.floats()
    return (letters, words, counts, draw(means), draw(means),
            NoiseConfig(draw(st.floats(1e-3, 1.0)), draw(st.floats(1e-3, 4.0))))


def _build_of(letters, words, counts, *rest):
    """``_build`` over the layout of ``words`` (``_layout``), as ``learn``
    and ``model_from_dict`` call it."""
    return _build(letters, words, counts, *rest, _layout(words))


class TestBuildReference:
    """``_build``'s array passes against ``reference_build``, the loop it
    replaced."""

    @staticmethod
    def _outcome(build, sources):
        letters, words, counts, *rest = sources
        try:
            wm = build(dict(letters), list(words), list(counts), *rest)
        except (ConfigurationError, ConsistencyError) as e:
            return type(e).__name__, str(e)
        return (_canonical_json(model_to_dict(wm)),
                wm.transition.probs.tobytes(), wm.transition.active.tobytes(),
                wm.start_counts.tobytes(),
                list(wm.vocab.items()), sorted(wm.stats.items()))

    @settings(max_examples=400, deadline=None)
    @given(_model_sources())
    # a word that repeats a letter after a word of one letter: the first
    # is named
    @example(({1: LetterStats((0.0, 0.0), 1.0),
               2: LetterStats((0.0, 0.0), 1.0)},
              [(1, 2), (2,), (1, 2, 1)], [3, 1, 1], 1.0, 1.0, NoiseConfig()))
    # the one-letter word after the word that repeats a letter
    @example(({1: LetterStats((0.0, 0.0), 1.0),
               2: LetterStats((0.0, 0.0), 1.0)},
              [(1, 2), (2, 1, 2), (1,)], [3, 1, 1], 1.0, 1.0, NoiseConfig()))
    # letters at and past the int64 range, each starting words
    @example(({l: LetterStats((float(k), 0.0), 2.0 ** k)
               for k, l in enumerate((-2 ** 70, -3, 10 ** 12, 2 ** 70))},
              [(2 ** 70, -2 ** 70), (-3, 10 ** 12, 2 ** 70),
               (-2 ** 70, -3)], [2 ** 49, 7, 2 ** 49 - 1], 1e7, 10.0,
              NoiseConfig()))
    def test_same_model_or_message(self, sources):
        """The same model, to the bits of its file, its transition
        matrix, vocabulary and statistics, or the same refusal, naming the
        same first word."""
        assert self._outcome(_build_of, sources) == self._outcome(
            reference_build, sources)

    @pytest.mark.parametrize("counts", [[2 ** 70, 2 ** 53 + 1],
                                        [2 ** 53 - 1, 1], [1, 2 ** 53],
                                        [2 ** 53 - 2, 1]])
    def test_refuses_counts_of_2_53_or_more_in_total(self, counts):
        """Word counts that add up to 2**53 or more are refused, naming
        ``word_counts`` and the bound, where a float tally of them would
        not be exact and the reference, which tallied Python ints, took
        them; one less gives the reference's model. Letters of +-2**70
        are letters like any other."""
        letters = {l: LetterStats((0.0, 0.0), 1.0)
                   for l in (-2 ** 70, -3, 10 ** 12, 2 ** 70)}
        sources = (letters, [(2 ** 70, -2 ** 70, -3), (-3, 10 ** 12)],
                   counts, 1.0, 1.0, NoiseConfig())
        if sum(counts) < 2 ** 53:
            assert self._outcome(_build_of, sources) == self._outcome(
                reference_build, sources)
            return
        with pytest.raises(ConsistencyError, match=(
                rf"^word_counts add up to {sum(counts)}; a model's word "
                r"counts add up to less than 2\*\*53 \(9007199254740992\)")):
            _build_of(*sources)
        assert isinstance(reference_build(*sources), WorldModel)


def test_model_of_any_int_letters_builds_its_index_and_plans(make_instance):
    """Letters are any JSON ints, negative or past 2**32: a model whose
    letters include -3 and 10**12, read by ``model_from_dict``, indexes
    each stored word's letters by their rows and plans an instance of
    those hotspots."""
    big = 10 ** 12
    d = {"schema": WORLD_MODEL_SCHEMA,
         "words": [[-3, big, 4], [4, -3]], "word_counts": [2, 1],
         "letters": {str(l): {"center_m": [x, 50.0], "mean_profit_bps": 1e7}
                     for l, x in ((-3, 100.0), (4, 300.0), (big, 200.0))},
         "mean_profit_bps": 1e7, "mean_leg_time_s": 10.0,
         "noise_config": {"process_scale": 0.02, "measurement_ratio": 0.25}}
    wm = model_from_dict(d)
    assert wm.vocab == {-3: 0, 4: 1, big: 2}
    index = wm.word_index
    assert index.lengths.tolist() == [3, 2]
    assert index.incidence.tolist() == [[1, 1], [1, 1], [1, 0]]
    inst = make_instance([(100.0, 50.0), (200.0, 50.0), (300.0, 50.0),
                          (250.0, 400.0)], ids=[-3, big, 4, 7])
    plan = plan_mission(inst, wm, PlannerConfig(), ObjectiveWeights())
    assert sorted(plan.tour.order) == [-3, 4, 7, big]


def _demos(draw_orders, costs):
    return [Tour(order=tuple(order), total_cost_m=cost, total_profit_bps=0.0,
                 objective=0.0) for order, cost in zip(draw_orders, costs)]


def _record(demos) -> Demonstrations:
    """The tours ``demos`` as ``demonstrate``'s columns."""
    def column(name):
        return array("d", [getattr(t, name) for t in demos])

    return Demonstrations([t.order for t in demos], column("total_cost_m"),
                          column("total_profit_bps"), column("objective"),
                          array("d", [1.0] * len(demos)))


# orders over ten letters, many repeated and some of fewer than two letters
_orders = st.lists(st.sampled_from(range(1, 11)), max_size=4, unique=True)


class TestLearnReference:
    """``learn``, which makes each distinct order a word once, against
    ``reference_learn``, which made a word of every demonstration."""

    # profits from about 1e-3 to 1e15, so that sums of them round
    # differently when added in another order
    POOL = [Hotspot(id=i, center_m=(10.0 * i, 7.0 * i), num_users=1,
                    profit_bps=10.0 ** (2 * i - 5) * (1 + i / 7))
            for i in range(1, 11)]

    @staticmethod
    def _outcome(fn, demos):
        try:
            wm = fn(demos, TestLearnReference.POOL, NoiseConfig(),
                    MissionConfig())
        except (ConfigurationError, DegenerateWordError, TrainingError) as e:
            return type(e).__name__, str(e)
        return (_canonical_json(model_to_dict(wm)), wm.vocab,
                wm.transition.probs.tobytes(), wm.transition.active.tobytes(),
                wm.process_noise.tobytes(), wm.measurement_noise.tobytes(),
                wm.start_counts.tobytes(), wm.words,
                sorted(wm.stats.items()))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_orders, st.floats(0.0, 1e5)), max_size=60),
           st.data())
    def test_same_model_or_message(self, drawn, data):
        """Repeated and degenerate demonstrations, in any order, as tours
        or as ``demonstrate``'s columns, give the same model, to the bits
        of the transition matrix, or the same message, naming the same
        first degenerate demonstration, or the same noise that underflows
        (a tour cost of about 1e-228 makes the mean leg time's noise
        underflow)."""
        repeats = data.draw(st.lists(st.sampled_from(drawn), max_size=40)
                            if drawn else st.just([]))
        demos = _demos(*zip(*(drawn + repeats))) if drawn + repeats else []
        demos = data.draw(st.permutations(demos))
        want = self._outcome(reference_learn, demos)
        assert self._outcome(learn, demos) == want
        assert self._outcome(learn, _record(demos)) == want
        if len(want) > 2:
            wm = learn(demos, self.POOL, NoiseConfig(), MissionConfig())
            merged = reference_merge_global(wm.words, wm.vocab, wm.word_counts)
            assert wm.transition.probs.tobytes() == merged.probs.tobytes()

    def test_float_sums_add_in_stored_order(self):
        """On these demonstrations, costs of mixed magnitude over the pool's
        profits, the pairwise ``np.sum`` of the terms c * p and c * cost
        gives other training means than adding them one at a time in
        stored order, the sorted words and each word's letters; ``learn``
        gives the reference's model, and the means of the sums in order."""
        words = [(2, 10), (3, 1), (5, 2), (8, 7, 6), (8, 9), (9, 2, 10),
                 (9, 3), (10, 6)]
        counts = [1, 1, 2, 1, 1, 1, 2, 3]
        costs = [7.3e6, 7.3e6, 0.37, 7.3e6, 1e-3, 12.5, 7.3e6, 0.37]
        demos = _demos(*zip(*[(w, x) for w, c, x in zip(words, counts, costs)
                              for _ in range(c)][::-1]))
        profit = {h.id: h.profit_bps for h in self.POOL}
        terms = [c * profit[l] for w, c in zip(words, counts) for l in w]
        legs = [c * x for c, x in zip(counts, costs)]
        visits = sum(c * len(w) for w, c in zip(words, counts))
        speed = MissionConfig().uav_speed_m_per_s

        def in_order(values):
            total = 0.0
            for v in values:
                total += v
            return total

        wm = learn(demos, self.POOL, NoiseConfig(), MissionConfig())
        assert wm.words == words and wm.word_counts == counts
        assert wm.mean_profit_bps == in_order(terms) / visits
        assert wm.mean_profit_bps != float(np.sum(terms)) / visits
        assert wm.mean_leg_time_s == (in_order(legs) / (visits + len(demos))
                                      / speed)
        assert wm.mean_leg_time_s != (float(np.sum(legs)) / (visits + len(demos))
                                      / speed)
        assert self._outcome(learn, demos) == self._outcome(reference_learn,
                                                            demos)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_orders.filter(lambda o: len(o) >= 2),
                              st.floats(1.0, 1e5), st.booleans()),
                    min_size=1, max_size=40))
    def test_stored_words_are_the_orders(self, drawn):
        """A stored word is its letter tuple: ``learn`` stores the first
        demonstration's own ``order`` tuple (``is``) of each distinct order
        of Python ints, and a tuple of Python ints of one of numpy ints;
        ``model_from_dict`` of ``model_to_dict`` gives equal words of the
        same types."""
        demos = [Tour(order=tuple(map(np.int64, order)) if numpy
                      else tuple(order), total_cost_m=cost,
                      total_profit_bps=0.0, objective=0.0)
                 for order, cost, numpy in drawn]
        first: dict[tuple, tuple] = {}
        for t in demos:
            first.setdefault(t.order, t.order)
        wm = learn(demos, self.POOL, NoiseConfig(), MissionConfig())
        assert wm.words == sorted(first)
        for w in wm.words:
            assert type(w) is tuple and set(map(type, w)) == {int}
            if set(map(type, first[w])) == {int}:
                assert w is first[w]
        back = model_from_dict(model_to_dict(wm))
        assert back.words == wm.words
        assert all(type(w) is tuple and set(map(type, w)) == {int}
                   for w in back.words)

    def test_each_distinct_order_is_one_word(self, monkeypatch):
        """A word is made (``_word``) once per distinct order, of its first
        demonstration's order, and the first degenerate one is named by its
        index."""
        from uavplan import world_model
        made = []
        word = world_model._word

        def counted(order):
            made.append(order)
            return word(order)

        monkeypatch.setattr(world_model, "_word", counted)
        demos = _demos([(1, 2), (3, 4, 5), (1, 2), (3, 4, 5), (1, 2)],
                       [5.0, 6.0, 4.0, 6.0, 5.0])
        learn(demos, self.POOL, NoiseConfig(), MissionConfig())
        assert made == [demos[0].order, demos[1].order]
        assert made[0] is demos[0].order
        with pytest.raises(DegenerateWordError, match=r"^demonstration 3, "
                           r"order \[7\]: "):
            learn(demos[:3] + _demos([(7,), (8,), (7,)], [1.0] * 3),
                  self.POOL, NoiseConfig(), MissionConfig())


class TestLetterStats:
    def test_valid_stats_accepted(self):
        s = LetterStats(center_m=(10.0, 20.0), mean_profit_bps=5e7)
        assert s.center_m == (10.0, 20.0) and s.mean_profit_bps == 5e7

    @pytest.mark.parametrize("center,profit", [
        ((float("nan"), 0.0), 1e7), ((0.0, float("inf")), 1e7),
        ((0.0, 0.0), float("nan")), ((0.0, 0.0), float("-inf"))])
    def test_non_finite_value_rejected(self, center, profit):
        with pytest.raises(ConsistencyError, match="finite"):
            LetterStats(center_m=center, mean_profit_bps=profit)


class TestBenchmarkContracts:
    """The benchmark's tracer wraps every public world_model function in a
    timed span, so a new public helper would put a span inside the
    learner's loops."""

    PUBLIC = ("learn", "merge_global", "model_from_dict", "model_to_dict")

    def test_public_functions_unchanged(self):
        from uavplan import world_model
        public = sorted(
            name for name, value in vars(world_model).items()
            if inspect.isfunction(value)
            and value.__module__ == world_model.__name__
            and not name.startswith("_"))
        assert public == sorted(self.PUBLIC)
