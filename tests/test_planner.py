import inspect
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from uavplan.environment import MissionConfig, sample_instance, sample_pool
from uavplan.errors import ConfigurationError, NumericError
from uavplan.oracle import ObjectiveWeights, make_tour, solve
from uavplan.planner import (GaussianBelief, PlanContext, PlannerConfig,
                             classify_letters, expected_surprise,
                             generate_words, insert_best, levenshtein,
                             plan_mission, select_reference)
from uavplan.world_model import NoiseConfig, Vocabulary, Word, learn

from planner_oracles import (NOVEL, enumerate_insertions, kalman_predict,
                             leg_length, predict_observation,
                             random_insertion_contexts, reference_edges,
                             rollout, step_covariances, step_values,
                             word_length_m)
from world_model_oracles import GeneralizedLetter


# --- independent oracles ------------------------------------------------------

def reference_levenshtein(a, b):
    """Textbook full-matrix dynamic program."""
    m, n = len(a), len(b)
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        d[i][0] = i
    for j in range(n + 1):
        d[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
    return d[m][n]


def bhattacharyya_by_integration(mean1, cov1, mean2, cov2):
    """-ln of the overlap integral of the two density square roots."""
    mean1, mean2 = np.asarray(mean1, float), np.asarray(mean2, float)
    cov1, cov2 = np.asarray(cov1, float), np.asarray(cov2, float)
    inv1, inv2 = np.linalg.inv(cov1), np.linalg.inv(cov2)
    det1, det2 = np.linalg.det(cov1), np.linalg.det(cov2)

    def pdf(x, mean, inv, det):
        d = x - mean
        return math.exp(-0.5 * float(d @ inv @ d)) / (2 * math.pi * math.sqrt(det))

    sd = np.sqrt(np.maximum(np.diag(cov1), np.diag(cov2)))
    lo = np.minimum(mean1, mean2) - 10 * sd
    hi = np.maximum(mean1, mean2) + 10 * sd

    def integrand(y, x):
        p = np.array([x, y])
        return math.sqrt(pdf(p, mean1, inv1, det1) * pdf(p, mean2, inv2, det2))

    coeff, _ = integrate.dblquad(integrand, lo[0], hi[0], lo[1], hi[1],
                                 epsabs=1e-10, epsrel=1e-10)
    return -math.log(coeff)


def random_gaussian_pair(rng, dim=2):
    def one():
        mean = rng.uniform(-2.0, 2.0, size=dim)
        a = rng.uniform(-1.0, 1.0, size=(dim, dim))
        cov = a @ a.T + np.eye(dim) * rng.uniform(0.5, 1.5)
        return GaussianBelief(mean=mean, cov=cov)
    return one(), one()


def make_ctx(centers, profits, depot=(0.0, 0.0), speed=20.0, dwell=0.0,
             q_scale=0.0, rm_scale=0.0):
    mission = MissionConfig(uav_speed_m_per_s=speed, dwell_time_s=dwell)
    return PlanContext(
        centers={k: (float(x), float(y)) for k, (x, y) in centers.items()},
        profits={k: float(v) for k, v in profits.items()},
        depot=(float(depot[0]), float(depot[1])),
        mission=mission,
        process_noise=np.eye(2) * q_scale,
        measurement_noise=np.eye(2) * rm_scale,
    )


@pytest.fixture(scope="module")
def trained():
    """Small but realistic trained world with a 2x test pool."""
    from uavplan.environment import ChannelParams
    chan, mission = ChannelParams(), MissionConfig()
    w = ObjectiveWeights()
    testing_pool = sample_pool(424242, 24, 5.0, mission, chan)
    training_pool = testing_pool[:12]
    demos = [solve(sample_instance(800 + k, training_pool, 4,
                                   (1000.0, 1000.0), chan, mission), w)
             for k in range(300)]
    wm = learn(demos, training_pool, NoiseConfig(), mission)
    return chan, mission, testing_pool, wm


class TestClassify:
    def test_partition(self, trained):
        _, _, _, wm = trained
        normal, novel = classify_letters({3, 7, 102}, wm)
        assert normal == {3, 7} and novel == {102}

    def test_all_known(self, trained):
        _, _, _, wm = trained
        normal, novel = classify_letters(set(wm.vocab.letters), wm)
        assert novel == frozenset()

    def test_half_novel_at_double_pool(self, trained):
        chan, mission, testing_pool, wm = trained
        fractions = []
        for s in range(40):
            inst = sample_instance(9000 + s, testing_pool, 12,
                                   (1000.0, 1000.0), chan, mission)
            normal, novel = classify_letters(inst.ids, wm)
            fractions.append(len(novel) / 12)
        assert 0.3 <= float(np.mean(fractions)) <= 0.7


class TestLevenshtein:
    def test_identity(self):
        w = Word.from_letters([1, 2, 3])
        assert levenshtein(w, w) == 0

    def test_against_empty(self):
        w = Word.from_letters([4, 5, 6, 7])
        assert levenshtein(w, Word.from_letters([])) == 4

    def test_kitten_sitting(self):
        a = [ord(c) for c in "kitten"]
        b = [ord(c) for c in "sitting"]
        assert levenshtein(a, b) == 3

    def test_against_reference_dp(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            a = [int(x) for x in rng.integers(0, 8, size=rng.integers(0, 15))]
            b = [int(x) for x in rng.integers(0, 8, size=rng.integers(0, 15))]
            assert levenshtein(a, b) == reference_levenshtein(a, b)


class TestGenerateWords:
    def test_deterministic_chain(self, mission):
        # two demos of the same word leave a single possible trajectory
        from uavplan.environment import Hotspot
        pool = [Hotspot(id=i, center_m=(i * 100.0, 0.0), num_users=1,
                        profit_bps=1e6) for i in (1, 2, 3)]
        from uavplan.oracle import make_tour
        from uavplan.environment import Instance, ChannelParams
        inst = Instance(hotspots=tuple(pool), depot_m=(0.0, 0.0),
                        channel=ChannelParams(), mission=mission, seed=0)
        demo = make_tour([1, 2, 3], inst, ObjectiveWeights())
        wm = learn([demo, demo], pool, NoiseConfig(), mission)
        for w in generate_words(wm, [1, 2, 3], 20, rng_seed=5):
            assert w.letters == (1, 2, 3)

    def test_single_word(self, trained):
        _, _, _, wm = trained
        normal = list(wm.vocab.letters)[:4]
        assert len(generate_words(wm, normal, 1, rng_seed=0)) == 1

    def test_covers_each_letter_once(self, trained):
        _, _, _, wm = trained
        normal = list(wm.vocab.letters)[:6]
        for w in generate_words(wm, normal, 25, rng_seed=3):
            assert sorted(w.letters) == sorted(normal)

    def test_empty_normal_rejected(self, trained):
        _, _, _, wm = trained
        with pytest.raises(ConfigurationError):
            generate_words(wm, [], 5, rng_seed=0)

    def test_successor_frequencies_match_restricted_rows(self, mission):
        # dictionary: 1->2 twice as likely as 1->3
        from uavplan.environment import Hotspot, Instance, ChannelParams
        from uavplan.oracle import make_tour
        pool = [Hotspot(id=i, center_m=(i * 50.0, i * 10.0), num_users=1,
                        profit_bps=1e6) for i in (1, 2, 3)]
        inst = Instance(hotspots=tuple(pool), depot_m=(0.0, 0.0),
                        channel=ChannelParams(), mission=mission, seed=0)
        demos = ([make_tour([1, 2, 3], inst, ObjectiveWeights())] * 2
                 + [make_tour([1, 3, 2], inst, ObjectiveWeights())])
        wm = learn(demos, pool, NoiseConfig(), mission)
        n = 10_000
        words = generate_words(wm, [1, 2, 3], n, rng_seed=99)
        second_is_2 = sum(1 for w in words if w.letters[1] == 2)
        p = 2.0 / 3.0
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(second_is_2 - n * p) <= 3 * sigma


class TestSelectReference:
    def test_exact_dictionary_match_wins(self, trained):
        _, _, _, wm = trained
        stored = wm.words[0]
        shuffled = Word.from_letters(tuple(reversed(stored.letters)))
        assert select_reference([shuffled, stored], wm) is stored

    def test_single_candidate_returned(self, trained):
        _, _, _, wm = trained
        only = Word.from_letters(list(wm.vocab.letters)[:5])
        assert select_reference([only], wm) is only

    def test_winner_minimizes_dictionary_distance(self, trained):
        _, _, _, wm = trained
        rng = np.random.default_rng(8)
        letters = list(wm.vocab.letters)
        for _ in range(20):
            cands = []
            for _ in range(6):
                k = int(rng.integers(2, 7))
                pick = rng.choice(letters, size=k, replace=False)
                cands.append(Word.from_letters([int(x) for x in pick]))
            win = select_reference(cands, wm)
            win_d = min(levenshtein(win, w) for w in wm.words)
            for c in cands:
                assert win_d <= min(levenshtein(c, w) for w in wm.words)


def random_repeat_free_word(rng, alphabet, max_len):
    k = int(rng.integers(1, min(max_len, len(alphabet)) + 1))
    return Word.from_letters([int(x) for x in rng.choice(alphabet, size=k,
                                                         replace=False)])


class TestSelectReferenceAgainstBruteForce:
    """The indexed dictionary scan against a full scan of every stored word."""

    def test_random_dictionaries(self, trained):
        _, _, _, wm = trained
        rng = np.random.default_rng(31)
        for trial in range(40):
            alphabet = np.arange(int(rng.integers(3, 25)))
            words = {random_repeat_free_word(rng, alphabet, 9).letters
                     for _ in range(int(rng.integers(1, 120)))}
            # learn() stores words sorted; exactness must not depend on it
            keys = sorted(words) if trial % 2 else list(words)
            vocab = Vocabulary(l for k in keys for l in k)
            world = replace(wm, vocab=vocab,
                            words=[Word.from_letters(k) for k in keys],
                            word_counts=[1] * len(keys))
            # letters up to 4 past the alphabet are unknown to the dictionary
            wider = np.arange(len(alphabet) + 4)
            cands = [random_repeat_free_word(rng, wider, 12)
                     for _ in range(int(rng.integers(1, 8)))]
            dists = [min(reference_levenshtein(c.letters, k) for k in keys)
                     for c in cands]
            assert select_reference(cands, world) is cands[dists.index(min(dists))]


class TestEnumerateInsertions:
    """The test-side enumeration the oracles below score candidates by."""

    def test_three_letter_reference_gives_three(self):
        ref = Word.from_letters([1, 2, 3])
        cands = enumerate_insertions(ref, 9)
        assert len(cands) == len(reference_edges(ref)) == 3
        words = {w.letters for _, w in cands}
        assert words == {(1, 9, 2, 3), (1, 2, 9, 3), (1, 2, 3, 9)}

    def test_single_letter_reference_gives_two(self):
        ref = Word.from_letters([5])
        cands = enumerate_insertions(ref, 9)
        assert len(cands) == 2
        assert {w.letters for _, w in cands} == {(9, 5), (5, 9)}

    def test_empty_reference_degenerate(self):
        cands = enumerate_insertions(Word.from_letters([]), 4)
        assert cands == [((None, None), Word((4,)))]

    def test_structure_preserved(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            k = int(rng.integers(1, 9))
            letters = [int(x) for x in rng.choice(100, size=k, replace=False)]
            novel = 200
            ref = Word.from_letters(letters)
            for _, word in enumerate_insertions(ref, novel):
                got = word.letters
                assert got.count(novel) == 1
                assert sorted(got) == sorted(letters + [novel])
                assert word == Word.from_letters(got)

    def test_already_present_rejected(self):
        with pytest.raises(ConfigurationError):
            enumerate_insertions(Word.from_letters([1, 2]), 2)


class TestKalmanPredict:
    def test_noiseless_accumulation(self):
        ctx = make_ctx({1: (0, 0), 2: (100, 0)}, {1: 5.0, 2: 7.0}, speed=20.0)
        b = kalman_predict(GaussianBelief.zero(), GeneralizedLetter(1, 2), ctx)
        assert b.mean == pytest.approx([7.0, 5.0])
        assert np.all(b.cov == 0.0)

    def test_covariance_grows_by_q_each_step(self):
        ctx = make_ctx({1: (0, 0), 2: (100, 0), 3: (200, 0)},
                       {1: 1.0, 2: 1.0, 3: 1.0}, q_scale=0.5)
        b = kalman_predict(GaussianBelief.zero(), GeneralizedLetter(1, 2), ctx)
        b = kalman_predict(b, GeneralizedLetter(2, 3), ctx)
        assert np.allclose(b.cov, 2 * ctx.process_noise)

    def test_scalar_projection_closed_form(self):
        # time dimension alone: t_k = t_0 + k * (leg / v + dwell), var = k q
        ctx = make_ctx({1: (0, 0), 2: (60, 0)}, {1: 0.0, 2: 0.0},
                       speed=30.0, dwell=1.5, q_scale=0.25)
        b = GaussianBelief.zero()
        for k in range(1, 6):
            b = kalman_predict(b, GeneralizedLetter(1, 2), ctx) if k == 1 else \
                kalman_predict(GaussianBelief(mean=b.mean, cov=b.cov),
                               GeneralizedLetter(1, 2), ctx)
            assert b.mean[1] == pytest.approx(k * (60.0 / 30.0 + 1.5))
            assert b.cov[1, 1] == pytest.approx(k * 0.25)

    def test_non_psd_covariance_rejected(self):
        with pytest.raises(NumericError):
            GaussianBelief(mean=np.zeros(2), cov=np.array([[1.0, 0.0],
                                                           [0.0, -1.0]]))
        # only 1-D and 2-D beliefs are checked, so any other size is refused
        with pytest.raises(NumericError):
            GaussianBelief(mean=np.zeros(3), cov=np.eye(3))


class TestRollout:
    def test_empty_word_is_identity(self):
        ctx = make_ctx({}, {})
        b0 = GaussianBelief(mean=np.array([3.0, 4.0]), cov=np.eye(2))
        b = rollout(Word.from_letters([]), ctx, b0)
        assert np.array_equal(b.mean, b0.mean)
        assert np.array_equal(b.cov, b0.cov)

    def test_noiseless_time_is_length_over_speed_plus_dwell(self):
        centers = {1: (100.0, 0.0), 2: (100.0, 50.0), 3: (0.0, 50.0)}
        ctx = make_ctx(centers, {1: 0.0, 2: 0.0, 3: 0.0}, speed=10.0, dwell=2.0)
        word = Word.from_letters([1, 2, 3])
        b = rollout(word, ctx)
        length = 100 + 50 + 100 + math.hypot(0, 50)
        assert b.mean[1] == pytest.approx(length / 10.0 + 3 * 2.0)

    def test_profit_sums_letter_means(self, trained):
        _, mission, _, wm = trained
        letters = list(wm.vocab.letters)[:5]
        ctx = make_ctx({l: wm.stats[l].center_m for l in letters},
                       {l: wm.stats[l].mean_profit_bps for l in letters})
        b = rollout(Word.from_letters(letters), ctx)
        assert b.mean[0] == pytest.approx(
            sum(wm.stats[l].mean_profit_bps for l in letters), rel=1e-12)

    def test_covariance_accumulates_once_per_leg(self):
        centers = {1: (10.0, 0.0), 2: (20.0, 0.0)}
        ctx = make_ctx(centers, {1: 0.0, 2: 0.0}, q_scale=1.0)
        b = rollout(Word.from_letters([1, 2]), ctx)
        assert np.allclose(b.cov, 3 * np.eye(2))  # out, between, back


class TestExpectedSurprise:
    def test_identical_distributions_zero(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            b, _ = random_gaussian_pair(rng)
            assert expected_surprise(b, b) < 1e-12

    def test_one_dimensional_frozen_value(self):
        a = GaussianBelief(mean=np.array([0.0]), cov=np.array([[1.0]]))
        b = GaussianBelief(mean=np.array([1.0]), cov=np.array([[1.0]]))
        assert expected_surprise(a, b) == pytest.approx(0.125, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            a, b = random_gaussian_pair(rng)
            assert expected_surprise(a, b) == pytest.approx(
                expected_surprise(b, a), rel=1e-10)

    def test_matches_numerical_integration(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            a, b = random_gaussian_pair(rng)
            closed = expected_surprise(a, b)
            numeric = bhattacharyya_by_integration(a.mean, a.cov, b.mean, b.cov)
            assert closed == pytest.approx(numeric, abs=1e-6)

    def test_nonnegative(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            a, b = random_gaussian_pair(rng)
            assert expected_surprise(a, b) >= 0.0


def bhattacharyya_2x2_by_hand(m1, c1, m2, c2):
    """Closed form via explicit Cramer's-rule algebra (no linalg calls)."""
    s00 = 0.5 * (c1[0][0] + c2[0][0])
    s01 = 0.5 * (c1[0][1] + c2[0][1])
    s11 = 0.5 * (c1[1][1] + c2[1][1])
    det_s = s00 * s11 - s01 * s01
    d0, d1 = m1[0] - m2[0], m1[1] - m2[1]
    quad = (d0 * (s11 * d0 - s01 * d1) + d1 * (s00 * d1 - s01 * d0)) / det_s / 8.0
    det1 = c1[0][0] * c1[1][1] - c1[0][1] * c1[1][0]
    det2 = c2[0][0] * c2[1][1] - c2[0][1] * c2[1][0]
    return quad + 0.5 * math.log(det_s / math.sqrt(det1 * det2))


def independent_insertion_argmin(ref, novel, ctx):
    """Recompute candidate surprises with a straightforward fold."""
    def belief_of(letters):
        mean = np.zeros(2)
        cov = np.zeros((2, 2))
        pts = [ctx.depot] + [ctx.centers[l] for l in letters] + [ctx.depot]
        for a, b in zip(pts, pts[1:]):
            cov = cov + ctx.process_noise
            mean = mean + np.array([0.0, math.dist(a, b) / ctx.mission.uav_speed_m_per_s])
        for l in letters:
            mean = mean + np.array([ctx.profits[l], ctx.mission.dwell_time_s])
        return mean, cov

    ref_mean, ref_cov = belief_of(list(ref.letters))
    target_mean = ref_mean + np.array([ctx.profits[novel], ctx.mission.dwell_time_s])
    target_cov = ref_cov + ctx.process_noise
    scores = []
    for _, word in enumerate_insertions(ref, novel):
        mean, cov = belief_of(list(word.letters))
        cov = cov + ctx.measurement_noise
        scores.append(bhattacharyya_2x2_by_hand(
            target_mean, target_cov + 1e-12 * np.eye(2),
            mean, cov + 1e-12 * np.eye(2)))
    return int(np.argmin(scores)), scores


def rollout_insertion(ref, novel, ctx):
    """insert_best computed the long way: fold the Kalman prediction over
    every candidate word, score with the general Bhattacharyya distance,
    then apply the planner's tie rule. Returns (winner, target, rows) with
    one (surprise, tour length, predicted observation) row per candidate."""
    b = rollout(ref, ctx)
    target = GaussianBelief(
        mean=b.mean + np.array([ctx.profits[novel], ctx.mission.dwell_time_s]),
        cov=b.cov + ctx.process_noise)
    rows = []
    for _, word in enumerate_insertions(ref, novel):
        obs = predict_observation(rollout(word, ctx), ctx)
        rows.append((expected_surprise(target, obs),
                     word_length_m(ctx, word), obs, word.letters))
    best = 0
    for k, (s, length, _, letters) in enumerate(rows[1:], start=1):
        bs, blen, _, bletters = rows[best]
        tol = 1e-12 * (1.0 + abs(bs))
        if s < bs - tol or (abs(s - bs) <= tol and (
                length < blen - 1e-9
                or (abs(length - blen) <= 1e-9 and letters < bletters))):
            best = k
    return best, target, [r[:3] for r in rows]


class TestClosedFormAgainstRollout:
    """Closed-form insert_best against rollout-based scoring."""

    REL = 1e-8

    def test_random_contexts_with_correlated_noise(self):
        clear, candidates = 0, 0
        for ref, ctx in random_insertion_contexts():
            step = insert_best(ref, NOVEL, ctx)
            want, target, rows = rollout_insertion(ref, NOVEL, ctx)
            target_cov, obs_cov = step_covariances(
                len(ref), ctx.process_noise, ctx.measurement_noise)

            assert np.allclose(step.target_mean, target.mean, rtol=self.REL, atol=0)
            assert np.allclose(target_cov, target.cov, rtol=self.REL, atol=0)
            assert len(step.candidates) == len(rows)
            for (length, surprise, detour_s), (s, want_length, obs) in zip(
                    step_values(step, ctx.mission.uav_speed_m_per_s), rows):
                candidates += 1
                assert surprise == pytest.approx(s, rel=self.REL)
                assert length == pytest.approx(want_length, rel=1e-12)
                assert np.allclose(np.add(step.target_mean, [0.0, detour_s]),
                                   obs.mean, rtol=self.REL, atol=0)
                assert np.allclose(obs_cov, obs.cov, rtol=self.REL, atol=0)
            # the winner is the rollout's, unless the two are tied within
            # the rollout's own rounding
            surprises = [r[0] for r in rows]
            best = surprises[want]
            if all(abs(s - best) > self.REL * best
                   for k, s in enumerate(surprises) if k != want):
                clear += 1
                assert step.winner_index == want
            else:
                assert surprises[step.winner_index] == pytest.approx(
                    best, rel=self.REL)
        assert candidates > 1000 and clear > 250


class TestInsertBest:
    def test_midpoint_novel_takes_its_edge(self):
        centers = {1: (0.0, 100.0), 2: (200.0, 100.0), 9: (100.0, 100.0)}
        ctx = make_ctx(centers, {1: 1.0, 2: 1.0, 9: 1.0}, depot=(100.0, 0.0),
                       q_scale=1e-12, rm_scale=1e-12)
        step = insert_best(Word.from_letters([1, 2]), 9, ctx)
        assert step.chosen.removed_edge == (1, 2)
        assert step.word.letters == (1, 9, 2)

    def test_two_candidate_argmin(self):
        centers = {1: (100.0, 0.0), 9: (500.0, 0.0)}
        ctx = make_ctx(centers, {1: 1.0, 9: 1.0}, q_scale=1e-9, rm_scale=1e-9)
        step = insert_best(Word.from_letters([1]), 9, ctx)
        assert len(step.candidates) == 2
        # appending after 1 is shorter than visiting 9 first? both equal here
        # (mirror geometry): tie broken by word order
        assert step.word.letters == (1, 9)

    def test_matches_independent_argmin(self):
        rng = np.random.default_rng(18)
        for _ in range(8):
            k = int(rng.integers(2, 6))
            ids = list(range(1, k + 1))
            centers = {i: (float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000)))
                       for i in ids + [99]}
            profits = {i: float(rng.uniform(1.0, 3.0)) for i in ids + [99]}
            ctx = make_ctx(centers, profits, depot=(500.0, 500.0),
                           speed=20.0, q_scale=0.05, rm_scale=0.0125)
            ref = Word.from_letters(ids)
            step = insert_best(ref, 99, ctx)
            want, scores = independent_insertion_argmin(ref, 99, ctx)
            spread = max(scores) - min(scores)
            if spread > 1e-9:  # skip numerically tied cases
                assert step.winner_index == want

    def test_unit_change_leaves_choice_invariant(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            ids = [1, 2, 3]
            centers = {i: (float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000)))
                       for i in ids + [9]}
            profits = {i: float(rng.uniform(1.0, 5.0)) for i in ids + [9]}
            base = make_ctx(centers, profits, q_scale=0.1, rm_scale=0.025)
            s = 1000.0
            scaled = make_ctx(centers, {k: v * s for k, v in profits.items()},
                              speed=base.mission.uav_speed_m_per_s / s,
                              q_scale=0.1 * s * s, rm_scale=0.025 * s * s)
            a = insert_best(Word.from_letters(ids), 9, base)
            b = insert_best(Word.from_letters(ids), 9, scaled)
            assert a.winner_index == b.winner_index


def cheapest_insertion_edge(ref, novel, ctx):
    """Direct minimal added-detour over the same removable edge set.

    Detour ties (mirror geometries) are broken like the planner breaks
    them: the insertion yielding the lexicographically smaller word wins.
    """
    letters = list(ref.letters)

    def spliced(u, v):
        if u is None:
            return tuple([novel] + letters)
        if v is None:
            return tuple(letters + [novel])
        k = letters.index(u)
        return tuple(letters[:k + 1] + [novel] + letters[k + 1:])

    best, best_detour = None, None
    for u, v in reference_edges(ref):
        detour = (leg_length(ctx, u, novel) + leg_length(ctx, novel, v)
                  - leg_length(ctx, u, v))
        if best_detour is None or detour < best_detour - 1e-9:
            best, best_detour = (u, v), detour
        elif abs(detour - best_detour) <= 1e-9 and spliced(u, v) < spliced(*best):
            best = (u, v)
    return best


class TestCheapestInsertionDegeneration:
    def test_agrees_with_direct_detour_minimization(self):
        rng = np.random.default_rng(20)
        agree = 0
        for _ in range(100):
            k = int(rng.integers(2, 8))
            ids = list(range(1, k + 1))
            centers = {i: (float(rng.uniform(0, 2000)), float(rng.uniform(0, 2000)))
                       for i in ids + [77]}
            profits = {i: 0.0 for i in ids + [77]}  # profit dimension zeroed
            ctx = make_ctx(centers, profits, depot=(1000.0, 1000.0),
                           q_scale=1e-12, rm_scale=1e-12)
            ref = Word.from_letters(ids)
            step = insert_best(ref, 77, ctx)
            if step.chosen.removed_edge == cheapest_insertion_edge(ref, 77, ctx):
                agree += 1
        assert agree == 100


class TestPlanMission:
    def test_zero_novel_returns_reference(self, trained):
        chan, mission, testing_pool, wm = trained
        training_ids = set(wm.vocab.letters)
        pool = [h for h in testing_pool if h.id in training_ids]
        inst = sample_instance(31337, pool, 5, (1000.0, 1000.0), chan, mission)
        res = plan_mission(inst, wm, PlannerConfig(rng_seed=2))
        assert [s.inserted for s in res.steps] == []
        assert res.final_word.letters == res.reference.letters

    def test_visits_every_hotspot_exactly_once(self, trained):
        chan, mission, testing_pool, wm = trained
        for s in range(10):
            inst = sample_instance(41000 + s, testing_pool, 14,
                                   (1000.0, 1000.0), chan, mission)
            res = plan_mission(inst, wm, PlannerConfig(rng_seed=s))
            assert sorted(res.final_word.letters) == sorted(inst.ids)

    def test_trace_is_auditable(self, trained):
        chan, mission, testing_pool, wm = trained
        inst = sample_instance(555, testing_pool, 10, (1000.0, 1000.0),
                               chan, mission)
        res = plan_mission(inst, wm, PlannerConfig(rng_seed=1))
        assert (sorted(s.inserted for s in res.steps)
                == sorted(set(inst.ids) - set(res.reference.letters)))
        for step in res.steps:
            surprises = [s for _, s, _ in step_values(
                step, inst.mission.uav_speed_m_per_s)]
            assert surprises[step.winner_index] == min(surprises)
            assert all(s >= 0 for s in surprises)

    def test_deterministic(self, trained):
        chan, mission, testing_pool, wm = trained
        inst = sample_instance(777, testing_pool, 12, (1000.0, 1000.0),
                               chan, mission)
        a = plan_mission(inst, wm, PlannerConfig(rng_seed=4))
        b = plan_mission(inst, wm, PlannerConfig(rng_seed=4))
        assert a.final_word.letters == b.final_word.letters
        assert [s.winner_index for s in a.steps] == [s.winner_index for s in b.steps]

    def test_beats_random_insertion_on_average(self, trained):
        chan, mission, testing_pool, wm = trained
        inst = sample_instance(888, testing_pool, 12, (1000.0, 1000.0),
                               chan, mission)
        res = plan_mission(inst, wm, PlannerConfig(rng_seed=6))

        rng = np.random.default_rng(99)
        costs = []
        for _ in range(100):
            letters = list(res.reference.letters)
            for nv in [s.inserted for s in res.steps]:
                pos = int(rng.integers(0, len(letters) + 1))
                letters.insert(pos, nv)
            costs.append(
                make_tour(letters, inst, ObjectiveWeights()).total_cost_m)
        assert res.tour.total_cost_m <= float(np.mean(costs))


class TestBenchmarkContracts:
    """What the benchmark's tracer relies on: one insert_best candidate per
    removable edge, select_reference's (candidates, wm) parameters, and
    the set of public planner functions it wraps in timed spans (a public
    per-word helper would put a span inside the innermost loop)."""

    PUBLIC = ("classify_letters", "expected_surprise", "generate_words",
              "insert_best", "levenshtein", "plan_mission", "plan_to_dict",
              "select_reference")

    def test_one_candidate_per_removable_edge(self):
        rng = np.random.default_rng(5)
        for p in range(0, 9):
            ids = list(range(1, p + 1))
            ctx = make_ctx({i: rng.uniform(0, 1000, size=2) for i in ids + [50]},
                           {i: 1e7 for i in ids + [50]}, depot=(500, 500),
                           q_scale=1.0, rm_scale=1.0)
            ref = Word.from_letters(ids)
            step = insert_best(ref, 50, ctx)
            assert len(step.candidates) == (len(reference_edges(ref)) if p else 1)

    def test_select_reference_parameters(self):
        params = inspect.signature(select_reference).parameters
        assert "candidates" in params and "wm" in params

    def test_public_functions_unchanged(self):
        from uavplan import planner
        public = sorted(
            name for name, value in vars(planner).items()
            if inspect.isfunction(value)
            and value.__module__ == planner.__name__
            and not name.startswith("_"))
        assert public == sorted(self.PUBLIC)
