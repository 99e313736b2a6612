"""Test-side oracles for the planner: helpers the planner no longer needs.

``insert_best`` scores each candidate from its detour and records only
what the step compared: the target mean, the reference tour length, the
surprise terms k and c, and each candidate's removed edge and detour.
``plan_to_dict`` writes that less the removed edges (``uavplan.plan.v3``).
The helpers here rebuild the rest, for the tests to check against:

- ``reference_edges`` and ``enumerate_insertions`` list the removable
  edges of a reference word and the word each insertion makes;
- ``shifted`` is a belief with its mean moved and its covariance shared;
- ``kalman_predict`` is the per-leg belief transition, ``rollout`` folds it
  over a whole mission word and ``predict_observation`` adds the
  measurement noise: the long way to the beliefs ``insert_best`` gets in
  closed form;
- ``leg_length`` and ``word_length_m`` are a context's leg and closed word
  lengths;
- ``candidate_values`` (``step_values`` for all of a step's candidates)
  and ``step_covariances`` are a candidate's tour length, surprise and
  detour time and a step's two covariances, by the float operations
  ``insert_best`` computes them with;
- ``expand_v2`` turns a v3 trace back into the ``uavplan.plan.v2`` trace,
  which also held those values and each candidate's removed edge, and
  ``expand_v1`` turns a v2 trace (or a v3 one, through ``expand_v2``)
  back into the ``uavplan.plan.v1`` trace, which also held every
  candidate's word and predicted observation;
- ``random_insertion_contexts`` are seeded planning contexts with
  correlated noise, over references of 0 to 12 letters;
- ``ref_generate_words`` is the word sampler that calls
  ``Generator.choice`` for every letter and rebuilds each restricted
  transition row letter by letter.
"""

import numpy as np

from uavplan.environment import MissionConfig, edge_cost
from uavplan.errors import ConfigurationError
from uavplan.planner import GaussianBelief, PlanContext
from uavplan.world_model import Word, WorldModel

from world_model_oracles import GeneralizedLetter, glyphs

NOVEL = 99      # the letter inserted in every random context


def reference_edges(ref: Word) -> tuple[tuple[int | None, int | None], ...]:
    """Removable edges of the reference graph (None marks the depot).

    For p letters these are the p-1 inner edges plus the return-to-depot
    closure, i.e. each letter's outgoing edge. A single-letter graph has
    no inner structure, so both depot legs are offered.
    """
    letters = ref.letters
    if not letters:
        return ()
    if len(letters) == 1:
        return ((None, letters[0]), (letters[0], None))
    inner = tuple((a, b) for a, b in zip(letters, letters[1:]))
    return inner + ((letters[-1], None),)


def candidate_word(reference, removed_edge, inserted: int) -> Word:
    """The reference letters with ``inserted`` spliced into ``removed_edge``
    (u, v): right after u, or in front when u is the depot."""
    letters = tuple(reference)
    u = removed_edge[0]
    k = 0 if u is None else letters.index(u) + 1
    return Word(letters[:k] + (inserted,) + letters[k:])


def enumerate_insertions(ref: Word, novel: int) -> list[tuple[tuple, Word]]:
    """(removed edge, grown word) for every removable edge, in the order of
    ``reference_edges``; an empty reference has the one depot-to-depot
    edge."""
    letters = ref.letters
    novel = int(novel)
    if novel in letters:
        raise ConfigurationError(f"letter {novel} already in reference")
    edges = reference_edges(ref) if letters else ((None, None),)
    return [(edge, candidate_word(letters, edge, novel)) for edge in edges]


def shifted(b: GaussianBelief, delta: np.ndarray) -> GaussianBelief:
    """The same covariance around a mean moved by ``delta``.

    The covariance was validated when ``b`` was built and is shared, not
    copied, so the check is not repeated.
    """
    out = object.__new__(GaussianBelief)
    object.__setattr__(out, "mean", b.mean + delta)
    object.__setattr__(out, "cov", b.cov)
    return out


def leg_length(ctx: PlanContext, a: int | None, b: int | None) -> float:
    pa = ctx.depot if a is None else ctx.centers[a]
    pb = ctx.depot if b is None else ctx.centers[b]
    return edge_cost(pa, pb)


def word_length_m(ctx: PlanContext, w: Word) -> float:
    letters = w.letters
    if not letters:
        return 0.0
    total = leg_length(ctx, None, letters[0])
    for a, b in zip(letters, letters[1:]):
        total += leg_length(ctx, a, b)
    return total + leg_length(ctx, letters[-1], None)


def _advance(b: GaussianBelief, leg_m: float, profit_bps: float,
             dwell_s: float, ctx: PlanContext) -> GaussianBelief:
    shift = np.array([profit_bps,
                      leg_m / ctx.mission.uav_speed_m_per_s + dwell_s])
    return GaussianBelief(mean=b.mean + shift, cov=b.cov + ctx.process_noise)


def kalman_predict(b: GaussianBelief, gl: GeneralizedLetter,
                   ctx: PlanContext) -> GaussianBelief:
    """One event transition: gain the successor's profit, spend the leg time."""
    leg = leg_length(ctx, gl.start, gl.edge_to)
    return _advance(b, leg, ctx.profits[gl.edge_to], ctx.mission.dwell_time_s, ctx)


def predict_observation(b: GaussianBelief, ctx: PlanContext) -> GaussianBelief:
    """Expected observation: identity map plus measurement noise."""
    return GaussianBelief(mean=b.mean, cov=b.cov + ctx.measurement_noise)


def rollout(word: Word, ctx: PlanContext,
            b0: GaussianBelief | None = None) -> GaussianBelief:
    """Fold the per-leg prediction over a whole mission word.

    Covers the depot departure leg, every generalized letter, and the
    return leg (travel time only). An empty word is a no-op.
    """
    b = GaussianBelief.zero() if b0 is None else b0
    letters = word.letters
    if not letters:
        return b
    b = _advance(b, leg_length(ctx, None, letters[0]),
                 ctx.profits[letters[0]], ctx.mission.dwell_time_s, ctx)
    for gl in glyphs(letters):
        b = kalman_predict(b, gl, ctx)
    return _advance(b, leg_length(ctx, letters[-1], None), 0.0, 0.0, ctx)


def candidate_values(ref_length_m: float, k: float, c: float,
                     detour_m: float, speed: float) -> tuple[float, float, float]:
    """(tour length, surprise, detour time) of a candidate with detour d
    in a step with reference tour length L and surprise terms k and c:
    L + d, max(k d d + c, 0) and d / v, as ``insert_best`` computes them."""
    return (ref_length_m + detour_m, max(k * detour_m * detour_m + c, 0.0),
            detour_m / speed)


def step_values(step, speed: float) -> list[tuple[float, float, float]]:
    """``candidate_values`` of every candidate of an ``InsertionStep``."""
    return [candidate_values(step.ref_length_m, step.surprise_k,
                             step.surprise_c, c.detour_m, speed)
            for c in step.candidates]


def step_covariances(p: int, process_noise,
                     measurement_noise) -> tuple[np.ndarray, np.ndarray]:
    """The target covariance (p+2)Q (Q for an empty reference) and the
    observation covariance (p+2)Q + R of a step with a p-letter
    reference."""
    q = np.array(process_noise, float)
    return ((p + 2 if p else 1) * q,
            (p + 2) * q + np.array(measurement_noise, float))


def expand_v2(trace: dict) -> dict:
    """The ``uavplan.plan.v2`` trace rebuilt from a ``uavplan.plan.v3`` one
    alone.

    ``normal`` is the sorted ``reference`` and ``novel`` the steps'
    ``inserted``. Each step gets back its ``target`` covariance and
    ``observation_cov`` (``step_covariances`` of its reference length and
    the trace's noise), and each candidate its ``removed_edge`` (the
    removable edges of the step's reference, in ``insert_best``'s order)
    and its ``tour_length_m``, ``surprise`` and ``detour_s``
    (``candidate_values``). The first step's reference is the trace's
    ``reference``, every later one the previous step's winning word.
    """
    assert trace["schema"] == "uavplan.plan.v3"
    speed = trace["speed_m_per_s"]
    reference = tuple(trace["reference"])
    steps = []
    for step in trace["steps"]:
        target_cov, obs_cov = step_covariances(
            len(reference), trace["process_noise"], trace["measurement_noise"])
        insertions = enumerate_insertions(Word(reference), step["inserted"])
        candidates = []
        for (edge, _), detour in zip(insertions, step["detours_m"], strict=True):
            length, surprise, detour_s = candidate_values(
                step["ref_length_m"], step["surprise_k"], step["surprise_c"],
                detour, speed)
            candidates.append({"removed_edge": list(edge),
                               "tour_length_m": length, "surprise": surprise,
                               "detour_s": detour_s})
        steps.append({"inserted": step["inserted"],
                      "target": {"mean": step["target_mean"],
                                 "cov": target_cov.tolist()},
                      "observation_cov": obs_cov.tolist(),
                      "winner_index": step["winner_index"],
                      "candidates": candidates})
        reference = insertions[step["winner_index"]][1].letters
    v2 = {key: value for key, value in trace.items() if key not in
          ("speed_m_per_s", "process_noise", "measurement_noise")}
    return {**v2, "schema": "uavplan.plan.v2",
            "normal": sorted(trace["reference"]),
            "novel": [step["inserted"] for step in trace["steps"]],
            "steps": steps}


def expand_v1(trace: dict) -> dict:
    """The ``uavplan.plan.v1`` trace rebuilt from a ``uavplan.plan.v2`` one
    alone; a ``uavplan.plan.v3`` one is first expanded by ``expand_v2``.

    Each candidate gets back its ``word``, the step's reference with the
    inserted letter spliced into its removed edge, and its
    ``predicted_obs``, the target mean moved by (0, ``detour_s``) with the
    step's ``observation_cov``. The first step's reference is the trace's
    ``reference``, every later one the previous step's winning word.
    """
    if trace["schema"] == "uavplan.plan.v3":
        trace = expand_v2(trace)
    assert trace["schema"] == "uavplan.plan.v2"
    reference = tuple(trace["reference"])
    steps = []
    for step in trace["steps"]:
        mean = step["target"]["mean"]
        words = [candidate_word(reference, c["removed_edge"],
                                step["inserted"]).letters
                 for c in step["candidates"]]
        steps.append({
            "inserted": step["inserted"],
            "target": step["target"],
            "winner_index": step["winner_index"],
            "candidates": [
                {"word": list(word),
                 "removed_edge": c["removed_edge"],
                 "tour_length_m": c["tour_length_m"],
                 "surprise": c["surprise"],
                 "predicted_obs": {"mean": [mean[0] + 0.0,
                                            mean[1] + c["detour_s"]],
                                   "cov": step["observation_cov"]}}
                for word, c in zip(words, step["candidates"])],
        })
        reference = words[step["winner_index"]]
    return {**trace, "schema": "uavplan.plan.v1", "steps": steps}


def random_noise(rng, sd_profit, sd_time):
    """A constant 2x2 covariance with a random correlation."""
    sp = sd_profit * rng.uniform(0.5, 2.0)
    st = sd_time * rng.uniform(0.5, 2.0)
    rho = rng.uniform(-0.9, 0.9)
    return np.array([[sp * sp, rho * sp * st], [rho * sp * st, st * st]])


def random_insertion_contexts(seed: int = 23, trials: int = 300):
    """Yield (reference word, context) pairs for inserting letter ``NOVEL``:
    references of ``trial % 13`` letters (so empty and one-letter ones
    too), centers uniform in a 2 km square around a central depot, random
    profits, speed and dwell, and correlated process and measurement
    noise."""
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        p = trial % 13
        ids = list(range(1, p + 1))
        centers = {i: (float(rng.uniform(0, 2000)), float(rng.uniform(0, 2000)))
                   for i in ids + [NOVEL]}
        profits = {i: float(rng.uniform(1e6, 1e8)) for i in ids + [NOVEL]}
        q = random_noise(rng, 0.02 * 5e7, 0.02 * 40.0)
        mission = MissionConfig(uav_speed_m_per_s=float(rng.uniform(5, 40)),
                                dwell_time_s=float(rng.choice([0.0, 3.0])))
        ctx = PlanContext(centers=centers, profits=profits,
                          depot=(1000.0, 1000.0), mission=mission,
                          process_noise=q,
                          measurement_noise=random_noise(
                              rng, 0.01 * 5e7, 0.01 * 40.0))
        yield Word.from_letters(ids), ctx


def ref_generate_words(wm: WorldModel, normal, n: int,
                       rng_seed: int) -> list[Word]:
    """The earlier ``generate_words``, kept as the test oracle: one
    ``Generator.choice`` call per letter, and each restricted transition
    row rebuilt entry by entry through the model's letter map (it read
    the row and its active flag by letter, through accessors since
    deleted, and the map was a ``Vocabulary`` object, also deleted; it
    indexes ``probs`` and ``active`` by the same row here, as it does the
    start counts, which each letter's record once held)."""
    normal = sorted(set(int(i) for i in normal))
    if not normal:
        raise ConfigurationError("cannot generate words over an empty letter set")
    if n < 1:
        raise ConfigurationError("need n >= 1 words")
    rng = np.random.default_rng(rng_seed)
    start_counts = wm.start_counts[[wm.vocab[l] for l in normal]]
    out: list[Word] = []
    for _ in range(n):
        remaining = list(normal)
        if start_counts.sum() > 0:
            p = start_counts / start_counts.sum()
            current = int(rng.choice(normal, p=p))
        else:
            current = int(rng.choice(normal))
        letters = [current]
        remaining.remove(current)
        while remaining:
            weights = None
            if (current in wm.vocab
                    and wm.transition.active[wm.vocab[current]]):
                row = wm.transition.probs[wm.vocab[current]]
                weights = np.array([row[wm.vocab[r]] for r in remaining])
                if weights.sum() <= 0.0:
                    weights = None
            if weights is not None:
                nxt = int(rng.choice(remaining, p=weights / weights.sum()))
            else:
                here = wm.stats[current].center_m
                nxt = min(remaining,
                          key=lambda r: (edge_cost(here, wm.stats[r].center_m), r))
            letters.append(nxt)
            remaining.remove(nxt)
            current = nxt
        out.append(Word.from_letters(letters))
    return out
