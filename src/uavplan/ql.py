"""Tabular Q-learning comparator trained on the same demonstrations.

State is collapsed to the current letter (depot has its own row); the
full visited-set state would be exponential. Step rewards mirror the
tour objective on instance-relative scales, and an episode earns a bonus
when its realized tour comes within 5% of the demonstrated objective.
At test time the table drives a softmax word constructor; letters the
table never saw fall back to a distance-based pseudo value.

Each training instance's costs are scaled by the length of its
nearest-neighbor construction. ``train_q`` takes those lengths as an
argument: the oracle stage has them from the demonstrations
(``oracle.demonstrate``), so they are never recomputed here. The profit
scale, the instance's total profit summed in its hotspot order, is
computed here, once per instance, into one array of floats; an episode
reads its instance, demonstration and both scales by the drawn index.

Training runs 100,000 steps on the default config, so each step does
only what its arithmetic needs. An episode builds one id -> hotspot dict
for its instance and walks it on local coordinates: every leg is a
``math.hypot`` of the same differences ``edge_cost`` takes, and a running
tour length adds the legs in visiting order, so at the last step
``length + back`` is the ``total_cost_m`` sum ``make_tour`` forms, term
for term, and the realized objective is bit-identical. The greedy action is the first
strict maximum of an ascending scan of the unvisited ids, which is the
one ``max`` by the key ``(q, -a)`` picks. The Q-values are kept in one
dict per state while training, and become a ``QTable`` at the end.
Random numbers are drawn one at a time in the original order (per episode
one ``integers`` for the instance; per step one ``random`` and, when
exploring, one ``integers``) from the seed's pure-Python stream
(``environment._Stream``), which draws what ``np.random.default_rng``'s
``Generator`` draws bit for bit at a fraction of a scalar call's cost; so
the table matches the straightforward ``Generator`` loop bit for bit
(tests/test_ql_equivalence.py keeps that loop as the reference). The
id -> hotspot dict lives for one episode and is never cached per
instance, for the memory reason given in ``oracle``.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .environment import Instance, _Stream, edge_cost
from .errors import ConfigurationError, ConsistencyError, TrainingError
from .oracle import ObjectiveWeights, Tour, objective_value
from .world_model import Word

DEPOT_STATE = -1


@dataclass(frozen=True)
class QTrainConfig:
    learning_rate: float = 0.1
    discount: float = 0.95
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    episodes: int = 20000
    temperature: float = 0.2
    terminal_bonus: float = 1.0
    match_tolerance: float = 0.05
    reference_bonus: float = 0.5

    def __post_init__(self) -> None:
        if not (0.0 < self.learning_rate <= 1.0):
            raise ConfigurationError("learning rate must be in (0, 1]")
        if not (0.0 <= self.discount <= 1.0):
            raise ConfigurationError("discount must be in [0, 1]")
        if self.episodes < 0:
            raise ConfigurationError("episodes cannot be negative")
        if self.temperature < 0:
            raise ConfigurationError("temperature cannot be negative")


@dataclass
class QTable:
    values: dict[tuple[int, int], float]
    letters: set[int]

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, self.values.values())):
            raise ConsistencyError("Q-values must be finite")

    def q(self, state: int, action: int) -> float:
        return self.values.get((state, action), 0.0)


def _profit_scale(inst: Instance) -> float:
    """The total profit of ``inst``, summed in its hotspot order; 1.0 where
    not positive."""
    total = sum(h.profit_bps for h in inst.hotspots)
    return total if total > 0 else 1.0


def train_q(training: list[tuple[Instance, Tour]],
            cost_scales: Sequence[float], cfg: QTrainConfig,
            weights: ObjectiveWeights, rng_seed: int) -> QTable:
    """Episodic Q-learning over the demonstration instances.

    Each episode walks one instance from the depot with epsilon-greedy
    next-letter choices among the unvisited set; reward per step is
    -alpha * leg / nn_cost + beta * profit / total_profit with alpha and
    beta from ``weights`` (the objective the demonstrations were solved
    with), and the last step also pays the return leg and, on a
    near-demonstration tour, the terminal bonus. ``cost_scales[k]`` is
    training instance k's nn_cost, the length of its nearest-neighbor
    construction, which ``oracle.demonstrate`` gives with each
    demonstration.
    """
    if not training:
        raise TrainingError("no training instances for Q-learning")
    rng = _Stream(rng_seed)
    letters: set[int] = set()
    profit_scales = array("d")
    # strict: one cost scale per training instance
    for (inst, _), _ in zip(training, cost_scales, strict=True):
        profit_scales.append(_profit_scale(inst))
        letters.update(inst.ids)

    alpha = weights.weight_alpha
    beta = weights.weight_beta
    lr, discount = cfg.learning_rate, cfg.discount
    # state -> {action: Q}; a missing row or entry is 0.0
    rows: dict[int, dict[int, float]] = {}
    random, integers = rng.random, rng.integers
    hypot = math.hypot
    for ep in range(cfg.episodes):
        if cfg.episodes > 1:
            frac = ep / (cfg.episodes - 1)
        else:
            frac = 1.0
        eps = cfg.epsilon_start + (cfg.epsilon_end - cfg.epsilon_start) * frac
        inst, demo = training[k := integers(len(training))]
        cost_scale, profit_scale = cost_scales[k], profit_scales[k]
        by_id = {h.id: h for h in inst.hotspots}
        ids = sorted(by_id)
        unvisited = ids[:]
        row = rows.setdefault(DEPOT_STATE, {})
        x, y = depot = inst.depot_m
        length = 0.0
        while unvisited:
            if random() < eps:
                action = unvisited[integers(len(unvisited))]
            else:
                # ascending scan keeping the first strict maximum: the
                # lowest id among equal values, as max by key (q, -a)
                action = unvisited[0]
                best = row.get(action, 0.0)
                for a in unvisited:
                    v = row.get(a, 0.0)
                    if v > best:
                        best, action = v, a
            h = by_id[action]
            hx, hy = h.center_m
            leg = hypot(x - hx, y - hy)
            length += leg
            reward = (-alpha * leg / cost_scale
                      + beta * h.profit_bps / profit_scale)
            unvisited.remove(action)
            next_row = rows.setdefault(action, {})
            if unvisited:
                target = reward + discount * max(
                    [next_row.get(a2, 0.0) for a2 in unvisited])
            else:
                back = hypot(hx - depot[0], hy - depot[1])
                reward += -alpha * back / cost_scale
                # every id was visited, so the profit is summed over
                # all of them in id order
                realized = objective_value(length + back,
                                           sum(by_id[i].profit_bps for i in ids),
                                           weights)
                if abs(realized - demo.objective) <= cfg.match_tolerance * abs(demo.objective):
                    reward += cfg.terminal_bonus
                target = reward
            old = row.get(action, 0.0)
            row[action] = old + lr * (target - old)
            row, x, y = next_row, hx, hy
    return QTable(values={(s, a): v for s, row in rows.items() for a, v in row.items()},
                  letters=letters)


def construct_word(q: QTable, reference: Word | None, inst: Instance,
                   rng_seed: int, cfg: QTrainConfig) -> Word:
    """Build a test word by softmax sampling over Q rows.

    Letters outside the table score a negative normalized distance from
    the current position; the letter the reference word suggests next
    gets a fixed bonus so the baseline consumes the reference exactly as
    the surprise planner does. The softmax weights are numpy's ``exp``;
    each letter is the one ``Generator.choice(len(w), p=w / w.sum())``
    would draw for them, drawn by the seed's stream
    (``environment._Stream.choice``).
    """
    rng = _Stream(rng_seed)
    diag = math.hypot(inst.mission.area_side_m, inst.mission.area_side_m)
    succ: dict[int, int] = {}
    first_ref: int | None = None
    if reference is not None and len(reference) > 0:
        letters = reference.letters
        first_ref = letters[0]
        succ = {a: b for a, b in zip(letters, letters[1:])}

    centers = {h.id: h.center_m for h in inst.hotspots}
    state = DEPOT_STATE
    pos = inst.depot_m
    unvisited = sorted(centers)
    order: list[int] = []
    while unvisited:
        scores = []
        hint = first_ref if state == DEPOT_STATE else succ.get(state)
        for a in unvisited:
            if a in q.letters:
                s = q.q(state, a)
            else:
                s = -edge_cost(pos, centers[a]) / diag
            if hint == a:
                s += cfg.reference_bonus
            scores.append(s)
        if cfg.temperature <= 1e-9:
            k = int(np.argmax(scores))
        else:
            arr = np.array(scores) / cfg.temperature
            arr -= arr.max()
            k = rng.choice(np.exp(arr).tolist())
        action = unvisited.pop(k)
        order.append(action)
        state, pos = action, centers[action]
    return Word.from_letters(order)


QTABLE_SCHEMA = "uavplan.qtable.v3"


def qtable_to_dict(q: QTable) -> dict:
    return {
        "schema": QTABLE_SCHEMA,
        "values": [[s, a, v] for (s, a), v in sorted(q.values.items())],
        "letters": sorted(q.letters),
    }
