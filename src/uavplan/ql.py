"""Tabular Q-learning comparator trained on the same demonstrations.

State is collapsed to the current letter (depot has its own row); the
full visited-set state would be exponential. Step rewards mirror the
tour objective on instance-relative scales, and an episode earns a bonus
when its realized tour comes within 5% of the demonstrated objective.
At test time the table drives a softmax word constructor; letters the
table never saw fall back to a distance-based pseudo value.

A training instance is a row: the ascending indices of its hotspots in
the training pool, flown from the one depot (``harness``). ``train_q``
takes the pool, the depot and the rows, and each training instance's
costs are scaled by the length of its nearest-neighbor construction,
which it takes as an argument: the oracle stage has those lengths from
the demonstrations (``oracle.demonstrate``), so they are never recomputed
here. The profit scale, the instance's total profit summed in id order,
is computed here, once per row, into one array of floats; an episode
reads its row, demonstration and both scales by the drawn index.

Training runs 100,000 steps on the default config, so each step does
only what its arithmetic needs. An episode walks its row over the pool's
centers and profits, one list each, with the pool indices as actions:
every leg is a ``math.hypot`` of the same differences ``edge_cost``
takes, and a running tour length adds the legs in visiting order, so at
the last step ``length + back`` is the ``total_cost_m`` sum
``make_tour`` forms, term for term, and the realized objective is
bit-identical. Index order is id order, so the greedy action, the first
strict maximum of an ascending scan of the unvisited indices, is the one
``max`` by the key ``(q, -a)`` picks among the ids. The Q-values are kept
in one dict per state while training, and become a ``QTable`` over ids at
the end. Random numbers are drawn one at a time in the original order
(per episode one ``integers`` for the instance; per step one ``random``
and, when exploring, one ``integers``) from the seed's pure-Python stream
(``environment._Stream``), which draws what ``np.random.default_rng``'s
``Generator`` draws bit for bit at a fraction of a scalar call's cost; so
the table matches the straightforward ``Generator`` loop bit for bit
(tests/test_ql_equivalence.py keeps that loop as the reference).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .environment import Hotspot, Instance, Point, _Stream, edge_cost
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


def train_q(hotspots: Sequence[Hotspot], depot: Point,
            rows: Sequence[Sequence[int]], demos: Sequence[Tour],
            cost_scales: Sequence[float], cfg: QTrainConfig,
            weights: ObjectiveWeights, rng_seed: int) -> QTable:
    """Episodic Q-learning over the demonstration instances: ``rows[k]``
    is training instance k, its hotspots' ascending indices in the pool
    ``hotspots`` (ascending by id), flown from ``depot``, and ``demos[k]``
    its demonstration.

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
    if not rows:
        raise TrainingError("no training instances for Q-learning")
    rng = _Stream(rng_seed)
    centers = [h.center_m for h in hotspots]
    profits = [h.profit_bps for h in hotspots]
    # each instance's total profit, summed in id order
    totals = array("d")
    # strict: one demonstration and one cost scale per training instance
    for row, _, _ in zip(rows, demos, cost_scales, strict=True):
        totals.append(sum([profits[v] for v in row]))

    alpha = weights.weight_alpha
    beta = weights.weight_beta
    lr, discount = cfg.learning_rate, cfg.discount
    # state -> {action: Q}, over pool indices; a missing row or entry is 0.0
    table: dict[int, dict[int, float]] = {}
    random, integers = rng.random, rng.integers
    hypot = math.hypot
    for ep in range(cfg.episodes):
        if cfg.episodes > 1:
            frac = ep / (cfg.episodes - 1)
        else:
            frac = 1.0
        eps = cfg.epsilon_start + (cfg.epsilon_end - cfg.epsilon_start) * frac
        unvisited = list(rows[k := integers(len(rows))])
        cost_scale, total = cost_scales[k], totals[k]
        profit_scale = total if total > 0 else 1.0
        row = table.setdefault(DEPOT_STATE, {})
        x, y = depot
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
            hx, hy = centers[action]
            leg = hypot(x - hx, y - hy)
            length += leg
            reward = (-alpha * leg / cost_scale
                      + beta * profits[action] / profit_scale)
            unvisited.remove(action)
            next_row = table.setdefault(action, {})
            if unvisited:
                target = reward + discount * max(
                    [next_row.get(a2, 0.0) for a2 in unvisited])
            else:
                back = hypot(hx - depot[0], hy - depot[1])
                reward += -alpha * back / cost_scale
                # every hotspot was visited, so the profit is the total
                realized = objective_value(length + back, total, weights)
                if abs(realized - demos[k].objective) <= cfg.match_tolerance * abs(demos[k].objective):
                    reward += cfg.terminal_bonus
                target = reward
            old = row.get(action, 0.0)
            row[action] = old + lr * (target - old)
            row, x, y = next_row, hx, hy
    # each pool index becomes its id; the depot's state, -1, reads the
    # entry appended last
    ids = [h.id for h in hotspots] + [DEPOT_STATE]
    return QTable(values={(ids[s], ids[a]): v for s, row in table.items()
                          for a, v in row.items()},
                  letters={ids[v] for v in set().union(*rows)})


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
