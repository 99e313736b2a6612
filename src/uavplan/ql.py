"""Tabular Q-learning comparator trained on the same demonstrations.

State is collapsed to the current letter (depot has its own row); the
full visited-set state would be exponential. Step rewards mirror the
tour objective on instance-relative scales, and an episode earns a bonus
when its realized tour comes within 5% of the demonstrated objective.
At test time the table drives a softmax word constructor; letters the
table never saw fall back to a distance-based pseudo value.

A training instance is a row: the ascending indices of its hotspots in
the training pool, flown from the one depot (``harness``). ``train_q``
takes the pool, the depot and the rows, one (m, k) int array, and two
columns of the demonstrations' record (``oracle.demonstrate``), so that
nothing of them is recomputed here and no ``Tour`` is built for one: the
demonstrated objectives, which the terminal bonus compares with, and the
cost scales, each the length of the instance's nearest-neighbor
construction, which scales its costs. The profit scale, the instance's
total profit summed in id order, is computed here for every row at once,
by the oracle's in-order row sum (``oracle._row_sums``); an episode
reads its row, as one list, its objective and both scales by the drawn
index. The trained letters are the pool indices that some row holds, by
one ``bincount`` of the rows.

Training runs 100,000 steps on the default config, so each step does
only what its arithmetic needs. An episode walks its row over the pool,
with the pool indices as actions. Every leg is read from the oracle's
table of the pool (``oracle._table``), one float64 array, through a
``memoryview`` of each of its rows: the ``math.hypot`` of the lower-id
point minus the higher-id one, the depot's row last, so state -1 reads
it. A view reads an entry as a Python float, so no nested list of the
pool's table is built: such a list holds a float object of 24 bytes and
a pointer of 8 per entry, four times the array's bytes, and on a
2,000-hotspot pool the set-up's peak resident memory, which Q-learning
sets, was 271 MB with it and the oracle's nested list, against 157 MB
with neither (``tools/setup_layers.py --training-pool 2000``). A view
makes the float on each read, about 15 ns more than a list's read: the
120,000 leg reads of 20,000 episodes of 5 hotspots take about 5.6
against 3.7 ms (one pinned CPU of a 2-CPU x86_64 host). ``hypot`` takes
the absolute values of the differences, so a leg read in either
direction is the one ``edge_cost`` and ``make_tour`` form. A running
tour length adds the legs in visiting order, so at the last step
``length + back`` is the ``total_cost_m`` sum ``make_tour`` forms, term
for term, and the realized objective is bit-identical. The Q-values are
dense rows, one list per pool index and the depot's last (state -1), and
each entry an update writes is also stored in its state's dict, so the
``QTable`` made over ids at the end holds exactly the pairs the updates
wrote, 0.0 values included.

Each step but the last scans one row, once (the first step also scans
the depot's row when it does not explore). The update's target takes
the maximum of the next state's row over the unvisited letters, and that
maximum's letter is also the next step's greedy pick, which the next
step takes unless it explores. The reuse is exact: a step writes
only its own state's row, never the row of the letter it moves to, so
the next state's row is unchanged when the next step reads it; and
``max`` keeps the first of equal values, so among equal values it picks
the lowest index, which is the lowest id (index order is id order), as
``max`` by the key ``(q, -a)`` does. The last step, with one letter
left, takes no maximum, but still makes its draw.

Random numbers are drawn one at a time in the original order (per
episode one ``integers`` for the instance; per step one ``random`` and,
when exploring, one ``integers``) from the seed's pure-Python stream
(``environment._Stream``), which draws what ``np.random.default_rng``'s
``Generator`` draws bit for bit at a fraction of a scalar call's cost;
so the table matches the straightforward ``Generator`` loop bit for bit
(tests/test_ql_equivalence.py keeps that loop as the reference). The
step's ``random() < eps`` is taken on the raw 64-bit output ``x``:
``random()`` is ``(x >> 11) * 2**-53``, exact, so it is below ``eps``
exactly when ``x >> 11 < ceil(eps * 2**53)``, that is when
``x < ceil(eps * 2**53) << 11``, a threshold made once per episode.
(``QTrainConfig`` keeps both epsilons in [0, 1], so the threshold is
always a finite integer.)
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .environment import Hotspot, Instance, Point, _Stream, edge_cost
from .errors import (ConfigurationError, ConsistencyError, NumericError,
                     TrainingError)
from .oracle import ObjectiveWeights, _row_sums, _table, objective_value
from .world_model import Word

DEPOT_STATE = -1
# at or below this temperature, MQL takes the argmax of its scores in
# place of the softmax over them (``construct_word``)
_ARGMAX_TEMPERATURE = 1e-9


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
        for key in ("epsilon_start", "epsilon_end"):
            if not 0.0 <= (value := getattr(self, key)) <= 1.0:
                raise ConfigurationError(f"{key} must be in [0, 1], not {value}")
        if self.episodes < 0:
            raise ConfigurationError("episodes cannot be negative")
        if self.temperature < 0:
            raise ConfigurationError("temperature cannot be negative")
        for key in ("terminal_bonus", "reference_bonus"):
            if not math.isfinite(value := getattr(self, key)):
                raise ConfigurationError(f"{key} must be finite, not {value}")
            if (self.temperature > _ARGMAX_TEMPERATURE
                    and not math.isfinite(abs(value) / self.temperature)):
                raise ConfigurationError(
                    f"{key} {value} over temperature {self.temperature} is "
                    "not finite: MQL's softmax divides each score by the "
                    "temperature")


@dataclass
class QTable:
    values: dict[tuple[int, int], float]
    letters: set[int]

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, self.values.values())):
            raise ConsistencyError("Q-values must be finite")

    def q(self, state: int, action: int) -> float:
        return self.values.get((state, action), 0.0)


def train_q(hotspots: Sequence[Hotspot], depot: Point, rows: np.ndarray,
            objectives: Sequence[float], cost_scales: Sequence[float],
            cfg: QTrainConfig, weights: ObjectiveWeights,
            rng_seed: int) -> QTable:
    """Episodic Q-learning over the demonstration instances: ``rows`` is
    an int array of one row per training instance, all of one length, and
    ``rows[k]`` is training instance k, its hotspots' ascending indices in
    the pool ``hotspots`` (ascending by id), flown from ``depot``, and
    ``objectives[k]`` its demonstration's objective.

    Each episode walks one instance from the depot with epsilon-greedy
    next-letter choices among the unvisited set; reward per step is
    -alpha * leg / nn_cost + beta * profit / total_profit with alpha and
    beta from ``weights`` (the objective the demonstrations were solved
    with), and the last step also pays the return leg and, on a
    near-demonstration tour, the terminal bonus. ``cost_scales[k]`` is
    training instance k's nn_cost, the length of its nearest-neighbor
    construction. ``oracle.demonstrate`` gives both columns, the
    ``objective`` and the ``cost_scale`` of its record, and every leg is
    read from its table of the pool (``oracle._table``), through views of
    the table's rows.
    """
    if not len(rows):
        raise TrainingError("no training instances for Q-learning")
    rng = _Stream(rng_seed)
    profits = [h.profit_bps for h in hotspots]
    # each instance's total profit, summed in id order
    totals = array("d", _row_sums(np.array(profits)[rows]).tobytes())
    # strict: one objective and one cost scale per training instance
    for _ in zip(totals, objectives, cost_scales, strict=True):
        pass
    # legs[s][a]: the leg from pool index s, or from the depot at s = -1,
    # to pool index a, read as a float through a view of the table's row
    legs = list(map(memoryview, _table(hotspots, depot)))

    neg_alpha = -weights.weight_alpha
    # beta * profit, per pool index
    gains = [weights.weight_beta * p for p in profits]
    lr, discount = cfg.learning_rate, cfg.discount
    # q[s][a], with the depot's row last (s = -1); written[s] holds the
    # entries of q[s] that an update wrote, and keys[s] reads q[s]
    q = [[0.0] * len(hotspots) for _ in range(len(hotspots) + 1)]
    written: list[dict[int, float]] = [{} for _ in q]
    keys = [row.__getitem__ for row in q]
    raw, integers = rng.raw, rng.integers
    episodes, start = cfg.episodes, cfg.epsilon_start
    spread, tolerance = cfg.epsilon_end - start, cfg.match_tolerance
    for ep in range(episodes):
        eps = start + spread * (ep / (episodes - 1) if episodes > 1 else 1.0)
        # random() < eps, as a raw output below a threshold
        explore = math.ceil(eps * 9007199254740992.0) << 11
        unvisited = rows[k := integers(len(rows))].tolist()
        cost_scale, total = cost_scales[k], totals[k]
        profit_scale = total if total > 0 else 1.0
        s = DEPOT_STATE
        q_s = q[s]
        if raw() < explore:
            a = unvisited.pop(integers(len(unvisited)))
        else:
            a = max(unvisited, key=keys[s])
            unvisited.remove(a)
        length = 0.0
        while unvisited:
            leg = legs[s][a]
            length += leg
            q_a = q[a]
            # the greedy pick at a, which the next step takes unless it
            # explores: no update writes row a before then
            best = max(unvisited, key=keys[a])
            target = (neg_alpha * leg / cost_scale + gains[a] / profit_scale
                      + discount * q_a[best])
            old = q_s[a]
            written[s][a] = q_s[a] = old + lr * (target - old)
            s, q_s = a, q_a
            if raw() < explore:
                a = unvisited.pop(integers(len(unvisited)))
            else:
                a = best
                unvisited.remove(a)
        # the last letter: the return leg and, on a near-demonstration
        # tour, the bonus; every hotspot was visited, so the profit is the
        # total
        leg, back = legs[s][a], legs[DEPOT_STATE][a]
        target = (neg_alpha * leg / cost_scale + gains[a] / profit_scale
                  + neg_alpha * back / cost_scale)
        realized = objective_value(length + leg + back, total, weights)
        demo = objectives[k]
        if abs(realized - demo) <= tolerance * abs(demo):
            target += cfg.terminal_bonus
        old = q_s[a]
        written[s][a] = q_s[a] = old + lr * (target - old)
    # each pool index becomes its id; the depot's state, -1, reads the
    # entry appended last
    ids = [h.id for h in hotspots] + [DEPOT_STATE]
    held = np.bincount(rows.ravel(), minlength=len(hotspots))
    return QTable(values={(ids[s], ids[a]): v for s, row in enumerate(written)
                          for a, v in row.items()},
                  letters={ids[v] for v in np.flatnonzero(held).tolist()})


def construct_word(q: QTable, reference: Word | None, inst: Instance,
                   rng_seed: int, cfg: QTrainConfig) -> Word:
    """Build a test word by softmax sampling over Q rows.

    Letters outside the table score a negative normalized distance from
    the current position; the letter the reference word suggests next
    gets a fixed bonus so the baseline consumes the reference exactly as
    the surprise planner does. The softmax weights are numpy's ``exp``;
    each letter is the one ``Generator.choice(len(w), p=w / w.sum())``
    would draw for them, drawn by the seed's stream
    (``environment._Stream.choice``). A row that is not finite, which a
    huge bonus or a tiny temperature gives, is a numeric error naming
    those keys; numpy's warnings on the way to it are not printed.
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
    with np.errstate(over="ignore", invalid="ignore"):
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
            if cfg.temperature <= _ARGMAX_TEMPERATURE:
                k = int(np.argmax(scores))
            else:
                arr = np.array(scores) / cfg.temperature
                arr -= arr.max()
                k = rng.choice(np.exp(arr).tolist())
                if k is None:
                    raise NumericError(
                        "MQL's softmax row is not finite: its scores over "
                        f"ql.temperature {cfg.temperature} overflow, at "
                        f"ql.terminal_bonus {cfg.terminal_bonus} and "
                        f"ql.reference_bonus {cfg.reference_bonus}")
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
