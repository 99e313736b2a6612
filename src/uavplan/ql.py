"""Tabular Q-learning comparator trained on the same demonstrations.

State is collapsed to the current letter (depot has its own row); the
full visited-set state would be exponential. Step rewards mirror the
tour objective on instance-relative scales, and an episode earns a bonus
when its realized tour comes within 5% of the demonstrated objective.
At test time the table drives a softmax word constructor; letters the
table never saw fall back to a distance-based pseudo value.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .environment import Instance, edge_cost
from .errors import ConfigurationError, TrainingError
from .oracle import ObjectiveWeights, Tour, nearest_neighbor_construct, objective_value, tour_length
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
    fingerprint: str = ""

    def q(self, state: int, action: int) -> float:
        return self.values.get((state, action), 0.0)


def _training_fingerprint(training) -> str:
    payload = json.dumps(sorted((inst.seed, list(demo.order))
                                for inst, demo in training),
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _instance_scales(inst: Instance) -> tuple[float, float]:
    nn = nearest_neighbor_construct(inst)
    cost_scale = nn.total_cost_m if nn.total_cost_m > 0 else 1.0
    total_profit = sum(h.profit_bps for h in inst.hotspots)
    return cost_scale, total_profit if total_profit > 0 else 1.0


def _center(inst: Instance, state: int):
    return inst.depot_m if state == DEPOT_STATE else inst.hotspot(state).center_m


def train_q(training: list[tuple[Instance, Tour]], cfg: QTrainConfig,
            weights: ObjectiveWeights, rng_seed: int) -> QTable:
    """Episodic Q-learning over the demonstration instances.

    Each episode walks one instance from the depot with epsilon-greedy
    next-letter choices among the unvisited set; reward per step is
    -alpha * leg / nn_cost + beta * profit / total_profit with alpha and
    beta from ``weights`` (the objective the demonstrations were solved
    with), and the last step also pays the return leg and, on a
    near-demonstration tour, the terminal bonus.
    """
    if not training:
        raise TrainingError("no training instances for Q-learning")
    rng = np.random.default_rng(rng_seed)
    table = QTable(values={}, letters=set(),
                   fingerprint=_training_fingerprint(training))
    prepared = []
    for inst, demo in training:
        cost_scale, profit_scale = _instance_scales(inst)
        prepared.append((inst, demo, cost_scale, profit_scale))
        table.letters.update(inst.ids)

    alpha = weights.weight_alpha
    beta = weights.weight_beta
    for ep in range(cfg.episodes):
        if cfg.episodes > 1:
            frac = ep / (cfg.episodes - 1)
        else:
            frac = 1.0
        eps = cfg.epsilon_start + (cfg.epsilon_end - cfg.epsilon_start) * frac
        inst, demo, cost_scale, profit_scale = prepared[int(rng.integers(len(prepared)))]
        state = DEPOT_STATE
        unvisited = sorted(inst.ids)
        order: list[int] = []
        while unvisited:
            if rng.random() < eps:
                action = unvisited[int(rng.integers(len(unvisited)))]
            else:
                action = max(unvisited, key=lambda a: (table.q(state, a), -a))
            leg = edge_cost(_center(inst, state), inst.hotspot(action).center_m)
            reward = (-alpha * leg / cost_scale
                      + beta * inst.hotspot(action).profit_bps / profit_scale)
            unvisited.remove(action)
            order.append(action)
            if unvisited:
                target = reward + cfg.discount * max(
                    table.q(action, a2) for a2 in unvisited)
            else:
                back = edge_cost(inst.hotspot(action).center_m, inst.depot_m)
                reward += -alpha * back / cost_scale
                realized = objective_value(tour_length(order, inst),
                                           sum(inst.hotspot(i).profit_bps
                                               for i in sorted(order)),
                                           weights)
                if abs(realized - demo.objective) <= cfg.match_tolerance * abs(demo.objective):
                    reward += cfg.terminal_bonus
                target = reward
            key = (state, action)
            old = table.values.get(key, 0.0)
            table.values[key] = old + cfg.learning_rate * (target - old)
            state = action
    return table


def construct_word(q: QTable, reference: Word | None, inst: Instance,
                   rng_seed: int, cfg: QTrainConfig) -> Word:
    """Build a test word by softmax sampling over Q rows.

    Letters outside the table score a negative normalized distance from
    the current position; the letter the reference word suggests next
    gets a fixed bonus so the baseline consumes the reference exactly as
    the surprise planner does.
    """
    if not inst.hotspots:
        raise ConfigurationError("empty test instance")
    rng = np.random.default_rng(rng_seed)
    diag = math.hypot(inst.mission.area_side_m, inst.mission.area_side_m)
    succ: dict[int, int] = {}
    first_ref: int | None = None
    if reference is not None and len(reference) > 0:
        letters = reference.letters
        first_ref = letters[0]
        succ = {a: b for a, b in zip(letters, letters[1:])}

    state = DEPOT_STATE
    unvisited = sorted(inst.ids)
    order: list[int] = []
    while unvisited:
        scores = []
        for a in unvisited:
            if a in q.letters:
                s = q.q(state, a)
            else:
                s = -edge_cost(_center(inst, state),
                               inst.hotspot(a).center_m) / diag
            hint = first_ref if state == DEPOT_STATE else succ.get(state)
            if hint == a:
                s += cfg.reference_bonus
            scores.append(s)
        if cfg.temperature <= 1e-9:
            k = int(np.argmax(scores))
        else:
            arr = np.array(scores) / cfg.temperature
            arr -= arr.max()
            p = np.exp(arr)
            p /= p.sum()
            k = int(rng.choice(len(unvisited), p=p))
        action = unvisited.pop(k)
        order.append(action)
        state = action
    return Word.from_letters(order)


def qtable_to_dict(q: QTable, cfg: QTrainConfig,
                   weights: ObjectiveWeights) -> dict:
    return {
        "schema": "uavplan.qtable.v1",
        "values": [[s, a, v] for (s, a), v in sorted(q.values.items())],
        "letters": sorted(q.letters),
        "fingerprint": q.fingerprint,
        "config": asdict(cfg),
        "weights": asdict(weights),
    }


def qtable_from_dict(d: dict) -> QTable:
    return QTable(
        values={(int(s), int(a)): float(v) for s, a, v in d["values"]},
        letters=set(int(x) for x in d["letters"]),
        fingerprint=str(d.get("fingerprint", "")),
    )
