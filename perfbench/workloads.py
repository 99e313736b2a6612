"""The benchmark's workloads and the configs generated from a workload seed.

Each workload is a closed loop: one `uavplan pipeline` process at a time
runs every stage in order, and the next repetition starts only after the
previous one has exited. All run at workers=1; the traced run of each
also runs its inputs once at workers=2 (see run.py), which measures the
process-pool dispatch in harness without a workload of its own.

A run makes several repetitions, each on its own inputs: the program
receives only the generated config file, and every seed in it
(pool, training instances, test instances, Q-learning, planner) is
derived from the workload seed and the repetition number by
``derive_seed``. So one seed gives the same inputs, and the same
metrics.csv bytes, on every run and commit, while the run's figures
average over several hotspot pools rather than resting on one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

SEEDED_FIELDS = ("pool_seed", "train_seed_base", "test_seed_base",
                 "ql_train_seed", "planner.rng_seed")


def derive_seed(seed: int, field: str) -> int:
    """A per-field seed below 10**9, stable across Python versions."""
    digest = hashlib.sha256(f"uavplan-bench:{seed}:{field}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % 1_000_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    m_training: int
    test_sizes: tuple[int, ...]
    seeds_per_size: int
    workers: int
    # Seconds one repetition takes at the reference host speed (run.py).
    # A run makes round(--seconds / rep_s) repetitions, at least one: its
    # inputs, and the sample count of the pooled tail percentile, follow
    # from --seconds and never from how fast the host happens to be.
    rep_s: float

    def reps(self, seconds: float) -> int:
        return max(1, round(seconds / self.rep_s))

    @property
    def instances(self) -> int:
        return len(self.test_sizes) * self.seeds_per_size

    def config(self, seed: int, rep: int, output_dir: str) -> dict:
        """The experiment config of repetition ``rep`` for ``seed``;
        everything not set here is the program's default."""
        seeds = {f: derive_seed(seed, f"{self.name}:{rep}:{f}") for f in SEEDED_FIELDS}
        return {
            "pool_seed": seeds["pool_seed"],
            "m_training": self.m_training,
            "train_seed_base": seeds["train_seed_base"],
            "test_sizes": list(self.test_sizes),
            "seeds_per_size": self.seeds_per_size,
            "test_seed_base": seeds["test_seed_base"],
            "ql_train_seed": seeds["ql_train_seed"],
            "planner": {"rng_seed": seeds["planner.rng_seed"]},
            "output_dir": output_dir,
            "workers": self.workers,
        }

    def tiny(self) -> "Workload":
        """The same workload shape at a scale for tests: just enough test
        instances (11) for a tail percentile."""
        return replace(self, m_training=40,
                       seeds_per_size=-(-11 // len(self.test_sizes)))


# The two workloads are each other's control: a faster insert_best should
# move plan-large and leave train-large alone; a faster select_reference
# should move train-large far more than plan-large. Planning cost depends
# on the pool (which hotspots the demos make known letters), so a run
# spreads its instances over several pools: five of nine instances each on
# plan-large, three of 36 on train-large, whose set-up costs more.
PLAN_LARGE = Workload(
    name="plan-large",
    why="30-50 hotspot test instances: planning time is mostly surprise "
        "insertion (planner.insert_best) and the oracle shows in eval.",
    m_training=5000, test_sizes=(30, 40, 50), seeds_per_size=3, workers=1,
    rep_s=8.0)

TRAIN_LARGE = Workload(
    name="train-large",
    why="20000 demos: set-up (sampling, oracle, world model, Q-learning) "
        "dominates and reference selection runs on a 4x larger dictionary.",
    m_training=20000, test_sizes=(5,), seeds_per_size=36, workers=1,
    rep_s=15.5)

WORKLOADS = {w.name: w for w in (PLAN_LARGE, TRAIN_LARGE)}
