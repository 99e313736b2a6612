"""Self-supervised UAV route planning over wireless hotspots.

An offline profit-aware tour optimizer demonstrates solutions; a
dictionary world model (letters, words, transition matrix) is learned
from them; an online planner then solves unseen instances by inserting
new hotspots where the expected surprise of the predicted mission
outcome is smallest. A tabular Q-learning baseline and a seeded
experiment harness reproduce the comparison protocol.
"""

from .environment import (ChannelParams, Hotspot, Instance, MissionConfig,
                          channel_gain, edge_cost, hotspot_sum_rate,
                          los_probability, sample_instance, sample_pool)
from .errors import (ConfigurationError, ConsistencyError, DegenerateWordError,
                     NumericError, TrainingError, UavplanError)
from .harness import (ExperimentConfig, MetricsRecord, completion_time,
                      run_pipeline, word_similarity)
from .oracle import ObjectiveWeights, Tour, brute_force, solve
from .planner import (GaussianBelief, PlanCandidate, PlanContext, PlanResult,
                      PlannerConfig, classify_letters, expected_surprise,
                      generate_words, insert_best, levenshtein, plan_mission,
                      select_reference)
from .ql import QTable, QTrainConfig, construct_word, train_q
from .world_model import (NoiseConfig, TransitionMatrix, Word, WorldModel,
                          learn, merge_global, word_from_tour)

__version__ = "0.1.0"
