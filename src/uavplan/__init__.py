"""Self-supervised UAV route planning over wireless hotspots.

An offline profit-aware tour optimizer demonstrates solutions; a
dictionary world model (letters, words, transition matrix) is learned
from them; an online planner then solves unseen instances by inserting
new hotspots where the expected surprise of the predicted mission
outcome is smallest. A tabular Q-learning baseline and a seeded
experiment harness reproduce the comparison protocol.

The package root binds no names: import them from their modules
(``uavplan.planner``, ``uavplan.harness``, ...). The version is
``pyproject.toml``'s.
"""
