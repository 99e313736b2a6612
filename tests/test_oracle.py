import inspect
import json
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavplan import oracle
from uavplan.environment import (Hotspot, _canonical_json, edge_cost,
                                 sample_instance, sample_pool)
from uavplan.errors import ConfigurationError, ConsistencyError
from uavplan.oracle import (TOUR_SCHEMA, ObjectiveWeights, Tour, brute_force,
                            demonstrate, make_tour, objective_value, solve,
                            tour_from_dict)

from harness_oracles import tour_to_dict
from oracle_oracles import (nearest_neighbor_construct,
                            reference_tour_from_dict, relative_weights,
                            selection_pass, two_opt)


def random_instance(seed, n, chan, mission, depot=None):
    pool = sample_pool(10_000 + seed, n, 5.0, mission, chan)
    if depot is None:
        rng = np.random.default_rng(20_000 + seed)
        depot = (float(rng.uniform(0, 2000)), float(rng.uniform(0, 2000)))
    return sample_instance(30_000 + seed, pool, n, depot, chan, mission)


class TestWeights:
    def test_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            ObjectiveWeights(0.9, 0.2)

    def test_range_checked(self):
        with pytest.raises(ConfigurationError):
            ObjectiveWeights(1.5, -0.5)

    def test_scaled_arithmetic(self):
        # cost 100 scaled to 1.0, profit 50 scaled to 0.5
        w = ObjectiveWeights(0.9, 0.1, cost_scale=100.0, profit_scale=100.0)
        assert objective_value(100.0, 50.0, w) == pytest.approx(0.85, abs=1e-12)

    def test_relative_weights_make_terms_order_one(self, make_instance):
        inst = make_instance([(100, 0), (0, 100), (50, 50)])
        w = relative_weights(ObjectiveWeights(), inst)
        nn = nearest_neighbor_construct(inst)
        scaled = objective_value(nn.total_cost_m, nn.total_profit_bps, w)
        assert -1.0 <= scaled <= 1.0


class TestObjective:
    def test_empty_tour_zero(self, make_instance, default_weights):
        inst = make_instance([(10, 10)])
        t = make_tour([], inst, default_weights)
        assert t.objective == 0.0

    def test_unknown_vertex_rejected(self, make_instance, default_weights):
        inst = make_instance([(10, 10)])
        with pytest.raises(ConsistencyError):
            make_tour([999], inst, default_weights)
        t = make_tour([1], inst, default_weights)
        inst2 = make_instance([(10, 10)], ids=[2])
        with pytest.raises(ConsistencyError):
            make_tour(t.order, inst2, default_weights)

    def test_cost_recomputation_matches_stored(self, chan, mission, default_weights):
        for s in range(20):
            inst = random_instance(s, 8, chan, mission)
            t = solve(inst, default_weights)
            assert make_tour(t.order, inst, default_weights).total_cost_m \
                == pytest.approx(t.total_cost_m, rel=1e-9)

    def test_repeated_id_rejected(self, make_instance, default_weights):
        inst = make_instance([(10, 10), (20, 10)])
        with pytest.raises(ConsistencyError, match="twice"):
            make_tour([1, 2, 1], inst, default_weights)
        with pytest.raises(ConsistencyError, match="twice"):
            Tour(order=(2, 2), total_cost_m=1.0, total_profit_bps=1.0,
                 objective=1.0)

    @pytest.mark.parametrize("field", ["total_cost_m", "total_profit_bps",
                                       "objective"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_total_rejected(self, field, value):
        totals = {"total_cost_m": 1.0, "total_profit_bps": 1.0,
                  "objective": 1.0, field: value}
        with pytest.raises(ConsistencyError, match="non-finite"):
            Tour(order=(1, 2), **totals)


class TestNearestNeighbor:
    def test_single_hotspot(self, make_instance):
        inst = make_instance([(50, 0)])
        assert nearest_neighbor_construct(inst).order == (1,)

    def test_collinear_forced_order(self, make_instance):
        inst = make_instance([(1, 0), (2, 0), (3, 0)], depot=(0, 0))
        assert nearest_neighbor_construct(inst).order == (1, 2, 3)

    def test_visits_everything(self, chan, mission):
        inst = random_instance(3, 12, chan, mission)
        t = nearest_neighbor_construct(inst)
        assert sorted(t.order) == sorted(inst.ids)

    def test_not_better_than_brute_force(self, chan, mission, default_weights):
        inst = random_instance(4, 8, chan, mission)
        nn = make_tour(nearest_neighbor_construct(inst).order, inst, default_weights)
        bf = brute_force(inst, default_weights)
        assert nn.total_cost_m >= bf.total_cost_m - 1e-9


class TestTwoOpt:
    def test_uncrosses_unit_square(self, make_instance, default_weights):
        # corners A(0,0) B(1,0) C(1,1) D(0,1); crossing order A,C,B,D
        inst = make_instance([(0, 0), (1, 0), (1, 1), (0, 1)], depot=(0, 0))
        crossed = make_tour([1, 3, 2, 4], inst, default_weights)
        fixed = two_opt(crossed, default_weights, inst)
        assert fixed.total_cost_m == pytest.approx(4.0, abs=1e-12)

    def test_fixed_point_unchanged(self, make_instance, default_weights):
        inst = make_instance([(0, 0), (1, 0), (1, 1), (0, 1)], depot=(0, 0))
        best = make_tour([1, 2, 3, 4], inst, default_weights)
        again = two_opt(best, default_weights, inst)
        assert again.order == best.order

    def test_matches_brute_force_on_most_small_instances(self, chan, mission,
                                                         default_weights):
        hits = 0
        for s in range(100):
            inst = random_instance(100 + s, 7, chan, mission)
            bf = brute_force(inst, default_weights)
            t = two_opt(nearest_neighbor_construct(inst), default_weights, inst)
            if abs(t.objective - bf.objective) <= 1e-9 * abs(bf.objective):
                hits += 1
        assert hits >= 90

    def test_never_increases_objective(self, chan, mission, default_weights):
        rng = np.random.default_rng(8)
        for s in range(30):
            inst = random_instance(200 + s, 9, chan, mission)
            order = list(inst.ids)
            rng.shuffle(order)
            start = make_tour(order, inst, default_weights)
            assert two_opt(start, default_weights, inst).objective \
                <= start.objective + 1e-9

    def test_indifferent_when_cost_weight_zero(self, make_instance):
        inst = make_instance([(0, 0), (1, 0), (1, 1), (0, 1)], depot=(0, 0))
        w = ObjectiveWeights(0.0, 1.0)
        crossed = make_tour([1, 3, 2, 4], inst, w)
        assert two_opt(crossed, w, inst).order == crossed.order


class TestSelectionPass:
    def test_pure_cost_drops_far_outlier(self, make_instance):
        w = ObjectiveWeights(1.0, 0.0)
        inst = make_instance([(10, 0), (0, 10), (5000, 5000)], depot=(0, 0))
        t = solve(inst, w)
        assert t.order == ()  # alpha=1: every visit costs, nothing pays

    def test_only_the_outlier_is_dropped_when_profit_matters(self, make_instance):
        # near hotspots pay for their detours, the outlier does not
        w = ObjectiveWeights(0.5, 0.5)
        inst = make_instance([(10, 0), (0, 10), (5000, 5000)],
                             profits=[100.0, 100.0, 100.0], depot=(0, 0))
        t = solve(inst, w)
        assert sorted(t.order) == [1, 2]

    def test_pure_profit_never_drops(self, make_instance):
        w = ObjectiveWeights(0.0, 1.0)
        inst = make_instance([(10, 0), (0, 10), (5000, 5000)], depot=(0, 0))
        t = selection_pass(solve(inst, w), w, inst)
        assert sorted(t.order) == [1, 2, 3]

    def test_default_weights_retain_all(self, chan, mission, default_weights):
        # raw-unit profits dwarf travel costs, so skipping never pays
        for s in range(25):
            inst = random_instance(300 + s, 6, chan, mission)
            t = solve(inst, default_weights)
            assert sorted(t.order) == sorted(inst.ids)

    def test_idempotent(self, chan, mission, default_weights):
        inst = random_instance(7, 8, chan, mission)
        once = selection_pass(solve(inst, default_weights), default_weights, inst)
        twice = selection_pass(once, default_weights, inst)
        assert once.order == twice.order

    def test_dropping_only_helps(self, chan, mission):
        # removing the pass can only keep the objective equal or worse
        w = ObjectiveWeights(1.0, 0.0)
        for s in range(10):
            inst = random_instance(400 + s, 7, chan, mission)
            base = two_opt(nearest_neighbor_construct(inst), w, inst)
            passed = selection_pass(base, w, inst)
            assert passed.objective <= base.objective + 1e-12


class TestSolve:
    def test_five_hotspot_training_shape(self, chan, mission, default_weights):
        inst = random_instance(11, 5, chan, mission)
        t = solve(inst, default_weights)
        construction = make_tour(nearest_neighbor_construct(inst).order,
                                 inst, default_weights)
        assert len(t.order) <= 5
        assert t.objective <= construction.objective + 1e-12

    def test_two_hotspots_tie_broken_to_lower_first_id(self, make_instance,
                                               default_weights):
        # both orders cost the same; canonical orientation starts at id 1
        inst = make_instance([(100, 0), (0, 80)], depot=(0, 0))
        assert solve(inst, default_weights).order == (1, 2)

    def test_deterministic(self, chan, mission, default_weights):
        inst = random_instance(12, 9, chan, mission)
        assert solve(inst, default_weights) == solve(inst, default_weights)

    def test_close_to_brute_force_on_8_node_instances(self, chan, mission,
                                                      default_weights):
        within = 0
        for s in range(60):
            inst = random_instance(500 + s, 8, chan, mission)
            bf = brute_force(inst, default_weights)
            st = solve(inst, default_weights)
            if (st.objective - bf.objective) <= 0.02 * abs(bf.objective):
                within += 1
        assert within >= 57  # 95%


class TestDemonstrate:
    """``demonstrate`` checks each block of demonstrations as ``Tour``
    checks a tour, and names the demonstration that fails."""

    def test_a_repeated_index_is_refused(self):
        final = np.array([[0, 1, 2], [2, 0, 2]])
        totals = [np.array([10.0, 12.0])] * 3
        with pytest.raises(ConsistencyError, match=(
                r"^demonstration 7, order \[13, 11, 13\], visits a hotspot "
                r"twice: cost_m 12\.0, profit_bps 12\.0, objective 12\.0$")):
            oracle._check_block(np.array([4, 7]), final,
                                np.sort(final, axis=1),
                                np.array([11, 12, 13]), *totals)

    @pytest.mark.parametrize("cost,profit,scale", [
        (math.inf, 1.0, 1.0), (math.nan, 1.0, 1.0), (1.0, math.inf, 1.0),
        (1.0, math.nan, 1.0), (1e308, 1.0, 1e-10)])
    def test_a_non_finite_total_is_refused(self, cost, profit, scale):
        """A cost or a profit that is not finite, or an objective that
        overflows from finite ones (at a tiny cost scale), is refused,
        naming the demonstration."""
        w = ObjectiveWeights(cost_scale=scale)
        costs, profits = np.array([1.0, cost]), np.array([2.0, profit])
        with np.errstate(over="ignore", invalid="ignore"):
            objective = objective_value(costs, profits, w)
        with pytest.raises(ConsistencyError, match=(
                r"^demonstration 3, order \[12, 11\], has a non-finite "
                r"total: ")):
            oracle._check_block(np.array([5, 3]), np.array([[0, 1], [1, 0]]),
                                np.array([[0, 1], [0, 1]]),
                                np.array([11, 12]), costs, profits,
                                objective)

    def test_an_overflowing_profit_is_refused(self, default_weights):
        """Two hotspots whose profits are finite alone but sum to inf: each
        alone is solved, and the demonstration that visits both is named,
        by its row, after a row whose sum stays finite."""
        pool = [Hotspot(id=i, center_m=(100.0 * i, 0.0), num_users=1,
                        profit_bps=p)
                for i, p in ((1, 1.0), (2, 1e308), (3, 1e308))]
        alone = demonstrate(pool, (0.0, 0.0), np.array([[0], [1], [2]]),
                            default_weights)
        assert list(alone.profit_bps)[1:] == [1e308, 1e308]
        with pytest.raises(ConsistencyError, match=(
                r"^demonstration 1, order \[2, 3\], has a non-finite total: "
                r"cost_m .*, profit_bps inf, objective -inf$")):
            demonstrate(pool, (0.0, 0.0), np.array([[0, 1], [1, 2]]),
                        default_weights)


class TestTable:
    def test_one_array_of_edge_costs(self, chan, mission):
        """``_table`` of a 300-hotspot pool is one float64 array, filled in
        place: its traced peak stays under 1.5 times the array's bytes,
        which neither a nested list of its entries nor a second array
        would; and each entry ``[a, b]``, in both triangles, is
        ``edge_cost`` of the lower-id point and the higher-id one, the
        depot counting as the highest id."""
        pool = sample_pool(29, 300, 5.0, mission, chan)
        depot = (1000.0, 1000.0)
        tracemalloc.start()
        try:
            table = oracle._table(pool, depot)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.dtype == np.float64
        assert peak < 1.5 * table.nbytes
        pts = [h.center_m for h in pool] + [depot]
        want = [[edge_cost(pts[min(a, b)], pts[max(a, b)])
                 for b in range(len(pts))] for a in range(len(pts))]
        assert table.tobytes() == np.array(want).tobytes()


class TestBruteForce:
    def test_single_hotspot_visit_decision(self, make_instance):
        # profit term must beat the round-trip cost term
        w = ObjectiveWeights(0.5, 0.5)
        worth = make_instance([(10, 0)], profits=[100.0], depot=(0, 0))
        assert brute_force(worth, w).order == (1,)
        not_worth = make_instance([(10, 0)], profits=[1.0], depot=(0, 0))
        assert brute_force(not_worth, w).order == ()

    def test_equilateral_tie_lexicographic(self, make_instance, default_weights):
        r = 100.0
        pts = [(r * np.cos(a), r * np.sin(a))
               for a in (0, 2 * np.pi / 3, 4 * np.pi / 3)]
        inst = make_instance(pts, depot=(0, 0))
        assert brute_force(inst, default_weights).order == (1, 2, 3)

    def test_dominates_solve(self, chan, mission, default_weights):
        for s in range(30):
            inst = random_instance(600 + s, 6, chan, mission)
            bf = brute_force(inst, default_weights)
            st = solve(inst, default_weights)
            assert bf.objective <= st.objective + 1e-9 * abs(st.objective)

    def test_size_limit(self, chan, mission, default_weights):
        inst = random_instance(13, 11, chan, mission)
        with pytest.raises(ConfigurationError):
            brute_force(inst, default_weights)


class TestTourSerialization:
    def test_round_trip(self, chan, mission, default_weights):
        inst = random_instance(14, 6, chan, mission)
        t = solve(inst, default_weights)
        assert tour_from_dict(tour_to_dict(t, default_weights)) == t

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 9),
           alpha=st.floats(0.0, 1.0))
    def test_reads_as_the_reference(self, chan, mission, seed, n, alpha):
        """A tour from ``solve``, as ``tours/`` holds it, is the same
        ``Tour`` through the checked reader and the casting reference, and
        is the tour solved."""
        w = ObjectiveWeights(alpha, 1.0 - alpha)
        t = solve(random_instance(seed, n, chan, mission), w)
        d = json.loads(_canonical_json({"schema": TOUR_SCHEMA, **vars(t),
                                        "weights": w}))
        assert tour_from_dict(d) == reference_tour_from_dict(d) == t

    TOUR = {"schema": TOUR_SCHEMA, "order": [3, 1, 2], "total_cost_m": 12.5,
            "total_profit_bps": 4.0, "objective": 1.0,
            "weights": asdict(ObjectiveWeights())}

    @pytest.mark.parametrize("edit,named", [
        pytest.param(lambda d: d.update(order=["3", True, 2.9]),
                     'tour key order.0 must be of type int, not "3"',
                     id="order-string-bool-fraction"),
        pytest.param(lambda d: d.update(order=[3, True, 2]),
                     "tour key order.1 must be of type int, not true",
                     id="order-bool"),
        pytest.param(lambda d: d.update(order=[3, 1, 2.9]),
                     "tour key order.2 must be of type int, not 2.9",
                     id="order-fraction"),
        pytest.param(lambda d: d.update(total_cost_m="12.5"),
                     'tour key total_cost_m must be of type float, not "12.5"',
                     id="total-string"),
        pytest.param(lambda d: d.update(extra=1), "unknown tour key extra",
                     id="unknown-key"),
        pytest.param(lambda d: d.update(schema="uavplan.instance.v1"),
                     "unsupported tour schema 'uavplan.instance.v1'",
                     id="other-schema"),
        pytest.param(lambda d: d.pop("schema"), "unsupported tour schema None",
                     id="no-schema"),
        pytest.param(lambda d: d.pop("weights"), "tour key weights is missing",
                     id="no-weights")])
    def test_refuses_what_the_reference_took(self, edit, named):
        """Each damage that the casting reference read as a tour is refused,
        naming the dotted key."""
        d = json.loads(json.dumps(self.TOUR))
        edit(d)
        assert isinstance(reference_tour_from_dict(d), Tour)
        with pytest.raises(ConfigurationError) as e:
            tour_from_dict(d)
        assert str(e.value) == named


class TestBenchmarkContracts:
    """The benchmark's tracer wraps every public oracle function in a timed
    span, and counts calls by patching ``Instance.hotspot`` and
    ``GaussianBelief.__post_init__`` (its own tests build a belief with
    ``GaussianBelief.zero``). A new public oracle helper would put a span
    inside the search loops; a missing patch target would stop the
    benchmark."""

    PUBLIC = ("brute_force", "demonstrate", "make_tour", "objective_value",
              "solve", "tour_from_dict")

    def test_public_functions_unchanged(self):
        from uavplan import oracle
        public = sorted(
            name for name, value in vars(oracle).items()
            if inspect.isfunction(value)
            and value.__module__ == oracle.__name__
            and not name.startswith("_"))
        assert public == sorted(self.PUBLIC)

    def test_patched_attributes_exist(self):
        from uavplan import environment, planner
        assert inspect.isfunction(vars(environment.Instance)["hotspot"])
        assert inspect.isfunction(vars(planner.GaussianBelief)["__post_init__"])
        assert planner.GaussianBelief.zero().mean.tolist() == [0.0, 0.0]
