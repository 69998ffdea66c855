"""Causal geometry, feasibility validation, and code selection."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvrep.replication import (
    BUILTIN_CONFIGURATIONS,
    CausalDiamond,
    Configuration,
    SpacetimePoint,
    builtin_configuration,
    causal_graph,
    causal_leq,
    configuration_from_json,
    diamonds_related,
    find_chain,
    load_configuration,
    select_code,
    validate,
)

from oracles import boost_point, leq_oracle, related_oracle


def P(t, *x):
    return SpacetimePoint(t, tuple(x))


coords = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


def _points(draw_t1, draw_x1, draw_t2, draw_x2, dim):
    a = SpacetimePoint(draw_t1, tuple(draw_x1[:dim]))
    b = SpacetimePoint(draw_t2, tuple(draw_x2[:dim]))
    return a, b


# ---------------------------------------------------------------------------
# points and the causal order
# ---------------------------------------------------------------------------


def test_point_validation():
    with pytest.raises(ValueError):
        SpacetimePoint(0.0, ())
    with pytest.raises(ValueError):
        SpacetimePoint(float("inf"), (0.0,))
    with pytest.raises(ValueError):
        SpacetimePoint(0.0, (float("nan"),))
    assert P(1, 2, 3).dim == 2
    assert P(1, 2).x == (2.0,)


def test_causal_leq_basics():
    assert causal_leq(P(0, 0), P(1, 0.5))  # timelike
    assert causal_leq(P(0, 0), P(1, 1))  # lightlike counts
    assert not causal_leq(P(0, 0), P(1, 2))  # spacelike
    assert not causal_leq(P(1, 0), P(0, 0))  # backwards in time
    assert causal_leq(P(2, 3), P(2, 3))  # reflexive


def test_causal_leq_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        causal_leq(P(0, 0), P(1, 0, 0))


@given(
    t1=coords, t2=coords, t3=coords,
    x1=st.tuples(coords, coords), x2=st.tuples(coords, coords), x3=st.tuples(coords, coords),
)
@settings(max_examples=200, deadline=None)
def test_causal_leq_matches_the_oracle_and_is_transitive(t1, t2, t3, x1, x2, x3):
    a, b, c = P(t1, *x1), P(t2, *x2), P(t3, *x3)
    assert causal_leq(a, b) == leq_oracle(t1, x1, t2, x2)
    # transitive up to slack: with exact (slack-free) relations on both legs,
    # the composite must hold with the library's default slack
    if leq_oracle(t1, x1, t2, x2, slack=0.0) and leq_oracle(t2, x2, t3, x3, slack=0.0):
        assert causal_leq(a, c)


@given(
    t1=coords, t2=coords,
    x1=st.tuples(coords, coords), x2=st.tuples(coords, coords),
    beta=st.floats(min_value=-0.9, max_value=0.9),
)
@settings(max_examples=200, deadline=None)
def test_causal_leq_is_boost_invariant(t1, t2, x1, x2, beta):
    # strict (non-borderline) relations survive any subluminal boost
    dt = t2 - t1
    dr = float(np.hypot(x2[0] - x1[0], x2[1] - x1[1]))
    if abs(dt - dr) < 1e-6:
        return  # borderline lightlike: rounding may flip it either way
    bt1, bx1 = boost_point(t1, x1, beta)
    bt2, bx2 = boost_point(t2, x2, beta)
    assert causal_leq(P(bt1, *bx1), P(bt2, *bx2)) == causal_leq(P(t1, *x1), P(t2, *x2))


# ---------------------------------------------------------------------------
# diamonds and relatedness
# ---------------------------------------------------------------------------


def test_diamond_validation():
    with pytest.raises(ValueError, match="precede"):
        CausalDiamond(P(1, 0), P(0, 0))
    with pytest.raises(ValueError, match="dimension"):
        CausalDiamond(P(0, 0), P(1, 0, 0))
    d = CausalDiamond(P(0, 0), P(2, 1))
    assert d.dim == 1


def test_a_diamond_is_related_to_itself():
    d = CausalDiamond(P(0, 0), P(1, 0))
    assert diamonds_related(d, d)


def test_relatedness_is_symmetric_and_matches_the_sampled_oracle(rng):
    for _ in range(40):
        dim = int(rng.integers(1, 4))
        def rand_diamond():
            y_t = float(rng.uniform(-5, 5))
            y_x = tuple(float(v) for v in rng.uniform(-5, 5, size=dim))
            dt = float(rng.uniform(0, 4))
            # exit within the future cone of the entry
            step = rng.uniform(-1, 1, size=dim)
            norm = float(np.linalg.norm(step))
            if norm > 0:
                step = step / norm * rng.uniform(0, 0.99) * dt
            z = SpacetimePoint(y_t + dt, tuple(float(a + b) for a, b in zip(y_x, step)))
            return CausalDiamond(SpacetimePoint(y_t, y_x), z)

        d1, d2 = rand_diamond(), rand_diamond()
        got = diamonds_related(d1, d2)
        assert got == diamonds_related(d2, d1)
        assert got == related_oracle(rng, d1, d2, n_pairs=400)


def test_two_diamonds_far_apart_are_unrelated():
    d1 = CausalDiamond(P(0, -10), P(1, -10))
    d2 = CausalDiamond(P(0, 10), P(1, 10))
    assert not diamonds_related(d1, d2)


# ---------------------------------------------------------------------------
# configurations and validation
# ---------------------------------------------------------------------------


def test_configuration_validation():
    d = CausalDiamond(P(0, 0), P(1, 0))
    with pytest.raises(ValueError, match="at least two"):
        Configuration(P(-1, 0), (d,))
    with pytest.raises(ValueError, match="mixed spatial dimensions"):
        Configuration(P(-1, 0, 0), (d, d))


def test_repeated_future_diamond_validates():
    # Relatedness is reflexive, so listing one reachable diamond twice is the
    # smallest configuration that passes both feasibility conditions.
    d = CausalDiamond(P(1, 0), P(2, 0))
    report = validate(Configuration(P(0, 0), (d, d)))
    assert report.valid
    assert report.violations == ()


def test_builtin_feasible_configurations():
    for name in ("fig2a", "fig2b", "fig4"):
        report = validate(builtin_configuration(name))
        assert report.valid, name


def test_builtin_infeasible_configuration_names_the_pair():
    report = validate(builtin_configuration("fig2c"))
    assert not report.valid
    assert [v.kind for v in report.violations] == ["unrelated-pair"]
    assert report.violations[0].diamonds == (2, 3)
    assert "2 and 3" in str(report.violations[0])


def test_unreachable_start_is_reported_per_diamond():
    config = Configuration(
        P(0, 0),
        (
            CausalDiamond(P(1, 0), P(2, 0)),
            CausalDiamond(P(0.0, 50.0), P(0.5, 50.0)),
        ),
    )
    report = validate(config)
    kinds = [(v.kind, v.diamonds) for v in report.violations]
    assert ("start-unreachable", (2,)) in kinds
    assert "before it closes" in str(report.violations[0])


def test_violation_json_form():
    report = validate(builtin_configuration("fig2c"))
    assert report.violations[0].as_json() == {"kind": "unrelated-pair", "diamonds": [2, 3]}


def test_unknown_builtin_rejected():
    with pytest.raises(ValueError, match="unknown built-in"):
        builtin_configuration("fig9")
    assert set(BUILTIN_CONFIGURATIONS) == {"fig2a", "fig2b", "fig2c", "fig4"}


# ---------------------------------------------------------------------------
# causal graph and chains
# ---------------------------------------------------------------------------


def test_fig4_graph_is_complete_with_a_chain():
    config = builtin_configuration("fig4")
    edges = causal_graph(config)
    assert len(edges) == 6  # every pair of the four diamonds related
    assert find_chain(config) == (2, 1, 3)


def test_chain_absent_for_mutually_simultaneous_diamonds():
    # four long parallel diamonds, all entries simultaneous and all exits
    # simultaneous: no diamond closes before another's exit... except every
    # pair IS related, and z_j <= z_k holds at equal times, so the chain
    # exists.  Push every exit strictly before the others' entries instead.
    config = Configuration(
        P(-10, 0),
        (
            CausalDiamond(P(0, -3), P(0.2, -3)),
            CausalDiamond(P(0, -1), P(0.2, -1)),
            CausalDiamond(P(0, 1), P(0.2, 1)),
            CausalDiamond(P(0, 3), P(0.2, 3)),
        ),
    )
    # short, spacelike-separated diamonds: nothing relays anywhere
    assert find_chain(config) is None


def test_select_code_prefers_five_mode_for_chained_quadruples():
    code = select_code(builtin_configuration("fig4"))
    assert code.n_modes == 5


def test_select_code_falls_back_to_the_general_four_region_code():
    # perturb fig4 so diamond 1 closes too late to relay: chain disappears,
    # pairwise relatedness survives
    base = builtin_configuration("fig4")
    moved = CausalDiamond(base.diamonds[0].y, SpacetimePoint(1.5, (1.9, 0.0)))
    config = Configuration(base.start, (moved,) + base.diamonds[1:])
    assert validate(config).valid
    assert find_chain(config) is None
    code = select_code(config)
    assert code.n_modes == 6  # general 4-region code: one mode per edge


def test_select_code_uses_the_general_code_for_five_regions(rng):
    # five diamonds on one timelike worldline are pairwise related
    ds = tuple(
        CausalDiamond(P(2.0 * k, 0), P(2.0 * k + 1.0, 0)) for k in range(5)
    )
    code = select_code(Configuration(P(-1, 0), ds))
    assert code.n_modes == 10  # C(5,2) edges


def test_select_code_rejects_infeasible_and_small_configurations():
    with pytest.raises(ValueError, match="infeasible"):
        select_code(builtin_configuration("fig2c"))
    with pytest.raises(ValueError, match="at least 4"):
        select_code(builtin_configuration("fig2a"))


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def config_as_dict(config: Configuration) -> dict:
    return {
        "dim": config.dim,
        "start": [config.start.t, *config.start.x],
        "diamonds": [
            {"y": [d.y.t, *d.y.x], "z": [d.z.t, *d.z.x]} for d in config.diamonds
        ],
    }


def test_configuration_from_json_round_trips_the_builtins():
    for name, make in BUILTIN_CONFIGURATIONS.items():
        config = make()
        rebuilt = configuration_from_json(config_as_dict(config))
        assert rebuilt == config, name


def test_load_configuration_reads_a_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_as_dict(builtin_configuration("fig4"))))
    config = load_configuration(path)
    assert config == builtin_configuration("fig4")
    assert select_code(config).n_modes == 5


def test_json_errors_are_specific():
    good = config_as_dict(builtin_configuration("fig2a"))

    missing = dict(good)
    del missing["start"]
    with pytest.raises(ValueError, match="missing key 'start'"):
        configuration_from_json(missing)

    short_point = dict(good)
    short_point["start"] = [0.0]
    with pytest.raises(ValueError, match="start must have 2 entries"):
        configuration_from_json(short_point)

    bad_diamond = json.loads(json.dumps(good))
    bad_diamond["diamonds"][0]["y"] = [0.0, 1.0, 2.0]
    with pytest.raises(ValueError, match="diamond 1 y"):
        configuration_from_json(bad_diamond)


DIAMOND = {"y": [0.0, 0.0], "z": [1.0, 0.0]}


@pytest.mark.parametrize(
    "config, message",
    [
        ([1], "the configuration must be an object, got list"),
        ({"dim": 1, "start": [0.0, 0.0], "diamonds": DIAMOND}, "diamonds must be a list, got dict"),
        ({"dim": 1, "start": [0.0, 0.0], "diamonds": [DIAMOND, [0.0, 1.0]]}, "diamond 2 must be an object, got list"),
        ({"dim": 1, "start": 0.0, "diamonds": [DIAMOND, DIAMOND]}, r"start must be a list \[t, x1..x1\], got float"),
    ],
    ids=["top level", "diamonds", "diamond 2", "start"],
)
def test_json_errors_name_the_part_of_the_wrong_type(config, message):
    # each once leaked Python's own TypeError text ("list indices must be
    # integers or slices, not str", "'float' object is not iterable")
    with pytest.raises(ValueError, match=f"^{message}$"):
        configuration_from_json(config)


@pytest.mark.parametrize("dim", [-1, 0, 1.7, 1.0, True, "1", None])
def test_json_dim_must_be_a_positive_integer(dim):
    # read as int(dim), 1.7 and True became 1 and -1 reached an IndexError
    config = config_as_dict(builtin_configuration("fig2a"))
    config["dim"] = dim
    with pytest.raises(ValueError, match="dim must be an integer >= 1"):
        configuration_from_json(config)
