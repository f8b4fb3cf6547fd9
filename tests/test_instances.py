"""Instance files: the dumps/loads round trip, problem reporting and strict keys."""

import json

import pytest

from bicrit import CostFunction, InverseDemand, MarketInstance, cli, instances
from bicrit.instances import InstanceFormatError


@pytest.fixture
def mixed_instance():
    # Parameters with at most 12 significant digits, so dumps rounds none; the
    # generalized-Pareto curve's support is cut at 50 for the same reason.
    return MarketInstance.create(
        [
            ("g1", CostFunction.power(0.5, 1.25)),
            ("g2", CostFunction.piecewise_power(0.75, 1.5, [(0.5, 2.0)])),
        ],
        [
            ("b1", [["g1"], ["g2"]], InverseDemand.linear(1.0, 0.8)),
            ("b2", [["g1", "g2"]], InverseDemand("generalized-pareto", 1.0, 0.3, 1.2, 50.0)),
            ("b3", [["g2"]], InverseDemand.tabulated([(0.0, 1.0), (0.5, 0.4), (1.0, 0.0)], 0.0)),
        ],
    )


def _doc(inst):
    return json.loads(instances.dumps(inst))


def test_dumps_then_loads_gives_the_same_instance(mixed_instance):
    text = instances.dumps(mixed_instance, metadata={"family": "mixed"})
    loaded = instances.loads(text, strict=True)
    assert loaded == mixed_instance
    assert instances.dumps(loaded, metadata={"family": "mixed"}) == text


def test_save_then_load_gives_the_same_instance(mixed_instance, tmp_path):
    path = tmp_path / "instance.json"
    instances.save(mixed_instance, path)
    assert instances.load(path) == mixed_instance


def test_every_problem_is_reported_at_once(mixed_instance):
    doc = _doc(mixed_instance)
    doc["schema_version"] = "0"
    del doc["goods"][0]["id"]
    doc["goods"][1]["cost"]["family"] = "cubic"
    doc["buyer_types"][0]["demand"] = 5
    doc["buyer_types"][1]["bundles"] = "g1"
    del doc["buyer_types"][2]["demand"]["lambda_max"]
    with pytest.raises(InstanceFormatError) as exc:
        instances.loads(json.dumps(doc))
    problems = exc.value.problems
    assert len(problems) == 6, problems
    for where in ["schema_version", "goods[0]", "goods[1].cost", "buyer_types[0].demand",
                  "buyer_types[1].bundles", "buyer_types[2].demand"]:
        assert any(p.startswith(where + ":") for p in problems), (where, problems)


def test_market_invariants_are_reported_together(mixed_instance):
    doc = _doc(mixed_instance)
    doc["goods"][1]["id"] = "g1"
    doc["buyer_types"][2]["bundles"] = [["g9"]]
    with pytest.raises(InstanceFormatError) as exc:
        instances.loads(json.dumps(doc))
    assert "duplicate good ids" in exc.value.problems
    assert any("unknown goods ['g9']" in p for p in exc.value.problems)


def test_not_json_names_the_position():
    with pytest.raises(InstanceFormatError, match="line 1, column"):
        instances.loads("{goods: []}")


@pytest.mark.parametrize(
    "path, where",
    [
        ((), "top level"),
        (("goods", 0), "goods[0]"),
        (("goods", 1, "cost"), "goods[1].cost"),
        (("buyer_types", 0), "buyer_types[0]"),
        (("buyer_types", 1, "demand"), "buyer_types[1].demand"),
    ],
    ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else None,
)
def test_strict_names_each_unknown_key(mixed_instance, path, where):
    doc = _doc(mixed_instance)
    node = doc
    for key in path:
        node = node[key]
    node["colour"] = "red"
    text = json.dumps(doc)
    assert instances.loads(text) == mixed_instance
    with pytest.raises(InstanceFormatError) as exc:
        instances.loads(text, strict=True)
    assert exc.value.problems == [f"{where}: unknown key 'colour'"]


def test_strict_flag_rejects_unknown_keys_on_the_command_line(mixed_instance, tmp_path, capsys):
    doc = _doc(mixed_instance)
    doc["goods"][0]["colour"] = "red"
    infile = tmp_path / "instance.json"
    infile.write_text(json.dumps(doc))
    out = str(tmp_path / "out.json")
    assert cli.main(["solve-welfare", "--in", str(infile), "--out", out]) == cli.EXIT_OK
    assert cli.main(["solve-welfare", "--in", str(infile), "--out", out, "--strict"]) == cli.EXIT_VALIDATION
    assert "error: goods[0]: unknown key 'colour'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path, value, problem",
    [
        (("buyer_types", 0, "id"), None, "buyer_types[0].id: expected a string, found None"),
        (("goods", 1, "id"), 2, "goods[1].id: expected a string, found 2"),
        (("buyer_types", 1, "demand", "lambda_max"), "1.0",
         "buyer_types[1].demand.lambda_max: expected a number, found '1.0'"),
        (("goods", 0, "cost", "a"), True, "goods[0].cost.a: expected a number, found True"),
        (("goods", 1, "cost", "breakpoints"), 5,
         "goods[1].cost.breakpoints: expected a list of [number, number] pairs"),
        (("buyer_types", 2, "demand", "points"), 5,
         "buyer_types[2].demand.points: expected a list of [number, number] pairs"),
        (("buyer_types", 2, "demand", "points"), [],
         "buyer_types[2].demand: tabulated demand needs at least two points"),
        (("buyer_types", 0, "bundles"), [["g1"], [2]],
         "buyer_types[0].bundles: expected a list of lists of good ids"),
    ],
    ids=["null-id", "number-id", "string-number", "boolean-number", "breakpoints-not-a-list",
         "points-not-a-list", "no-points", "number-good-id-in-bundle"],
)
def test_malformed_field_is_rejected_by_name(mixed_instance, path, value, problem):
    doc = _doc(mixed_instance)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(InstanceFormatError) as exc:
        instances.loads(json.dumps(doc))
    assert exc.value.problems == [problem]


def test_json_integers_load_as_numbers(mixed_instance):
    doc = _doc(mixed_instance)
    doc["goods"][1]["cost"]["breakpoints"] = [[1, 2]]
    doc["buyer_types"][0]["demand"]["lambda_max"] = 1
    doc["buyer_types"][2]["demand"]["points"] = [[0, 1], [1, 0]]
    loaded = instances.loads(json.dumps(doc), strict=True)
    assert loaded.goods[1][1].breakpoints == ((1.0, 2.0),)
    assert loaded.buyer_types[0].demand == mixed_instance.buyer_types[0].demand
    assert loaded.buyer_types[2].demand.points == ((0.0, 1.0), (1.0, 0.0))


def test_tabulated_lambda_max_must_be_the_curve_peak(mixed_instance):
    doc = _doc(mixed_instance)
    doc["buyer_types"][2]["demand"]["lambda_max"] = 2.0
    with pytest.raises(InstanceFormatError) as exc:
        instances.loads(json.dumps(doc))
    assert exc.value.problems == [
        "buyer_types[2].demand: lambda_max 2.0 is not the tabulated curve's peak 1.0"
    ]
    # Within the peak tolerance (1e-9 relative) the stated lambda_max is kept.
    doc["buyer_types"][2]["demand"]["lambda_max"] = 1.0 + 1e-12
    assert instances.loads(json.dumps(doc)).buyer_types[2].demand.lambda_max == 1.0 + 1e-12


@pytest.mark.parametrize(
    "spec, want",
    [
        ({"family": "linear", "scale": 0.8}, InverseDemand.linear(1.0, 0.8)),
        ({"family": "exponential", "scale": 1.5}, InverseDemand.exponential(1.0, 1.5)),
        ({"family": "generalized-pareto", "alpha": 0.0, "scale": 1.2},
         InverseDemand.generalized_pareto(1.0, 0.0, 1.2)),
        ({"family": "generalized-pareto", "alpha": 0.5, "scale": 1.2},
         InverseDemand.generalized_pareto(1.0, 0.5, 1.2)),
        ({"family": "generalized-pareto", "alpha": 1.0, "scale": 1.2},
         InverseDemand.generalized_pareto(1.0, 1.0, 1.2)),
    ],
    ids=["linear", "exponential", "gp-alpha-0", "gp-alpha-0.5", "gp-alpha-1"],
)
def test_demand_without_support_ceiling_loads_as_its_family_constructor(mixed_instance, spec, want):
    doc = _doc(mixed_instance)
    doc["buyer_types"][0]["demand"] = {"lambda_max": 1.0, **spec}
    loaded = instances.loads(json.dumps(doc), strict=True).buyer_types[0].demand
    assert loaded == want


def test_unknown_demand_family_is_named(mixed_instance):
    doc = _doc(mixed_instance)
    doc["buyer_types"][0]["demand"] = {"family": "cubic", "lambda_max": 1.0, "scale": 0.8}
    with pytest.raises(InstanceFormatError) as exc:
        instances.loads(json.dumps(doc))
    assert exc.value.problems == ["buyer_types[0].demand: unknown demand family 'cubic'"]
