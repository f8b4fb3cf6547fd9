"""Instance files: the dumps/loads round trip, problem reporting, strict keys
and the bytes of the result-record writer."""

import gc
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bicrit import CostFunction, InverseDemand, MarketInstance, cli, instances
from bicrit.instances import InstanceFormatError
from conftest import reference_dump_record


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


def test_tabulated_ceiling_and_scale_must_match_the_curve(mixed_instance):
    for field, value, problem in (
        ("support_ceiling", 5.0, "support_ceiling 5.0 is not the tabulated curve's last x 1.0"),
        ("scale", 3.0, "scale 3.0 must be 0 for a tabulated curve"),
    ):
        doc = _doc(mixed_instance)
        doc["buyer_types"][2]["demand"][field] = value
        with pytest.raises(InstanceFormatError) as exc:
            instances.loads(json.dumps(doc), strict=True)
        assert exc.value.problems == [f"buyer_types[2].demand: {problem}"]
    # Within 1e-9 relative of the last x the stated ceiling is kept.
    doc["buyer_types"][2]["demand"].update(scale=0.0, support_ceiling=1.0 + 1e-12)
    assert instances.loads(json.dumps(doc)).buyer_types[2].demand.support_ceiling == 1.0 + 1e-12


@pytest.mark.parametrize("y_break", [1e200, 1e-200])
def test_cost_whose_breakpoint_powers_leave_the_float_range_is_named(mixed_instance, y_break, tmp_path, capsys):
    doc = _doc(mixed_instance)
    doc["goods"][1]["cost"]["breakpoints"] = [[y_break, 2.0]]
    infile = tmp_path / "instance.json"
    infile.write_text(json.dumps(doc))
    out = str(tmp_path / "out.json")
    assert cli.main(["solve-welfare", "--in", str(infile), "--out", out]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"goods[1].cost: breakpoint {y_break!r}: the piece powers leave the float range" in err


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


def _near(value):
    """Floats within a factor of ten of value, either sign."""
    magnitudes = st.floats(value / 10.0, value * 10.0)
    return magnitudes | magnitudes.map(lambda v: -v)


_FLOATS = (
    st.floats()  # subnormals, infinities and NaN included
    | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 9.999999999995, -9.9999999999995e-6])
    | _near(1e-5)  # repr switches to exponent form below 1e-4 ...
    | _near(1e16)  # ... and at 1e16
)
_LEAVES = (
    _FLOATS
    | _FLOATS.map(np.float64)
    | st.integers()
    | st.booleans()
    | st.none()
    | st.text()  # non-ASCII and control characters included
)
_RECORDS = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=5),
    max_leaves=30,
)


@given(_RECORDS)
@example({"a": 0.0, "b": -0.0, "c": [-0.0, 0.0, (), {}, []]})
@example({"a": [1.0000000000005, 9.999999999995, 1e16, 9999999999999998.0, 1e-5, 9.99999999999999e-6]})
@settings(max_examples=300, deadline=None)
def test_dump_record_writes_the_reference_bytes(record):
    assert instances.dump_record(record) == reference_dump_record(record)


@pytest.mark.parametrize("record", [
    {1: 0.5},
    {"a": {None: 0.5}},
    {"a": np.int64(3)},
    [1.5, np.int64(1)],
    {"a": np.array([0.5])},
])
def test_dump_record_refuses_non_string_keys_and_non_json_values(record):
    with pytest.raises(TypeError):
        instances.dump_record(record)


def test_dump_record_leaves_no_cyclic_garbage():
    # A recursive helper written as a closure is a reference cycle per call,
    # freed only by the cyclic collector: over a 25-s mm-ladder benchmark run
    # that raised peak RSS by about 1 MB.
    gc.collect()
    gc.disable()
    try:
        instances.dump_record({"a": [0.5, {"b": 1.5, "c": ["x", None]}]})
        assert gc.collect() == 0
    finally:
        gc.enable()
