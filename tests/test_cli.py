"""Command-line smoke tests on the twin-goods and a two-good bundle instance."""

import json
import logging
import os

import pytest

from bicrit import CostFunction, InverseDemand, MarketInstance, cli, flow, instances, market, multi_minded, unit_demand
from bicrit.solver import SolverConfig, solve_welfare

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


@pytest.fixture
def pair_bundle_instance(linear_demand, quadratic_cost):
    # Bundle size ratio 2, so verify runs a three-rung ladder; the reserve
    # binds on g2 at the last rung.
    return MarketInstance.create(
        [("g1", quadratic_cost), ("g2", quadratic_cost)],
        [("b1", [["g1"]], linear_demand), ("b2", [["g1", "g2"]], linear_demand)],
    )


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "verify" in capsys.readouterr().out


@pytest.mark.parametrize(
    "instance_name, n_checks",
    [("twin_goods_instance", 9), ("pair_bundle_instance", 18)],
    ids=["twin-goods", "pair-bundle"],
)
def test_verify_passes_every_check(instance_name, n_checks, request, tmp_path):
    infile = tmp_path / "instance.json"
    outfile = tmp_path / "verify.json"
    instances.save(request.getfixturevalue(instance_name), infile)
    code = cli.main(["verify", "--in", str(infile), "--out", str(outfile)])
    record = json.loads(outfile.read_text())
    assert code == cli.EXIT_OK
    assert record["ok"] is True
    assert len(record["checks"]) == n_checks
    assert all(c["ok"] for c in record["checks"])


@pytest.mark.parametrize("flag", [["--max-iters", "0"], ["--tol", "0"], ["--tol", "inf"]])
def test_invalid_solver_settings_exit_with_validation_code(flag, twin_goods_instance, tmp_path, capsys):
    infile = tmp_path / "instance.json"
    instances.save(twin_goods_instance, infile)
    assert cli.main(["solve-welfare", "--in", str(infile), *flag]) == cli.EXIT_VALIDATION
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--max-iters", "0"], ["--tol", "0"], ["--tol", "inf"]])
@pytest.mark.parametrize(
    "argv",
    [["sweep", "--alpha", "0:0.5:0.5"],
     ["evaluate", "--in", os.path.join(GOLDEN, "tiny-00.json"), "--prices", '{"g0": 0.1, "g1": 0.1, "g2": 0.1}']],
    ids=["sweep", "evaluate"],
)
def test_commands_that_solve_nothing_take_no_solver_flags(argv, flag, tmp_path, capsys):
    outfile = tmp_path / "out"
    assert cli.main([*argv, *flag, "--out", str(outfile)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: unrecognized arguments: ") and err.count("\n") == 1
    assert not outfile.exists()


def test_solver_flags_do_not_leak_between_calls(twin_goods_instance, tmp_path, monkeypatch):
    # main reuses one parser per process; each call must start from its defaults.
    infile = tmp_path / "instance.json"
    instances.save(twin_goods_instance, infile)
    real = cli.solve_welfare
    tols = []

    def recording(inst, cfg):
        tols.append(cfg.tol)
        return real(inst, cfg)

    monkeypatch.setattr(cli, "solve_welfare", recording)
    out = str(tmp_path / "out.json")
    assert cli.main(["solve-welfare", "--in", str(infile), "--out", out, "--tol", "1e-6"]) == cli.EXIT_OK
    assert cli.main(["solve-welfare", "--in", str(infile), "--out", out]) == cli.EXIT_OK
    assert tols == [1e-6, SolverConfig().tol]


@pytest.mark.parametrize(
    "value, text",
    [(-1e-12, "0.000000000"), (-0.0, "0.000000000"), (0.0, "0.000000000"),
     (-4e-10, "0.000000000"), (-2e-9, "-0.000000002"), (1.5, "1.500000000")],
)
def test_verify_details_print_rounded_zero_unsigned(value, text):
    assert cli._fixed9(value) == text


def test_verify_ladder_details_have_no_negative_zero(tmp_path):
    # The ladder's welfare gap at the start is SW* less the first rung's SW,
    # zero up to rounding here; it printed as "-0.000000000".
    instance = {
        "schema_version": "1",
        "goods": [
            {"id": "g0", "cost": {"family": "power", "a": 0.6644171607515976, "beta": 1.5695574413379723}},
            {"id": "g1", "cost": {"family": "power", "a": 0.8702515148981068, "beta": 2.412555509373561}},
            {"id": "g2", "cost": {"family": "power", "a": 0.7557596053188127, "beta": 1.4995806889469674}},
        ],
        "buyer_types": [
            {"id": "t000", "bundles": [["g1"]], "demand": {
                "family": "exponential", "lambda_max": 1.0, "alpha": 0.0,
                "scale": 0.7744294624426651, "support_ceiling": 10.699138414775236}},
            {"id": "t001", "bundles": [["g0"], ["g0", "g2"], ["g0", "g1", "g2"]], "demand": {
                "family": "linear", "lambda_max": 1.0, "alpha": 0.0,
                "scale": 0.9639913857383425, "support_ceiling": 0.9639913857383425}},
        ],
    }
    infile, outfile = tmp_path / "instance.json", tmp_path / "verify.json"
    infile.write_text(json.dumps(instance))
    assert cli.main(["verify", "--in", str(infile), "--out", str(outfile)]) == cli.EXIT_OK
    checks = {c["name"]: c["detail"] for c in json.loads(outfile.read_text())["checks"]}
    assert checks["ladder_welfare_gap_at_start"].startswith("0.000000000 <= ")
    assert not any(detail.startswith("-0.000000000") for detail in checks.values())


# A three-good, two-type instance with one piecewise cost and one tabulated
# curve; each case below writes one field of it as a non-finite JSON number.
_FIELDS_INSTANCE = {
    "schema_version": "1",
    "goods": [
        {"id": "g0", "cost": {"family": "power", "a": 0.66, "beta": 1.57}},
        {"id": "g1", "cost": {"family": "piecewise-power", "a": 0.87, "beta": 1.2, "breakpoints": [[0.5, 2.0]]}},
        {"id": "g2", "cost": {"family": "power", "a": 0.76, "beta": 1.5}},
    ],
    "buyer_types": [
        {"id": "t0", "bundles": [["g0"], ["g1"]], "demand": {
            "family": "exponential", "lambda_max": 1.0, "alpha": 0.0, "scale": 0.77, "support_ceiling": 10.7}},
        {"id": "t1", "bundles": [["g0", "g2"]], "demand": {
            "family": "tabulated", "lambda_max": 1.0, "alpha": 0.0, "points": [[0.0, 1.0], [0.5, 0.4], [1.0, 0.0]]}},
    ],
}


def _write_instance(path, edit=None, token=None):
    """The fields instance, with edit(doc) setting one field to a placeholder written as token."""
    doc = json.loads(json.dumps(_FIELDS_INSTANCE))
    if edit is not None:
        edit(doc)
    path.write_text(json.dumps(doc).replace('"@"', token or '"@"'))
    return str(path)


def _set(*keys):
    def edit(doc):
        node = doc
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] = "@"
    return edit


def test_fields_instance_is_valid(tmp_path):
    infile = _write_instance(tmp_path / "instance.json")
    assert cli.main(["solve-welfare", "--in", infile, "--out", str(tmp_path / "out.json")]) == cli.EXIT_OK


@pytest.mark.parametrize("token", ["Infinity", "-Infinity", "NaN", "1e400"])
@pytest.mark.parametrize(
    "keys, named",
    [
        (("goods", 0, "cost", "a"), ["goods[0]", "a"]),
        (("goods", 0, "cost", "beta"), ["goods[0]", "beta"]),
        (("goods", 1, "cost", "breakpoints", 0, 0), ["goods[1]", "breakpoints"]),
        (("goods", 1, "cost", "breakpoints", 0, 1), ["goods[1]", "breakpoints"]),
        (("buyer_types", 0, "demand", "lambda_max"), ["buyer_types[0]", "lambda_max"]),
        (("buyer_types", 0, "demand", "scale"), ["buyer_types[0]", "scale"]),
        (("buyer_types", 0, "demand", "alpha"), ["buyer_types[0]", "alpha"]),
        (("buyer_types", 0, "demand", "support_ceiling"), ["buyer_types[0]", "support_ceiling"]),
        (("buyer_types", 1, "demand", "points", 1, 1), ["buyer_types[1]", "points"]),
    ],
    ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else None,
)
@pytest.mark.parametrize("command", ["solve-welfare", "verify"])
def test_non_finite_instance_field_is_a_validation_error(command, keys, named, token, tmp_path, capsys):
    infile = _write_instance(tmp_path / "instance.json", _set(*keys), token)
    assert cli.main([command, "--in", infile, "--out", str(tmp_path / "out.json")]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "Traceback" not in err
    line = next(line for line in err.splitlines() if named[0] in line)
    assert named[1] in line and "finite" in line


@pytest.mark.parametrize(
    "keys, token, named",
    [
        (("goods",), '{"a": 1}', "goods: expected a list"),
        (("goods", 0), "5", "goods[0]: expected an object"),
        (("goods", 0, "cost"), "5", "goods[0].cost: expected an object"),
        (("buyer_types",), '"t0"', "buyer_types: expected a list"),
        (("buyer_types", 0), '"t"', "buyer_types[0]: expected an object"),
        (("buyer_types", 0, "demand"), "5", "buyer_types[0].demand: expected an object"),
        (("buyer_types", 0, "bundles"), '"g1"', "buyer_types[0].bundles: expected a list of lists"),
        (("buyer_types", 0, "bundles"), '["g0", "g1"]', "buyer_types[0].bundles: expected a list of lists"),
    ],
    ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else None,
)
def test_malformed_instance_shape_is_a_validation_error(keys, token, named, tmp_path, capsys):
    infile = _write_instance(tmp_path / "instance.json", _set(*keys), token)
    assert cli.main(["solve-welfare", "--in", infile, "--out", str(tmp_path / "out.json")]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"error: {named}" in err


def test_infinite_support_ceiling_fails_evaluate_before_any_output(tmp_path, capsys):
    infile = _write_instance(tmp_path / "instance.json", _set("buyer_types", 0, "demand", "support_ceiling"), "Infinity")
    outfile = tmp_path / "out.json"
    prices = json.dumps(dict.fromkeys(["g0", "g1", "g2"], 0.0))
    assert cli.main(["evaluate", "--in", infile, "--prices", prices, "--out", str(outfile)]) == cli.EXIT_VALIDATION
    assert "support_ceiling" in capsys.readouterr().err
    assert not outfile.exists()


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400", "10" * 200, "null", "[0.5]", '"0.5"', "true"])
def test_non_finite_or_non_numeric_price_is_a_validation_error(token, tmp_path, capsys):
    infile = _write_instance(tmp_path / "instance.json")
    prices = '{"g0": 0.5, "g1": %s, "g2": 0.5}' % token
    assert cli.main(["evaluate", "--in", infile, "--prices", prices]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "'g1'" in err and "finite real number" in err
    assert "'g0'" not in err and "'g2'" not in err


def test_uncertified_solve_exits_with_solver_code(capsys):
    golden = os.path.join(GOLDEN, "ud-00.json")
    assert cli.main(["solve-welfare", "--in", golden, "--max-iters", "1"]) == cli.EXIT_SOLVER
    err = capsys.readouterr().err
    assert err.startswith("solver error: welfare solver gap")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_uncertified_split_exits_with_solver_code(monkeypatch, capsys):
    # evaluate at ud-00's welfare prices, where 47 types tie on two goods,
    # with the split cut to one Newton step: its gap misses the target.
    golden = os.path.join(GOLDEN, "ud-00.json")
    inst = instances.load(golden)
    prices = json.dumps(inst.prices_dict(solve_welfare(inst).prices))
    monkeypatch.setattr(market, "NEWTON_STEPS", 1)
    assert cli.main(["evaluate", "--in", golden, "--prices", prices]) == cli.EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.err.startswith("solver error: min-cost split gap ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.out == ""


def test_negative_price_is_a_validation_error(capsys):
    golden = os.path.join(GOLDEN, "tiny-00.json")
    prices = '{"g0": -1, "g1": 0.1, "g2": 0.1}'
    assert cli.main(["evaluate", "--in", golden, "--prices", prices]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == "error: prices: good 'g0' has negative price -1.0\n"


def test_negative_zero_price_evaluates(tmp_path, capsys):
    infile = _write_instance(tmp_path / "instance.json")
    assert cli.main(["evaluate", "--in", infile, "--prices", '{"g0": -0.0, "g1": 0.5, "g2": 0.5}']) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["solution"]["prices"]["g0"] == 0.0


def test_negative_zero_price_is_written_with_its_sign_after_a_zero(capsys):
    golden = os.path.join(GOLDEN, "tiny-00.json")
    prices = '{"g0": -0.0, "g1": 5.0, "g2": 5.0}'
    assert cli.main(["evaluate", "--in", golden, "--prices", prices]) == cli.EXIT_OK
    text = capsys.readouterr().out
    assert -1 < text.find(": 0.0") < text.find('"g0": -0.0')


def test_every_bad_price_is_named_from_a_prices_file(tmp_path, capsys):
    infile = _write_instance(tmp_path / "instance.json")
    prices = tmp_path / "prices.json"
    prices.write_text('{"g0": NaN, "g2": Infinity}')
    assert cli.main(["evaluate", "--in", infile, "--prices", str(prices)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "missing goods ['g1']" in err and "'g0'" in err and "'g2'" in err


def test_prices_for_unknown_goods_are_a_validation_error(tmp_path, capsys):
    infile = _write_instance(tmp_path / "instance.json")
    prices = '{"g0": 0.1, "g1": 0.1, "g2": 0.1, "zzz": 5}'
    assert cli.main(["evaluate", "--in", infile, "--prices", prices]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == "error: prices: unknown goods ['zzz']\n"


def test_prices_that_are_not_an_object_are_a_validation_error(tmp_path, capsys):
    infile = _write_instance(tmp_path / "instance.json")
    prices = tmp_path / "prices.json"
    prices.write_text("[0.5, 0.5, 0.5]")
    assert cli.main(["evaluate", "--in", infile, "--prices", str(prices)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "expected an object" in err and "Traceback" not in err


def test_integer_prices_evaluate(tmp_path, capsys):
    infile = _write_instance(tmp_path / "instance.json")
    assert cli.main(["evaluate", "--in", infile, "--prices", '{"g0": 1, "g1": 0, "g2": 0.5}']) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["solution"]["prices"] == {"g0": 1.0, "g1": 0.0, "g2": 0.5}


def test_sweep_prints_header_and_one_row_per_alpha(capsys):
    assert cli.main(["sweep", "--alpha", "0:0.9:0.3"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "alpha,zeta,welfare_factor,tradeoff_revenue_at_c,c"
    assert len(lines) == 5
    assert [float(line.split(",")[0]) for line in lines[1:]] == pytest.approx([0.0, 0.3, 0.6, 0.9])
    assert all(float(line.split(",")[-1]) == 2.0 for line in lines[1:])


def test_sweep_rows_are_start_plus_k_steps(capsys):
    assert cli.main(["sweep", "--alpha", "0:0.99:0.01"]) == cli.EXIT_OK
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [f"{k * 0.01:.12g}" for k in range(100)]


@pytest.mark.parametrize(
    "spec",
    ["0:0.9:0", "0:0.9", "0:inf:0.1", "nan:1:0.1", "0:1:-inf", "0:1:1e-12", "0:1e308:1e-300"],
)
def test_sweep_rejects_a_bad_alpha_range(spec, capsys):
    # Non-finite parts, and ranges of more than MAX_SWEEP_POINTS points (one
    # of them an overflow to inf), are usage errors like a bad step.
    assert cli.main(["sweep", "--alpha", spec]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_sweep_takes_a_range_of_max_points(monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 11)
    assert cli.main(["sweep", "--alpha", "0:1:0.1"]) == cli.EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 12
    assert cli.main(["sweep", "--alpha", "0:1:0.09"]) == cli.EXIT_VALIDATION
    assert "more than 11 points" in capsys.readouterr().err


def test_verify_skips_a_grid_beyond_the_oracle_cap(tmp_path, caplog):
    # 10,001 prices on each of tiny-00's three goods: the grid is refused
    # before it is built, and every other check still runs.
    outfile = tmp_path / "verify.json"
    with caplog.at_level(logging.INFO, logger="bicrit"):
        code = cli.main(["verify", "--in", os.path.join(GOLDEN, "tiny-00.json"),
                         "--grid-step", "1e-4", "--out", str(outfile)])
    assert code == cli.EXIT_OK
    assert "beyond oracle caps" in caplog.text
    names = [c["name"] for c in json.loads(outfile.read_text())["checks"]]
    assert "grid_never_beats_optimum" not in names and "income_covers_twice_cost" in names


def _refused(argv, capsys):
    """Run argv; assert exit 1 with an error line and no traceback, and return stderr."""
    assert cli.main(argv) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    return err


@pytest.mark.parametrize("spec, c", [("0:0.5:0.25", "nan"), ("1:1:0.1", "inf")])
def test_sweep_refuses_a_non_finite_c(spec, c, capsys):
    assert "c must be finite" in _refused(["sweep", "--alpha", spec, "--c", c], capsys)


def test_verify_refuses_an_infinite_grid_step(tmp_path, capsys):
    infile = os.path.join(GOLDEN, "tiny-00.json")
    err = _refused(["verify", "--in", infile, "--grid-step", "inf", "--out", str(tmp_path / "v.json")], capsys)
    assert "price step must be finite" in err


def _pareto_alpha_one_bundles():
    # Generalized-Pareto curves at alpha = 1 and a pair bundle: a valid
    # instance whose ladder would put every reserve at 0.
    demand = InverseDemand.generalized_pareto(1.0, 1.0, 1.0)
    cost = CostFunction.power(1.0, 1.0)
    return MarketInstance.create(
        [("g1", cost), ("g2", cost)], [("b1", [["g1"]], demand), ("b2", [["g1", "g2"]], demand)]
    )


@pytest.mark.parametrize("command", ["price-mm", "verify"])
def test_ladder_at_alpha_one_names_alpha(command, tmp_path, capsys):
    infile = tmp_path / "instance.json"
    instances.save(_pareto_alpha_one_bundles(), infile)
    err = _refused([command, "--in", str(infile), "--out", str(tmp_path / "out.json")], capsys)
    assert "alpha=1.0" in err and "alpha < 1" in err


def test_price_mm_refuses_an_alpha_override_of_one(tmp_path, capsys):
    argv = ["price-mm", "--in", os.path.join(GOLDEN, "mm-00.json"), "--alpha", "1", "--out", str(tmp_path / "o.json")]
    assert "alpha < 1" in _refused(argv, capsys)


@pytest.mark.parametrize("alpha", [[], ["--alpha", "-1"]], ids=["default", "alpha-below"])
def test_price_ud_refuses_multi_good_bundles_before_checking_alpha(alpha, capsys):
    argv = ["price-ud", "--in", os.path.join(GOLDEN, "mm-00.json"), *alpha]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == "error: instance has multi-good bundles; use the ladder pricer\n"
    assert captured.out == ""


def test_price_ud_refuses_an_alpha_below_the_instances(capsys):
    err = _refused(["price-ud", "--in", os.path.join(GOLDEN, "ud-00.json"), "--alpha", "-1"], capsys)
    assert err.count("\n") == 1
    assert "alpha=-1.0" in err and "regularity 0.0" in err


def _run_json(argv, capsys):
    assert cli.main(argv) == cli.EXIT_OK
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("case", ["ud-00", "mm-00"])
def test_verify_reads_the_pricing_commands_records(case, capsys):
    infile = os.path.join(GOLDEN, case + ".json")
    checks = {c["name"]: c["ok"] for c in _run_json(["verify", "--in", infile], capsys)["checks"]}
    if case.startswith("ud"):
        priced = _run_json(["price-ud", "--in", infile, "--diagnostics"], capsys)
        for name, verdict in priced["certificate"]["verdicts"].items():
            assert checks[f"thresholded_{name}"] == (verdict != "FAIL")
        assert checks["cluster_structure"] == (priced["cluster_violations"] == [])
        assert checks["low_cluster_hazard"] == (priced["hazard_violations"] == [])
    else:
        priced = _run_json(["price-mm", "--in", infile], capsys)
        ladder_checks = [(name[len("ladder_"):], ok) for name, ok in checks.items() if name.startswith("ladder_")]
        assert ladder_checks == [(c["name"], c["ok"]) for c in priced["bound_checks"]]


def _programs_built(argv, monkeypatch, capsys):
    """The record argv prints, and the kind of each FlowProgram it built: welfare or split."""
    kinds = []
    init = flow.FlowProgram.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        kinds.append("welfare" if self.masses is None else "split")

    monkeypatch.setattr(flow.FlowProgram, "__init__", counted)
    return _run_json(argv, capsys), kinds


@pytest.mark.parametrize("case, n_rungs", [("mm-00", 3), ("mm-01", 4)])
def test_price_mm_builds_one_program_for_every_rung(case, n_rungs, monkeypatch, capsys):
    # The optimum and every rung run the instance's one welfare program.
    infile = os.path.join(GOLDEN, case + ".json")
    record, kinds = _programs_built(["price-mm", "--in", infile, "--dummy-ladder-dump"], monkeypatch, capsys)
    assert len(record["rungs"]) == multi_minded.rung_count(instances.load(infile)) + 2 == n_rungs
    assert kinds == ["welfare"]


@pytest.mark.parametrize("case", ["ud-00", "ud-03"])
def test_price_ud_builds_one_welfare_program_and_at_most_one_split(case, monkeypatch, capsys):
    infile = os.path.join(GOLDEN, case + ".json")
    _, kinds = _programs_built(["price-ud", "--in", infile, "--diagnostics"], monkeypatch, capsys)
    assert kinds in (["welfare"], ["welfare", "split"])


def _twelve_digits(v):
    """v as a record writes it: rounded to 12 significant digits."""
    return float(f"{v:.12g}")


def _assert_solution_record_maps_ids(inst, sol, rec):
    """Every value of the record rec is sol's vector entry at the id's position."""
    for field, vector, ids in (("prices", sol.prices, inst.good_ids), ("allocation", sol.allocation, inst.good_ids),
                               ("demand", sol.demand, inst.type_ids), ("paid", sol.paid, inst.type_ids)):
        assert set(rec[field]) == set(ids), field
        for k, key in enumerate(ids):
            assert rec[field][key] == _twelve_digits(vector[k]), (field, key)
    keys = [(e["type"], tuple(e["bundle"])) for e in rec["split"]]
    assert keys == sorted(keys)
    assert {e["type"] for e in rec["split"]} == set(inst.type_ids)
    for key, entry in zip(keys, rec["split"]):
        assert entry["quantity"] == _twelve_digits(sol.split[inst.bundle_keys.index(key)]), key
    assert len(keys) == int((sol.split > 0).sum())


@pytest.fixture
def unsorted_ids_instance():
    # Goods and types listed out of sorted id order ("g10" < "g9"), and each
    # type may buy either good: at equal prices both types split over both.
    return MarketInstance.create(
        [("g9", CostFunction.power(1.0, 1.0)), ("g10", CostFunction.power(2.0, 1.0))],
        [("t9", [["g9"], ["g10"]], InverseDemand.linear(1.0, 1.0)),
         ("t10", [["g10"], ["g9"]], InverseDemand.linear(1.0, 0.5))],
    )


def test_evaluate_record_maps_vectors_to_ids_out_of_sorted_order(unsorted_ids_instance, tmp_path, capsys):
    inst = unsorted_ids_instance
    assert list(inst.good_ids) != sorted(inst.good_ids) and list(inst.type_ids) != sorted(inst.type_ids)
    infile = tmp_path / "instance.json"
    instances.save(inst, infile)
    prices = {"g9": 0.2, "g10": 0.2}
    rec = _run_json(["evaluate", "--in", str(infile), "--prices", json.dumps(prices)], capsys)["solution"]
    sol = market.evaluate(inst, inst.price_vector(prices))
    assert (sol.split > 0).all()
    _assert_solution_record_maps_ids(inst, sol, rec)


def test_price_ud_record_maps_vectors_to_ids_out_of_sorted_order(unsorted_ids_instance, tmp_path, capsys):
    inst = unsorted_ids_instance
    infile = tmp_path / "instance.json"
    instances.save(inst, infile)
    rec = _run_json(["price-ud", "--in", str(infile), "--diagnostics"], capsys)
    opt = solve_welfare(inst)
    tp, sol = unit_demand.price_unit_demand(inst, opt, inst.alpha)
    assert (sol.split > 0).all()
    for k, g in enumerate(inst.good_ids):
        assert rec["prices"][g] == _twelve_digits(tp.prices[k])
        assert rec["clusters"]["goods"][g] == tp.good_cluster[k]
    for i, tid in enumerate(inst.type_ids):
        assert rec["clusters"]["types"][tid] == tp.type_cluster[i]
    _assert_solution_record_maps_ids(inst, sol, rec["solution"])
    _assert_solution_record_maps_ids(inst, opt, rec["optimum"])
