"""Command-line smoke tests on the twin-goods and a two-good bundle instance."""

import json

import pytest

from bicrit import MarketInstance, cli, instances
from bicrit.solver import SolverConfig


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


@pytest.mark.parametrize("flag", [["--max-iters", "0"], ["--tol", "0"]])
def test_invalid_solver_settings_exit_with_validation_code(flag, twin_goods_instance, tmp_path, capsys):
    infile = tmp_path / "instance.json"
    instances.save(twin_goods_instance, infile)
    assert cli.main(["solve-welfare", "--in", str(infile), *flag]) == cli.EXIT_VALIDATION
    assert "must be" in capsys.readouterr().err


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


def test_every_bad_price_is_named_from_a_prices_file(tmp_path, capsys):
    infile = _write_instance(tmp_path / "instance.json")
    prices = tmp_path / "prices.json"
    prices.write_text('{"g0": NaN, "g2": Infinity}')
    assert cli.main(["evaluate", "--in", infile, "--prices", str(prices)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "missing goods ['g1']" in err and "'g0'" in err and "'g2'" in err


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


@pytest.mark.parametrize("spec", ["0:0.9:0", "0:0.9"])
def test_sweep_rejects_a_bad_alpha_range(spec, capsys):
    assert cli.main(["sweep", "--alpha", spec]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
