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
