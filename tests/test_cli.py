"""Exit codes, report files and printed verdicts of the command line front end."""

import argparse
import dataclasses
import json
import os
import re
import types

import pytest

from fluxopt import cli, harness, optctl
from fluxopt.cli import main
from fluxopt.linsolve import ConvergenceError
from fluxopt.mesh import TraceField


def test_constants_run_writes_report(tmp_path, capsys):
    out = os.path.join(tmp_path, "reports")
    cfg = os.path.join(tmp_path, "c.json")
    with open(cfg, "w") as handle:
        json.dump({"levels": [2, 4]}, handle)
    code = main(["constants", "--config", cfg, "--out", out])
    captured = capsys.readouterr().out
    assert code == 0
    assert os.path.exists(os.path.join(out, "constants.csv"))
    assert "check lambda_in_range: PASS" in captured
    assert "report written to" in captured


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    code = main(["constants", "--config", os.path.join(tmp_path, "nope.json")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_config_value_is_a_config_error(tmp_path, capsys):
    cfg = os.path.join(tmp_path, "bad.json")
    with open(cfg, "w") as handle:
        json.dump({"levels": [4, 12]}, handle)
    code = main(["constants", "--config", cfg, "--out", str(tmp_path)])
    assert code == 2
    assert "meshes are not nested: fine n=12 is not coarse n=4 refined" in capsys.readouterr().err


def test_malformed_config_value_is_a_config_error(tmp_path, capsys):
    cfg = os.path.join(tmp_path, "levels.json")
    with open(cfg, "w") as handle:
        json.dump({"levels": 5}, handle)
    code = main(["constants", "--config", cfg, "--out", str(tmp_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, problem",
    [
        ("state-conv", {"g": {"name": "constant", "value": float("nan")}}),
        ("control-conv", {"g": {"name": "polynomial", "coefficients": [[1, float("nan")]]}}),
        # finite parameters whose field or gradient overflows on the unit square
        ("control-conv", {"g": {"name": "polynomial", "coefficients": [[1e308, 1e308]]}}),
        ("state-conv", {"exact": {"name": "sin_product", "scale": 1e308, "kx": 3}}),
        # an integer beyond the float range
        ("control-conv", {"g": {"name": "sin_product", "scale": 10**400}}),
    ],
)
def test_non_finite_field_parameter_is_a_config_error(tmp_path, capsys, no_solve, kind, problem):
    cfg = os.path.join(tmp_path, "nan.json")
    with open(cfg, "w") as handle:
        json.dump({"levels": [2, 4, 8], "n_ref": 16, "problem": problem}, handle)
    code = main([kind, "--config", cfg, "--out", str(tmp_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(tmp_path, f"{kind}.csv"))


@pytest.fixture
def no_solve(monkeypatch):
    """Every optimizer route raises: a config error must stop a run before its first solve."""

    def refuse(*args, **kwargs):
        raise AssertionError("a config error must stop the run before its first solve")

    for route in ("solve_optimal_cg", "solve_optimal_fixed_point", "solve_optimal_reduced"):
        monkeypatch.setattr(harness.optctl, route, refuse)


def test_exact_field_without_a_gradient_is_a_config_error_before_any_solve(
    tmp_path, capsys, monkeypatch
):
    def refuse(*args, **kwargs):
        raise AssertionError("a config error must stop the run before its first solve")

    monkeypatch.setattr(harness.pde, "solve_state", refuse)
    cfg = os.path.join(tmp_path, "exact.json")
    with open(cfg, "w") as handle:
        json.dump({"problem": {"exact": {"name": "mms_flux"}}}, handle)
    code = main(["state-conv", "--config", cfg, "--out", str(tmp_path)])
    assert code == 2
    assert "'mms_flux' has no closed-form gradient" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(tmp_path, "state-conv.csv"))


def test_negative_seed_is_a_config_error_before_any_solve(tmp_path, capsys, no_solve):
    code = main(["control-conv", "--out", str(tmp_path), "--seed", "-1"])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("data", [[1, 2], [["levels", [4, 8, 16]]]])
def test_a_config_that_is_not_an_object_is_a_config_error_with_a_seed(
    tmp_path, capsys, no_solve, data
):
    # the seed is merged only into an object, so a list, even one of
    # key-value pairs, reaches the object check as it is
    cfg = os.path.join(tmp_path, "list.json")
    with open(cfg, "w") as handle:
        json.dump(data, handle)
    out = os.path.join(tmp_path, "reports")
    code = main(["constants", "--config", cfg, "--out", out, "--seed", "1"])
    assert code == 2
    assert "config must be a JSON object" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_an_out_that_names_a_file_is_a_config_error_before_any_solve(tmp_path, capsys, no_solve):
    out = os.path.join(tmp_path, "taken")
    with open(out, "w") as handle:
        handle.write("kept")
    code = main(["control-conv", "--out", out])
    assert code == 2
    assert "config error: --out" in capsys.readouterr().err
    with open(out) as handle:
        assert handle.read() == "kept"


@pytest.mark.parametrize("data", [{"tol": {"start_gap": 1e300}}, {"r": 1.0001}])
def test_a_config_that_sets_a_threshold_is_a_config_error_before_any_solve(
    tmp_path, capsys, no_solve, data
):
    cfg = os.path.join(tmp_path, "loose.json")
    with open(cfg, "w") as handle:
        json.dump(data, handle)
    out = os.path.join(tmp_path, "reports")
    code = main(["control-conv", "--config", cfg, "--out", out])
    assert code == 2
    assert "unknown config keys" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_a_state_that_does_not_converge_fails_its_rate_check(tmp_path, capsys):
    # with no boundary flux the discrete states approach a solution other
    # than the exact one, so the state error stalls instead of falling at h
    cfg = os.path.join(tmp_path, "stalled.json")
    with open(cfg, "w") as handle:
        json.dump({"problem": {"q_star": 0.0}}, handle)
    code = main(["state-conv", "--config", cfg, "--out", str(tmp_path)])
    assert code == 1
    assert "check state_rate: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["control-conv", "diagram"])
def test_a_finest_level_beyond_the_dense_oracle_is_a_config_error(tmp_path, capsys, no_solve, kind):
    # n = 256 with one clamped side: 66049 x 769 responses, 406 MB, against 64 MiB
    cfg = os.path.join(tmp_path, "fine.json")
    with open(cfg, "w") as handle:
        json.dump({"levels": [64, 128, 256], "n_ref": 512}, handle)
    out = os.path.join(tmp_path, "reports")
    code = main([kind, "--config", cfg, "--out", out])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err and "cap" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "error, detail",
    [
        (ConvergenceError("gradient too large", residual=2.35e-13), "(residual 2.350e-13)"),
        (ConvergenceError("iteration diverged", ratios=[0.5, 2.25]), "(last ratio 2.250e+00)"),
    ],
)
def test_a_solver_error_exits_1_with_its_diagnostics(tmp_path, capsys, monkeypatch, error, detail):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(harness.optctl, "solve_optimal_cg", fail)
    out = os.path.join(tmp_path, "reports")
    code = main(["control-conv", "--out", out])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"solver error: {error} {detail}\n"
    assert not os.path.exists(out)


def test_an_oracle_mismatch_exits_1_with_its_distance_over_its_bound(tmp_path, capsys, monkeypatch):
    # the dense optimum moved while it keeps its distance bound; a perturbed
    # G or L fails the dense optimum's own gradient limit first (below)
    solve = optctl.solve_optimal_reduced

    def moved(mesh, spec):
        dense = solve(mesh, spec)
        return dataclasses.replace(dense, q_opt=TraceField(mesh, dense.q_opt.coefficients + 1e-6))

    monkeypatch.setattr(optctl, "solve_optimal_reduced", moved)
    out = os.path.join(tmp_path, "reports")
    code = main(["control-conv", "--out", out])
    err = capsys.readouterr().err
    assert code == 1
    match = re.fullmatch(r"solver error: optimum is .* above the gradient bound .* \(residual (\S+)\)\n", err)
    assert match and float(match.group(1)) > 1.0
    assert not os.path.exists(out)


@pytest.mark.parametrize("scale, code", [(1 + 1e-6, 1), (1 + 1e-9, 0)])
def test_a_wrong_reduced_linear_term_fails_the_dense_gradient_limit(tmp_path, capsys, monkeypatch, scale, code):
    # the dense optimum is held to the fixed-point route's gradient limit, so
    # L x (1 + 1e-6) fails it at n = 32 (84.8 of the limit), while
    # L x (1 + 1e-9) reads 0.085 of it and passes
    system = optctl.reduced_normal_system

    def scaled(mesh, spec):
        gmat, lvec = system(mesh, spec)
        return gmat, lvec * scale

    monkeypatch.setattr(optctl, "reduced_normal_system", scaled)
    assert main(["control-conv", "--out", str(tmp_path)]) == code
    if code:
        match = re.search(r"\(residual (\S+)\)\n\Z", capsys.readouterr().err)
        assert match and float(match.group(1)) > 1.0


@pytest.mark.parametrize("kind", ["constants", "state-conv"])
def test_levels_through_a_grid_with_no_free_vertex_are_a_config_error(tmp_path, capsys, kind):
    # n = 1 clamped on bottom and top clamps all four vertices
    cfg = os.path.join(tmp_path, "opposite.json")
    with open(cfg, "w") as handle:
        json.dump({"levels": [1, 2, 4], "gamma1_sides": ["bottom", "top"]}, handle)
    out = os.path.join(tmp_path, "reports")
    code = main([kind, "--config", cfg, "--out", out])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and "leaves no free vertex" in err
    assert not os.path.exists(out)


def test_a_cost_gap_that_rounds_below_zero_exits_1_naming_its_level(tmp_path, capsys):
    # with M = 1e250 the level cost gap at n = 16 is formed as -1.4e-272
    cfg = os.path.join(tmp_path, "huge_penalty.json")
    with open(cfg, "w") as handle:
        json.dump({"problem": {"M": 1e250}}, handle)
    out = os.path.join(tmp_path, "reports")
    code = main(["control-conv", "--config", cfg, "--out", out])
    err = capsys.readouterr().err
    assert code == 1
    assert re.fullmatch(r"solver error: cost_gap_\w+ at level n = \d+ rounds below zero \(-\S+\): .*\n", err)
    assert not os.path.exists(out)


def test_malformed_json_is_a_config_error(tmp_path, capsys):
    cfg = os.path.join(tmp_path, "broken.json")
    with open(cfg, "w") as handle:
        handle.write("{not json")
    code = main(["constants", "--config", cfg])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_kind_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["spectral"])


def test_main_builds_one_parser_per_process(tmp_path, capsys, monkeypatch):
    # every parser built, the top one and its subcommands', is recorded by
    # its prog; two main calls build them once, and the cached parser still
    # rejects a bad subcommand with argparse's exit status 2
    built = []

    class Recorded(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "argparse", types.SimpleNamespace(ArgumentParser=Recorded))
    cli._build_parser.cache_clear()
    missing = os.path.join(tmp_path, "nope.json")
    try:
        assert main(["constants", "--config", missing]) == 2
        assert main(["diagram", "--config", missing]) == 2
        assert built == ["fluxopt"] + [f"fluxopt {kind}" for kind in harness.EXPERIMENTS]
        with pytest.raises(SystemExit) as caught:
            main(["spectral"])
        assert caught.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert len(built) == 1 + len(harness.EXPERIMENTS)
    finally:
        cli._build_parser.cache_clear()


def test_seed_override_reaches_the_config(tmp_path):
    out = str(tmp_path)
    code = main(["constants", "--out", out, "--seed", "7", "--config", _levels(tmp_path)])
    assert code == 0


def _levels(tmp_path):
    cfg = os.path.join(tmp_path, "lv.json")
    with open(cfg, "w") as handle:
        json.dump({"levels": [2]}, handle)
    return cfg
