"""Exit codes, report files and printed verdicts of the command line front end."""

import json
import os

import pytest

from fluxopt.cli import main


def test_constants_run_writes_report(tmp_path, capsys):
    out = os.path.join(tmp_path, "reports")
    cfg = os.path.join(tmp_path, "c.json")
    with open(cfg, "w") as handle:
        json.dump({"levels": [2, 4]}, handle)
    code = main(["constants", "--config", cfg, "--out", out])
    captured = capsys.readouterr().out
    assert code == 0
    assert os.path.exists(os.path.join(out, "constants.csv"))
    assert "n=2 " in captured and "lambda=" in captured
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
    assert "power-of-two" in capsys.readouterr().err


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
    ],
)
def test_non_finite_field_parameter_is_a_config_error(tmp_path, capsys, kind, problem):
    cfg = os.path.join(tmp_path, "nan.json")
    with open(cfg, "w") as handle:
        json.dump({"levels": [2, 4, 8], "n_ref": 16, "problem": problem}, handle)
    code = main([kind, "--config", cfg, "--out", str(tmp_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(tmp_path, f"{kind}.csv"))


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


def test_seed_override_reaches_the_config(tmp_path):
    out = str(tmp_path)
    code = main(["constants", "--out", out, "--seed", "7", "--config", _levels(tmp_path)])
    assert code == 0


def _levels(tmp_path):
    cfg = os.path.join(tmp_path, "lv.json")
    with open(cfg, "w") as handle:
        json.dump({"levels": [2]}, handle)
    return cfg
