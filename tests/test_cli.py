"""End-to-end tests for the command-line front end.

These run ``main()`` in-process with temporary directories; the exit-status
contract, artifact formats, and determinism guarantees are all exercised.
"""

import json

import numpy as np
import pytest

from lsemix.cli import (
    CSV_HEADER,
    DEFAULT_CURVES_NAME,
    DEFAULT_REPORT_NAME,
    OUT_DIR_ENV,
    main,
    parse_scenario,
    run_check,
    serialize_scenario,
)
from lsemix.cones import HORN_MATRIX
from lsemix.empirical import McConfig
from lsemix.errors import ScenarioError
from lsemix.orders import OrderKind


def normal_block(mu, sigma, delta=None, mixing=None, generator=None, ab=None):
    block = {
        "mu": list(mu),
        "sigma": [list(row) for row in sigma],
        "generator": generator or {"family": "normal"},
        "map": ab or {"preset": "plain"},
        "mixing": mixing or {"kind": "degenerate", "z0": 1.0},
    }
    if delta is not None:
        block["delta"] = list(delta)
    return block


def scenario(block1, block2, orders=None, mc=None, seed=7, **extra):
    doc = {"seed": seed, "distribution_1": block1, "distribution_2": block2}
    if orders is not None:
        doc["orders"] = orders
    if mc is not None:
        doc["mc"] = mc
    doc.update(extra)
    return json.dumps(doc)


# --- parsing --------------------------------------------------------------------


def test_parse_minimal_defaults():
    spec = parse_scenario(scenario(
        normal_block([0.0], [[1.0]]), normal_block([0.5], [[1.0]])))
    assert spec.orders == tuple(OrderKind)
    assert spec.mc is None
    assert spec.report_name == DEFAULT_REPORT_NAME
    assert spec.curves_name == DEFAULT_CURVES_NAME
    assert spec.block_1.delta == (0.0,)


def test_parse_skewed_scale_mixture():
    block = normal_block([0.0], [[1.0]], delta=[0.2],
                         mixing={"kind": "beta_lambda_one", "lam": 3.0},
                         ab={"preset": "skew_slash"})
    spec = parse_scenario(scenario(block, block))
    d = spec.block_1.build()
    assert d.dim == 1


def test_parse_rejects_bad_mixing_parameter():
    block = normal_block([0.0], [[1.0]],
                         mixing={"kind": "beta_lambda_one", "lam": -1.0})
    with pytest.raises(ScenarioError, match=r"\$\.distribution_1\.mixing"):
        parse_scenario(scenario(block, block))


def test_parse_rejects_generator_mismatch():
    b1 = normal_block([0.0], [[1.0]])
    b2 = normal_block([0.0], [[1.0]], generator={"family": "student", "dof": 5})
    with pytest.raises(ScenarioError, match="share generator"):
        parse_scenario(scenario(b1, b2))


def test_parse_rejects_asymmetric_sigma():
    block = normal_block([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(ScenarioError, match=r"\$\.distribution_1"):
        parse_scenario(scenario(block, block))


def test_parse_rejects_unknown_order_with_index():
    block = normal_block([0.0], [[1.0]])
    with pytest.raises(ScenarioError, match=r"\$\.orders\[1\]"):
        parse_scenario(scenario(block, block, orders=["st", "bogus"]))


def test_parse_rejects_unknown_keys():
    block = normal_block([0.0], [[1.0]])
    text = scenario(block, block, typo_key=1)
    with pytest.raises(ScenarioError, match="typo_key"):
        parse_scenario(text)


def test_parse_rejects_non_json():
    with pytest.raises(ScenarioError, match="not valid JSON"):
        parse_scenario("seed: 1")


def test_parse_rejects_missing_blocks():
    with pytest.raises(ScenarioError, match="distribution_1"):
        parse_scenario('{"seed": 1}')


def test_parse_mc_block_inherits_root_seed():
    block = normal_block([0.0], [[1.0]])
    spec = parse_scenario(scenario(block, block, mc={"sample_count": 10000},
                                   seed=123))
    assert isinstance(spec.mc, McConfig)
    assert spec.mc.seed == 123
    assert spec.mc.confidence_multiplier == 3.0


def test_parse_rejects_small_sample_count():
    block = normal_block([0.0], [[1.0]])
    with pytest.raises(ScenarioError, match=r"\$\.mc"):
        parse_scenario(scenario(block, block, mc={"sample_count": 10}))


# --- round trip ------------------------------------------------------------------


ROUND_TRIP_CASES = [
    scenario(normal_block([0.0], [[1.0]]), normal_block([0.5], [[1.0]])),
    scenario(
        normal_block([0.0, 1.0], [[2.0, 0.3], [0.3, 1.0]], delta=[0.1, 0.0],
                     mixing={"kind": "gig", "lam": 1.0, "chi": 1.0, "tau": 2.0},
                     ab={"alpha": "inv_sqrt_z", "beta": "inv_z"}),
        normal_block([0.0, 1.0], [[2.0, 0.3], [0.3, 1.0]], delta=[0.2, 0.0],
                     mixing={"kind": "gig", "lam": 1.0, "chi": 1.0, "tau": 2.0},
                     ab={"alpha": "inv_sqrt_z", "beta": "inv_z"}),
        orders=["cx", "sm"],
    ),
    scenario(
        normal_block([0.0], [[1.0]],
                     mixing={"kind": "discrete", "atoms": [[0.5, 0.4], [1.5, 0.6]]},
                     generator={"family": "student", "dof": 5}),
        normal_block([0.2], [[1.0]],
                     mixing={"kind": "discrete", "atoms": [[0.5, 0.4], [1.5, 0.6]]},
                     generator={"family": "student", "dof": 5}),
        mc={"sample_count": 20000, "grid": [-1.0, 0.0, 1.0], "chunk_size": 5000},
        outputs={"report": "r.json", "curves": "c.csv"},
    ),
]


@pytest.mark.parametrize("text", ROUND_TRIP_CASES)
def test_round_trip_identity(text):
    spec = parse_scenario(text)
    assert parse_scenario(serialize_scenario(spec)) == spec


def test_preset_map_round_trips_to_explicit_kinds():
    block = normal_block([0.0], [[1.0]], ab={"preset": "mean_variance"})
    spec = parse_scenario(scenario(block, block))
    again = parse_scenario(serialize_scenario(spec))
    assert again.block_1.ab_map == spec.block_1.ab_map


# --- run_check ---------------------------------------------------------------------


def write_spec(tmp_path, text, name="scenario.json"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_reflexive_scenario_exits_zero(tmp_path, capsys):
    block = normal_block([0.0, 0.5], [[1.0, 0.2], [0.2, 1.0]])
    path = write_spec(tmp_path, scenario(block, block))
    code = main(["check", "--spec", str(path), "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / DEFAULT_REPORT_NAME).read_text())
    assert report["schema_version"] == 1
    assert set(report["orders"]) == {o.value for o in OrderKind}
    assert all(node["verdict"] == "ordered" for node in report["orders"].values())
    out = capsys.readouterr().out
    assert "st: ordered" in out


def test_not_ordered_scenario_exits_two(tmp_path):
    b1 = normal_block([0.0], [[2.0]])
    b2 = normal_block([0.0], [[1.0]])
    path = write_spec(tmp_path, scenario(b1, b2, orders=["st"]))
    assert main(["check", "--spec", str(path), "--out", str(tmp_path),
                 "--quiet"]) == 2


def test_inconclusive_scenario_exits_three(tmp_path):
    horn = [list(row) for row in np.asarray(HORN_MATRIX, dtype=float)]
    sigma1 = (3.0 * np.eye(5)).tolist()
    sigma2 = (3.0 * np.eye(5) + 0.5 * np.asarray(HORN_MATRIX)).tolist()
    b1 = normal_block([0.0] * 5, sigma1)
    b2 = normal_block([0.1] * 5, sigma2)
    path = write_spec(tmp_path, scenario(b1, b2, orders=["icx"]))
    assert main(["check", "--spec", str(path), "--out", str(tmp_path),
                 "--quiet"]) == 3
    assert horn  # keep the construction visible to the reader


def test_report_is_strict_json_without_inf_tokens(tmp_path):
    # the tail-ratio probes report C = 0 / inf for the normal family; the
    # report must encode those as strings, not bare Infinity tokens
    block = normal_block([0.0], [[1.0]])
    path = write_spec(tmp_path, scenario(block, block, orders=["st"]))
    main(["check", "--spec", str(path), "--out", str(tmp_path), "--quiet"])
    text = (tmp_path / DEFAULT_REPORT_NAME).read_text()
    assert "Infinity" not in text

    def reject(_):
        raise AssertionError("non-finite literal leaked into the report")

    report = json.loads(text, parse_constant=reject)
    probes = report["orders"]["st"]["assumption_checks"]
    assert any(p["c_value"] in ("inf", "0.0", 0.0) for p in probes)


def test_monte_carlo_run_writes_curves(tmp_path):
    b1 = normal_block([0.0], [[1.0]])
    b2 = normal_block([0.4], [[1.0]])
    path = write_spec(tmp_path, scenario(b1, b2, orders=["st", "icx"],
                                         mc={"sample_count": 20000}))
    code = main(["check", "--spec", str(path), "--out", str(tmp_path),
                 "--quiet"])
    assert code == 0
    report = json.loads((tmp_path / DEFAULT_REPORT_NAME).read_text())
    assert report["monte_carlo"]["st"]["passed"] is True
    assert report["monte_carlo"]["icx"]["passed"] is True

    text = (tmp_path / DEFAULT_CURVES_NAME).read_text()
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert text.endswith("\n") and "\r" not in text
    data = np.loadtxt(tmp_path / DEFAULT_CURVES_NAME, delimiter=",", skiprows=1)
    assert data.shape[1] == 7
    assert np.all(np.diff(data[:, 1]) <= 0)  # survival_1 nonincreasing
    assert np.all(np.diff(data[:, 0]) > 0)   # ascending grid


def test_monte_carlo_failure_exits_two(tmp_path):
    b1 = normal_block([0.0], [[4.0]])
    b2 = normal_block([0.0], [[1.0]])
    # analytic st is already not-ordered; restrict to icx whose analytic
    # verdict is also decided; crossing makes mc fail too
    path = write_spec(tmp_path, scenario(b1, b2, orders=["icx"],
                                         mc={"sample_count": 20000}))
    assert main(["check", "--spec", str(path), "--out", str(tmp_path),
                 "--quiet"]) == 2


def test_byte_identical_reruns(tmp_path):
    b1 = normal_block([0.0], [[1.0]], delta=[0.2],
                      mixing={"kind": "beta_lambda_one", "lam": 3.0},
                      ab={"preset": "skew_slash"})
    b2 = normal_block([0.3], [[1.0]], delta=[0.5],
                      mixing={"kind": "beta_lambda_one", "lam": 3.0},
                      ab={"preset": "skew_slash"})
    text = scenario(b1, b2, orders=["st", "icx"], mc={"sample_count": 20000})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    path = write_spec(tmp_path, text)
    for out in (out_a, out_b):
        assert main(["check", "--spec", str(path), "--out", str(out),
                     "--quiet"]) == 0
    assert ((out_a / DEFAULT_REPORT_NAME).read_bytes()
            == (out_b / DEFAULT_REPORT_NAME).read_bytes())
    assert ((out_a / DEFAULT_CURVES_NAME).read_bytes()
            == (out_b / DEFAULT_CURVES_NAME).read_bytes())


def test_seed_override_changes_report(tmp_path):
    block1 = normal_block([0.0], [[1.0]])
    block2 = normal_block([0.2], [[1.0]])
    path = write_spec(tmp_path, scenario(block1, block2, orders=["st"], seed=1))
    main(["check", "--spec", str(path), "--out", str(tmp_path), "--quiet",
          "--seed", "99"])
    report = json.loads((tmp_path / DEFAULT_REPORT_NAME).read_text())
    assert report["seed"] == 99


def test_samples_flag_enables_monte_carlo(tmp_path):
    b1 = normal_block([0.0], [[1.0]])
    b2 = normal_block([0.3], [[1.0]])
    path = write_spec(tmp_path, scenario(b1, b2, orders=["st"]))
    code = main(["check", "--spec", str(path), "--out", str(tmp_path),
                 "--quiet", "--samples", "15000"])
    assert code == 0
    report = json.loads((tmp_path / DEFAULT_REPORT_NAME).read_text())
    assert report["monte_carlo"]["st"]["sample_count"] == 15000


def test_quiet_suppresses_output(tmp_path, capsys):
    block = normal_block([0.0], [[1.0]])
    path = write_spec(tmp_path, scenario(block, block, orders=["st"]))
    main(["check", "--spec", str(path), "--out", str(tmp_path), "--quiet"])
    assert capsys.readouterr().out == ""


def test_out_dir_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "env_out"))
    block = normal_block([0.0], [[1.0]])
    path = write_spec(tmp_path, scenario(block, block, orders=["st"]))
    main(["check", "--spec", str(path), "--quiet"])
    assert (tmp_path / "env_out" / DEFAULT_REPORT_NAME).exists()


def test_custom_output_names(tmp_path):
    block = normal_block([0.0], [[1.0]])
    text = scenario(block, block, orders=["st"],
                    outputs={"report": "mine.json", "curves": "mine.csv"})
    path = write_spec(tmp_path, text)
    main(["check", "--spec", str(path), "--out", str(tmp_path), "--quiet"])
    assert (tmp_path / "mine.json").exists()


def test_orthant_verifier_runs_for_multivariate_sm(tmp_path):
    b1 = normal_block([0.0, 0.0], [[1.0, 0.2], [0.2, 1.0]])
    b2 = normal_block([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]])
    path = write_spec(tmp_path, scenario(b1, b2, orders=["sm", "uo"],
                                         mc={"sample_count": 20000}))
    code = main(["check", "--spec", str(path), "--out", str(tmp_path),
                 "--quiet"])
    assert code == 0
    report = json.loads((tmp_path / DEFAULT_REPORT_NAME).read_text())
    assert report["monte_carlo"]["sm"]["passed"] is True
    assert report["monte_carlo"]["uo"]["passed"] is True


# --- curves subcommand -----------------------------------------------------------


def test_curves_subcommand_emits_only_csv(tmp_path):
    b1 = normal_block([0.0], [[1.0]])
    b2 = normal_block([0.2], [[1.5]])
    path = write_spec(tmp_path, scenario(b1, b2, orders=["icx"],
                                         mc={"sample_count": 20000}))
    code = main(["curves", "--spec", str(path), "--out", str(tmp_path),
                 "--quiet"])
    assert code == 0
    assert (tmp_path / DEFAULT_CURVES_NAME).exists()
    assert not (tmp_path / DEFAULT_REPORT_NAME).exists()


def test_curves_requires_mc(tmp_path):
    block = normal_block([0.0], [[1.0]])
    path = write_spec(tmp_path, scenario(block, block, orders=["st"]))
    assert main(["curves", "--spec", str(path), "--out", str(tmp_path),
                 "--quiet"]) == 1


def test_curves_requires_univariate_dominance_order(tmp_path):
    b = normal_block([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
    path = write_spec(tmp_path, scenario(b, b, orders=["st"],
                                         mc={"sample_count": 20000}))
    assert main(["curves", "--spec", str(path), "--out", str(tmp_path),
                 "--quiet"]) == 1


# --- cones and assumptions subcommands ----------------------------------------------


def test_cones_subcommand_prints_witness(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("1 0\n0 -1\n")
    assert main(["cones", str(path)]) == 0
    out = capsys.readouterr().out
    assert "psd: outside" in out
    assert "copositive: outside" in out
    assert "witness" in out


def test_cones_subcommand_horn_matrix(tmp_path, capsys):
    path = tmp_path / "horn.txt"
    path.write_text("\n".join(" ".join(str(v) for v in row)
                              for row in HORN_MATRIX))
    assert main(["cones", str(path)]) == 0
    out = capsys.readouterr().out
    assert "psd: outside" in out
    assert "copositive: inside" in out


@pytest.mark.parametrize("family, n, limit", [("laplace", 172, 171), ("normal", 344, 302)])
def test_dimension_past_the_double_range_is_an_error(tmp_path, capsys, family, n, limit):
    block = normal_block([0.0] * n, np.eye(n).tolist(), generator={"family": family})
    path = tmp_path / "big.json"
    path.write_text(scenario(block, block, orders=["st"]))
    assert main(["check", "--spec", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"overflows a double in dimension {n}; the largest dimension it supports is {limit}" in err


def test_cones_subcommand_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1 2\n3 nope\n")
    assert main(["cones", str(path)]) == 1


def test_assumptions_subcommand_student_ratio(capsys):
    assert main(["assumptions", "--family", "student", "--dof", "2",
                 "--sigma1", "2", "--sigma2", "1"]) == 0
    out = capsys.readouterr().out
    assert "0.25" in out
    assert "satisfied" in out


def test_assumptions_subcommand_rejects_unknown_family(capsys):
    assert main(["assumptions", "--family", "gamma",
                 "--sigma1", "2", "--sigma2", "1"]) == 1


# --- usage errors ---------------------------------------------------------------------


def test_missing_spec_file_exits_one(tmp_path):
    assert main(["check", "--spec", str(tmp_path / "nope.json"),
                 "--quiet"]) == 1


def test_unknown_flag_exits_one(capsys):
    assert main(["check", "--nonsense"]) == 1


def test_run_check_accepts_parsed_spec(tmp_path):
    spec = parse_scenario(scenario(
        normal_block([0.0], [[1.0]]), normal_block([0.5], [[1.0]]),
        orders=["st"]))
    code = run_check(spec, tmp_path, quiet=True)
    assert code == 0
    assert (tmp_path / DEFAULT_REPORT_NAME).exists()
