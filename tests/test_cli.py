"""End-to-end tests for the command-line front end.

These run ``main()`` in-process with temporary directories; the exit-status
contract, artifact formats, and determinism guarantees are all exercised.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import lsemix.cli as cli
import lsemix.orders as orders_module
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
from lsemix.distributions import LseDistribution
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
    assert spec.distribution_1.delta.tolist() == [0.0]


def test_parse_skewed_scale_mixture():
    block = normal_block([0.0], [[1.0]], delta=[0.2],
                         mixing={"kind": "beta_lambda_one", "lam": 3.0},
                         ab={"preset": "skew_slash"})
    spec = parse_scenario(scenario(block, block))
    d = spec.distribution_1
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


# --- rejection table ---------------------------------------------------------------


ABSENT = object()
D1 = "$.distribution_1"
GEN, MAP, MIX = f"{D1}.generator", f"{D1}.map", f"{D1}.mixing"
STUDENT = {"family": "student", "dof": 5}
EXPLICIT = {"alpha": "sqrt_z", "beta": "identity"}
MIXINGS = {
    "degenerate": {"kind": "degenerate", "z0": 1.0},
    "beta_lambda_one": {"kind": "beta_lambda_one", "lam": 3.0},
    "gig": {"kind": "gig", "lam": 1.0, "chi": 1.0, "tau": 2.0},
    "discrete": {"kind": "discrete", "atoms": [[0.5, 0.4], [1.5, 0.6]]},
}


def full_document():
    block = normal_block([0.0, 1.0], [[1.0, 0.2], [0.2, 1.0]], delta=[0.1, 0.0])
    return {
        "seed": 7,
        "orders": ["st", "cx"],
        "distribution_1": block,
        "distribution_2": json.loads(json.dumps(block)),
        "mc": {"sample_count": 20000, "confidence_multiplier": 3.0,
               "grid": [0.0, 1.0], "chunk_size": 5000},
        "outputs": {"report": "r.json", "curves": "c.csv"},
    }


def at(document, location):
    """The node of ``document`` that the keys and indices of ``location`` lead to."""
    for part in location:
        document = document[part]
    return document


def with_key(node, key, value):
    return {**{k: v for k, v in node.items() if k != key},
            **({} if value is ABSENT else {key: value})}


def rows_for_object(location, path, valid, fields, name=None):
    """Rows for one object: each field absent (when required) and of the
    wrong type, plus an unknown key.  ``fields`` maps a key to its wrong
    value and whether the key is required; ``name`` prefixes the row ids."""
    name = name or path
    rows = [(f"{name}:unknown-key", location, {**valid, "typo": 1}, path, None)]
    for key, (wrong, required) in fields.items():
        if required:
            rows.append((f"{name}.{key}:missing", location,
                         with_key(valid, key, ABSENT), path, key))
        rows.append((f"{name}.{key}:wrong-type", location,
                     with_key(valid, key, wrong), f"{path}.{key}", None))
    return rows


REJECTIONS = [
    *rows_for_object((), "$", full_document(), {
        "seed": ("7", True), "orders": ("st", False),
        "distribution_1": ([], True), "distribution_2": (1.0, True),
        "mc": ([], False), "outputs": ("r.json", False)}),
    ("$.seed:out-of-range", ("seed",), -1, "$.seed", None),
    ("$.orders:empty", ("orders",), [], "$.orders", None),
    ("$.orders[1]:unknown-value", ("orders",), ["st", "bogus"], "$.orders[1]", None),
    ("$.orders[0]:wrong-type", ("orders",), [3], "$.orders[0]", None),
    *rows_for_object(("distribution_1",), D1, full_document()["distribution_1"], {
        "mu": ("0", True), "sigma": ([1.0], True), "delta": (0.1, False),
        "generator": ("normal", True), "map": ("plain", True), "mixing": (1.0, True)}),
    (f"{D1}.mu[1]:wrong-type", ("distribution_1", "mu"), [0.0, "1"], f"{D1}.mu[1]", None),
    (f"{D1}.mu:empty", ("distribution_1", "mu"), [], f"{D1}.mu", None),
    (f"{D1}.sigma[1][0]:wrong-type", ("distribution_1", "sigma"),
     [[1.0, 0.2], [True, 1.0]], f"{D1}.sigma[1][0]", None),
    (f"{D1}.sigma:not-square", ("distribution_1", "sigma"), [[1.0, 0.2]], f"{D1}.sigma", None),
    (f"{D1}.sigma:size", ("distribution_1", "sigma"), [[1.0]], f"{D1}.sigma", None),
    (f"{D1}.delta:size", ("distribution_1", "delta"), [0.1], f"{D1}.delta", None),
    *rows_for_object(("distribution_1", "generator"), GEN, STUDENT, {
        "family": (3, True), "dof": ("5", False)}, name=f"{GEN}(student)"),
    (f"{GEN}.family:unknown-value", ("distribution_1", "generator"),
     {"family": "gamma"}, f"{GEN}.family", None),
    (f"{GEN}.dof:fraction", ("distribution_1", "generator"),
     {"family": "student", "dof": 5.5}, f"{GEN}.dof", None),
    (f"{GEN}.dof:missing", ("distribution_1", "generator"), {"family": "student"}, GEN, "dof"),
    *rows_for_object(("distribution_1", "generator"), GEN,
                     {"family": "exponential_power", "power": 1.5}, {"power": ("2", False)},
                     name=f"{GEN}(exponential_power)"),
    (f"{GEN}.power:missing", ("distribution_1", "generator"),
     {"family": "exponential_power"}, GEN, "power"),
    *rows_for_object(("distribution_1", "map"), MAP, {"preset": "skew_slash"}, {
        "preset": (3, False)}, name=f"{MAP}(preset)"),
    (f"{MAP}.preset:unknown-value", ("distribution_1", "map"),
     {"preset": "bogus"}, f"{MAP}.preset", None),
    *rows_for_object(("distribution_1", "map"), MAP,
                     {"alpha": "power", "beta": "power", "alpha_power": 0.5, "beta_power": 2.0},
                     {"alpha_power": ("0.5", True), "beta_power": ("2", True)},
                     name=f"{MAP}(explicit)"),
    *((f"{MAP}.{key}:{case}", ("distribution_1", "map"), with_key(EXPLICIT, key, value),
       MAP, key if value is ABSENT else None)
      for key in ("alpha", "beta")
      for case, value in (("missing", ABSENT), ("wrong-type", 3), ("unknown-value", "bogus"))),
    (f"{MAP}.alpha_power:without-power-kind", ("distribution_1", "map"),
     {**EXPLICIT, "alpha_power": 0.5}, MAP, None),
    (f"{MIX}.kind:missing", ("distribution_1", "mixing"), {"z0": 1.0}, MIX, "kind"),
    (f"{MIX}.kind:wrong-type", ("distribution_1", "mixing"), {"kind": 3}, f"{MIX}.kind", None),
    (f"{MIX}.kind:unknown-value", ("distribution_1", "mixing"),
     {"kind": "bogus"}, f"{MIX}.kind", None),
    *(row for kind, valid in MIXINGS.items()
      for row in rows_for_object(("distribution_1", "mixing"), MIX, valid, {
          key: ("1", True) for key in valid if key != "kind"}, name=f"{MIX}({kind})")),
    (f"{MIX}.atoms[1]:not-a-pair", ("distribution_1", "mixing"),
     {"kind": "discrete", "atoms": [[0.5, 0.4], [1.5]]}, f"{MIX}.atoms[1]", None),
    (f"{MIX}.atoms[0][1]:wrong-type", ("distribution_1", "mixing"),
     {"kind": "discrete", "atoms": [[0.5, "0.4"], [1.5, 0.6]]}, f"{MIX}.atoms[0][1]", None),
    (f"{MIX}.atoms:empty", ("distribution_1", "mixing"),
     {"kind": "discrete", "atoms": []}, f"{MIX}.atoms", None),
    *rows_for_object(("mc",), "$.mc", full_document()["mc"], {
        "sample_count": (20000.5, True), "confidence_multiplier": ("3", False),
        "grid": (0.0, False), "chunk_size": ("5000", False)}),
    ("$.mc.grid[1]:wrong-type", ("mc", "grid"), [0.0, False], "$.mc.grid[1]", None),
    *rows_for_object(("outputs",), "$.outputs", full_document()["outputs"], {
        "report": (3, False), "curves": ([], False)}),
    ("$.outputs.report:empty", ("outputs", "report"), "", "$.outputs.report", None),
]


@pytest.mark.parametrize("location, value, path, missing",
                         [pytest.param(*row[1:], id=row[0]) for row in REJECTIONS])
def test_parse_rejects_malformed_field(location, value, path, missing):
    """Every malformed field fails with a ScenarioError that starts with its
    path: the field itself, the object that holds an unknown key, or for a
    missing key the object that lacks it (whose message names the key).  A
    reader may name a node inside that path, never an ancestor or a sibling."""
    document = full_document()
    if location:
        at(document, location[:-1])[location[-1]] = value
    else:
        document = value
    with pytest.raises(ScenarioError) as info:
        parse_scenario(json.dumps(document))
    message = str(info.value)
    assert message.startswith(path) and message[len(path)] in ":.[", message
    if missing is not None:
        assert missing in message, message


NULL_OPTIONAL = [
    ((), "orders"), ((), "mc"), ((), "outputs"), (("distribution_1",), "delta"),
    (("distribution_1", "generator"), "dof"), (("distribution_1", "generator"), "power"),
    (("distribution_1", "map"), "alpha_power"), (("mc",), "grid"), (("mc",), "chunk_size"),
    (("mc",), "confidence_multiplier"), (("outputs",), "report"),
]


@pytest.mark.parametrize("location, key", NULL_OPTIONAL,
                         ids=[".".join(("$",) + loc + (key,)) for loc, key in NULL_OPTIONAL])
def test_null_optional_key_counts_as_absent(location, key):
    with_null, without = full_document(), full_document()
    at(with_null, location)[key] = None
    at(without, location).pop(key, None)
    assert parse_scenario(json.dumps(with_null)) == parse_scenario(json.dumps(without))


NULL_REQUIRED = [
    ((), "$", "seed"), ((), "$", "distribution_2"),
    (("distribution_1",), D1, "mu"), (("distribution_1",), D1, "mixing"),
    (("distribution_1", "generator"), GEN, "family"),
    (("distribution_1", "map"), MAP, "alpha"), (("distribution_1", "map"), MAP, "beta"),
    (("distribution_1", "mixing"), MIX, "kind"), (("distribution_1", "mixing"), MIX, "z0"),
    (("mc",), "$.mc", "sample_count"),
]


@pytest.mark.parametrize("location, path, key", NULL_REQUIRED,
                         ids=[f"{path}.{key}" for _, path, key in NULL_REQUIRED])
def test_null_required_key_is_missing(location, path, key):
    document = full_document()
    for block in ("distribution_1", "distribution_2"):
        document[block]["map"] = dict(EXPLICIT)
    at(document, location)[key] = None
    with pytest.raises(ScenarioError) as info:
        parse_scenario(json.dumps(document))
    assert str(info.value) == f"{path}: missing required key {key!r}"


BIG = "1" + "0" * 400  # an integer literal past the double range


@pytest.mark.parametrize("location, path", [
    (("mu", 1), f"{D1}.mu[1]"),
    (("sigma", 0, 0), f"{D1}.sigma[0][0]"),
    (("mixing", "z0"), f"{MIX}.z0"),
])
def test_integer_past_the_double_range_is_an_error(tmp_path, capsys, location, path):
    document = full_document()
    at(document["distribution_1"], location[:-1])[location[-1]] = "BIG"
    spec = write_spec(tmp_path, json.dumps(document).replace('"BIG"', BIG))
    assert main(["check", "--spec", str(spec), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: expected a finite number\n"


def test_unhashable_preset_is_an_error():
    document = full_document()
    document["distribution_1"]["map"] = {"preset": []}
    with pytest.raises(ScenarioError, match=rf"^{re.escape(MAP)}\.preset: unknown value \[\]"):
        parse_scenario(json.dumps(document))


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


FAMILIES = [{"family": "normal"}, {"family": "laplace"}, {"family": "cauchy"},
            {"family": "logistic"}, {"family": "student", "dof": 3},
            {"family": "exponential_power", "power": 1.5}]
MAPS = [{"preset": name} for name in
        ("plain", "mean_variance", "skew_slash", "location_mixture", "scale_only")] + [
    {"alpha": "power", "beta": "power", "alpha_power": -0.25, "beta_power": 2.0}]
MC_BLOCKS = [{"sample_count": 20000},
             {"sample_count": 20000, "confidence_multiplier": 2.5, "chunk_size": 5000},
             {"sample_count": 20000, "grid": [-1.0, 0.5, 2.0]}]


def catalog_case(generator=None, ab=None, mixing=None, **extra):
    b1 = normal_block([0.0, 1.0], [[2.0, 0.3], [0.3, 1.0]], delta=[0.1, 0.0],
                      generator=generator, ab=ab, mixing=mixing)
    b2 = normal_block([0.2, 1.0], [[2.0, 0.3], [0.3, 1.5]], generator=generator, ab=ab,
                      mixing=mixing)
    return scenario(b1, b2, **extra)


ROUND_TRIP_CASES += (
    [catalog_case(generator=g) for g in FAMILIES]
    + [catalog_case(ab=m) for m in MAPS]
    + [catalog_case(mixing=m) for m in MIXINGS.values()]
    + [catalog_case(mc=mc) for mc in MC_BLOCKS]
    + [catalog_case(mc=MC_BLOCKS[2], outputs={"curves": "c.csv"})]
)
SCENARIO_FILES = sorted(
    (Path(__file__).resolve().parent.parent / "scripts" / "scenarios").glob("*.json")
) + sorted((Path(__file__).resolve().parent / "golden_mc" / "scenarios").glob("*.json"))


@pytest.mark.parametrize("text", ROUND_TRIP_CASES + [p.read_text() for p in SCENARIO_FILES],
                         ids=[f"case{i}" for i in range(len(ROUND_TRIP_CASES))]
                         + [p.name for p in SCENARIO_FILES])
def test_round_trip_identity(text):
    spec = parse_scenario(text)
    written = serialize_scenario(spec)
    assert parse_scenario(written) == spec
    assert serialize_scenario(parse_scenario(written)) == written


def test_preset_map_round_trips_to_explicit_kinds():
    block = normal_block([0.0], [[1.0]], ab={"preset": "mean_variance"})
    spec = parse_scenario(scenario(block, block))
    again = parse_scenario(serialize_scenario(spec))
    assert again.distribution_1.ab_map == spec.distribution_1.ab_map


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


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_seed_override_outside_64_unsigned_bits_is_an_error(tmp_path, capsys, seed):
    block1 = normal_block([0.0], [[1.0]])
    block2 = normal_block([0.2], [[1.0]])
    path = write_spec(tmp_path, scenario(block1, block2, orders=["st"],
                                         mc={"sample_count": 20000}))
    assert main(["check", "--spec", str(path), "--out", str(tmp_path),
                 "--seed", seed]) == 1
    err = capsys.readouterr().err
    assert err == "error: --seed: seed must fit in 64 unsigned bits\n"
    assert not (tmp_path / DEFAULT_REPORT_NAME).exists()


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


@pytest.mark.parametrize("sigma1, sigma2", [("inf", "1"), ("2", "inf")])
def test_assumptions_subcommand_rejects_infinite_scale(capsys, sigma1, sigma2):
    assert main(["assumptions", "--family", "student", "--dof", "3",
                 "--sigma1", sigma1, "--sigma2", sigma2]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "scales must be finite and positive" in captured.err


def test_assumptions_subcommand_rejects_unknown_family(capsys):
    assert main(["assumptions", "--family", "gamma",
                 "--sigma1", "2", "--sigma2", "1"]) == 1


# --- usage errors ---------------------------------------------------------------------


def test_missing_spec_file_exits_one(tmp_path):
    assert main(["check", "--spec", str(tmp_path / "nope.json"),
                 "--quiet"]) == 1


def test_unknown_flag_exits_one(capsys):
    assert main(["check", "--nonsense"]) == 1


def test_check_builds_each_distribution_once_and_compares_once(tmp_path, monkeypatch):
    builds, compared = [], []
    build = LseDistribution.__post_init__

    def counted_build(self):
        builds.append(self)
        build(self)

    def counted_compare(*args, **kwargs):
        compared.append(args)
        return orders_module.compare(*args, **kwargs)

    monkeypatch.setattr(LseDistribution, "__post_init__", counted_build)
    monkeypatch.setattr(cli, "compare", counted_compare, raising=False)
    block_1 = normal_block([0.0, 0.5], [[1.0, 0.2], [0.2, 1.0]])
    block_2 = normal_block([0.3, 0.5], [[1.0, 0.2], [0.2, 1.0]])
    path = write_spec(tmp_path, scenario(block_1, block_2, mc={"sample_count": 10000}))
    assert main(["check", "--spec", str(path), "--out", str(tmp_path), "--quiet"]) == 2
    assert len(builds) == 2
    assert len(compared) == 1
    assert compared[0][0] is builds[0] and compared[0][1] is builds[1]


def test_run_check_accepts_parsed_spec(tmp_path):
    spec = parse_scenario(scenario(
        normal_block([0.0], [[1.0]]), normal_block([0.5], [[1.0]]),
        orders=["st"]))
    code = run_check(spec, tmp_path, quiet=True)
    assert code == 0
    assert (tmp_path / DEFAULT_REPORT_NAME).exists()
