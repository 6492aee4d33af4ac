"""Command-line front end: scenario files in, JSON reports and CSV curves out.

Scenario schema (JSON)
----------------------
::

    {
      "seed": 20240817,
      "orders": ["st", "icx"],              // optional, default: all 13
      "distribution_1": {
        "mu": [0.0],
        "sigma": [[1.0]],
        "delta": [0.2],                     // optional, default zeros
        "generator": {"family": "normal"},  // student needs "dof",
                                            // exponential_power needs "power"
        "map": {"preset": "skew_slash"},    // or explicit {"alpha": <kind>,
                                            // "beta": <kind>, *_power: ...}
        "mixing": {"kind": "beta_lambda_one", "lam": 3.0}
      },
      "distribution_2": { ... same layout ... },
      "mc": {"sample_count": 1000000,       // optional block; omitting it
             "confidence_multiplier": 3.0,  // makes the run analytic-only
             "grid": null,
             "chunk_size": 65536},
      "outputs": {"report": "report.json", "curves": "curves.csv"}
    }

Mixing kinds: ``degenerate`` (z0), ``beta_lambda_one`` (lam), ``gig``
(lam, chi, tau), ``discrete`` (atoms: [[z, w], ...]).  Map presets:
``plain``, ``mean_variance``, ``skew_slash``, ``location_mixture``,
``scale_only``.

A key whose value is null counts as absent, in every object: an optional
key takes its default, and a required one is reported missing.  The keys of
the generator, the explicit map, each mixing kind, ``mc`` and ``outputs``
are the rows of one table each (``_GENERATOR``, ``_MAP``, ``_MIXING``,
``_MC``, ``_OUTPUTS``), which ``parse_scenario`` reads and
``serialize_scenario`` and the report write.  ``parse_scenario`` builds each
distribution block once, as the ``LseDistribution`` that the ``ScenarioSpec``
holds; ``run_check`` compares the two and serialises them from their arrays.

Every random quantity in a run is derived from the single root ``seed``, so
rerunning a scenario reproduces the report and curve files byte for byte.
Exit status: 0 all requested orders ordered and Monte Carlo checks passed;
2 at least one not-ordered verdict or failed Monte Carlo check; 3 an
inconclusive verdict (and nothing worse); 1 usage or scenario errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import partial
from pathlib import Path

import numpy as np

from .cones import dual_pairing, is_completely_positive, is_copositive, is_psd
from .distributions import LseDistribution
from .empirical import (
    DominanceResult, McConfig, SurvivalCurve, axis_pair_directions, coupled_pass,
)
from .errors import LsemixError, ScenarioError
from .generators import DensityGenerator, GeneratorFamily, limit_ratio
from .mixing import (
    AlphaBetaMap,
    AlphaKind,
    BetaKind,
    BetaLambdaOne,
    Degenerate,
    DiscreteWeighted,
    GeneralizedInverseGaussian,
    MixingDistribution,
)
from .orders import OrderKind, OrderReport, Verdict, compare

__all__ = [
    "ScenarioSpec",
    "parse_scenario",
    "serialize_scenario",
    "run_check",
    "main",
    "console_main",
]

SCHEMA_VERSION = 1
DEFAULT_REPORT_NAME = "report.json"
DEFAULT_CURVES_NAME = "curves.csv"
CSV_HEADER = "t,survival_1,survival_2,se_1,se_2,stoploss_1,stoploss_2"
OUT_DIR_ENV = "LSEMIX_OUT_DIR"

#: Map presets by name; each is the AlphaBetaMap classmethod of that name.
_MAP_PRESETS = ("plain", "mean_variance", "skew_slash", "location_mixture", "scale_only")


# --------------------------------------------------------------------------
# Scenario model


@dataclass(frozen=True)
class ScenarioSpec:
    seed: int
    orders: tuple[OrderKind, ...]
    distribution_1: LseDistribution
    distribution_2: LseDistribution
    mc: McConfig | None
    report_name: str = DEFAULT_REPORT_NAME
    curves_name: str = DEFAULT_CURVES_NAME


# --------------------------------------------------------------------------
# Readers of one JSON value (path-precise errors)


def _fail(path: str, message: str) -> "ScenarioError":
    return ScenarioError(f"{path}: {message}")


def _as_mapping(node, path: str) -> dict:
    """The object ``node`` without its null-valued keys: null counts as absent."""
    if not isinstance(node, dict):
        raise _fail(path, f"expected an object, got {type(node).__name__}")
    return {key: value for key, value in node.items() if value is not None}


def _known_keys(node: dict, path: str, allowed) -> None:
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        raise _fail(path, f"unknown keys {unknown}; allowed: {sorted(allowed)}")


def _required_keys(node: dict, path: str, keys) -> None:
    for key in keys:
        if key not in node:
            raise _fail(path, f"missing required key {key!r}")


def _as_number(node, path: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise _fail(path, f"expected a number, got {type(node).__name__}")
    try:
        value = float(node)
    except OverflowError:  # an integer literal past the double range
        value = math.inf
    if not math.isfinite(value):
        raise _fail(path, "expected a finite number")
    return value


def _as_int(node, path: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise _fail(path, f"expected an integer, got {type(node).__name__}")
    return node


def _as_seed(node, path: str) -> int:
    seed = _as_int(node, path)
    if not 0 <= seed < 2 ** 64:
        raise _fail(path, "seed must fit in 64 unsigned bits")
    return seed


def _as_name(node, path: str) -> str:
    if not isinstance(node, str) or not node:
        raise _fail(path, "expected a nonempty file name")
    return node


def _as_enum(names, node, path: str) -> str:
    """``node`` if it is one of ``names`` (an Enum's values or a table's keys)."""
    if not isinstance(node, str) or node not in names:
        raise _fail(path, f"unknown value {node!r}; choose from {list(names)}")
    return node


def _as_vector(node, path: str) -> tuple[float, ...]:
    if not isinstance(node, list) or not node:
        raise _fail(path, "expected a nonempty array of numbers")
    return tuple(_as_number(v, f"{path}[{i}]") for i, v in enumerate(node))


def _as_matrix(node, path: str) -> tuple[tuple[float, ...], ...]:
    if not isinstance(node, list) or not node:
        raise _fail(path, "expected a nonempty array of rows")
    rows = tuple(_as_vector(row, f"{path}[{i}]") for i, row in enumerate(node))
    width = len(rows[0])
    if any(len(r) != width for r in rows) or width != len(rows):
        raise _fail(path, f"expected a square matrix, got rows of sizes {[len(r) for r in rows]}")
    return rows


def _as_atoms(node, path: str) -> tuple[tuple[float, ...], ...]:
    if not isinstance(node, list) or not node:
        raise _fail(path, "expected a nonempty array of [z, w] pairs")
    for i, pair in enumerate(node):
        if not isinstance(pair, list) or len(pair) != 2:
            raise _fail(f"{path}[{i}]", "expected a [z, w] pair")
    return tuple(_as_vector(pair, f"{path}[{i}]") for i, pair in enumerate(node))


# --------------------------------------------------------------------------
# Scenario objects: one table of (JSON key, attribute, reader) rows each,
# read by _read and written by _write.  A row is required when the class
# gives its attribute no default.


_GENERATOR = (
    ("family", "family", partial(_as_enum, [f.value for f in GeneratorFamily])),
    ("dof", "dof", _as_int),
    ("power", "power", _as_number),
)
_MAP = (
    ("alpha", "alpha_kind", partial(_as_enum, [k.value for k in AlphaKind])),
    ("beta", "beta_kind", partial(_as_enum, [k.value for k in BetaKind])),
    ("alpha_power", "alpha_power", _as_number),
    ("beta_power", "beta_power", _as_number),
)
_MIXING = {
    "degenerate": (Degenerate, (("z0", "z0", _as_number),)),
    "beta_lambda_one": (BetaLambdaOne, (("lam", "lam", _as_number),)),
    "gig": (GeneralizedInverseGaussian,
            (("lam", "lam", _as_number), ("chi", "chi", _as_number), ("tau", "tau", _as_number))),
    "discrete": (DiscreteWeighted, (("atoms", "atoms", _as_atoms),)),
}
_MC = (
    ("sample_count", "sample_count", _as_int),
    ("confidence_multiplier", "confidence_multiplier", _as_number),
    ("grid", "grid", _as_vector),
    ("chunk_size", "chunk_size", _as_int),
)
#: The outputs object sets the two file-name fields of the ScenarioSpec.
_OUTPUTS = (
    ("report", "report_name", _as_name),
    ("curves", "curves_name", _as_name),
)


def _read(cls, fields, node, path: str, **given):
    """``cls(**given, ...)`` with one argument per row present in ``node``."""
    node = _as_mapping(node, path)
    _known_keys(node, path, [key for key, _, _ in fields])
    required = {f.name for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING}
    _required_keys(node, path, [key for key, attr, _ in fields if attr in required])
    kwargs = {attr: read(node[key], f"{path}.{key}") for key, attr, read in fields if key in node}
    try:
        return cls(**given, **kwargs)
    except LsemixError as exc:
        raise _fail(path, str(exc)) from exc


def _write(obj, fields) -> dict:
    """The JSON object of ``obj``: one key per row whose attribute is not None."""
    node = {}
    for key, attr, _ in fields:
        value = getattr(obj, attr)
        if value is not None:
            node[key] = value.value if isinstance(value, Enum) else value
    return node


def _read_map(node, path: str) -> AlphaBetaMap:
    node = _as_mapping(node, path)
    if "preset" not in node:
        return _read(AlphaBetaMap, _MAP, node, path)
    _known_keys(node, path, ["preset"])
    return getattr(AlphaBetaMap, _as_enum(_MAP_PRESETS, node["preset"], f"{path}.preset"))()


def _read_mixing(node, path: str) -> MixingDistribution:
    node = _as_mapping(node, path)
    _required_keys(node, path, ["kind"])
    cls, fields = _MIXING[_as_enum(_MIXING, node.pop("kind"), f"{path}.kind")]
    return _read(cls, fields, node, path)


def _mixing_node(mix: MixingDistribution) -> dict:
    for kind, (cls, fields) in _MIXING.items():
        if isinstance(mix, cls):
            return {"kind": kind, **_write(mix, fields)}
    raise ScenarioError(f"cannot serialize mixing law {mix!r}")


def _read_distribution(node, path: str) -> LseDistribution:
    node = _as_mapping(node, path)
    _known_keys(node, path, ["mu", "sigma", "delta", "generator", "map", "mixing"])
    _required_keys(node, path, ["mu", "sigma", "generator", "map", "mixing"])
    mu = _as_vector(node["mu"], f"{path}.mu")
    sigma = _as_matrix(node["sigma"], f"{path}.sigma")
    if len(sigma) != len(mu):
        raise _fail(f"{path}.sigma", f"size {len(sigma)} does not match mu size {len(mu)}")
    delta = _as_vector(node["delta"], f"{path}.delta") if "delta" in node else (0.0,) * len(mu)
    if len(delta) != len(mu):
        raise _fail(f"{path}.delta", f"size {len(delta)} does not match mu size {len(mu)}")
    generator = _read(DensityGenerator, _GENERATOR, node["generator"], f"{path}.generator")
    ab_map = _read_map(node["map"], f"{path}.map")
    mixing = _read_mixing(node["mixing"], f"{path}.mixing")
    try:  # symmetry / positive-definiteness / domain checks
        return LseDistribution(mu=mu, sigma=sigma, delta=delta, generator=generator,
                               ab_map=ab_map, mixing=mixing)
    except LsemixError as exc:
        raise _fail(path, str(exc)) from exc


def _distribution_node(d: LseDistribution) -> dict:
    return {
        "mu": d.mu.tolist(),
        "sigma": d.sigma.tolist(),
        "delta": d.delta.tolist(),
        "generator": _write(d.generator, _GENERATOR),
        "map": _write(d.ab_map, _MAP),
        "mixing": _mixing_node(d.mixing),
    }


def _as_orders(node, path: str) -> tuple[OrderKind, ...]:
    if not isinstance(node, list) or not node:
        raise _fail(path, "expected a nonempty array of order names")
    names = [order.value for order in OrderKind]
    return tuple(dict.fromkeys(OrderKind(_as_enum(names, name, f"{path}[{i}]"))
                               for i, name in enumerate(node)))


def parse_scenario(text: str) -> ScenarioSpec:
    """Parse and fully validate a scenario document."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"not valid JSON: {exc}") from exc
    document = _as_mapping(document, "$")
    _known_keys(document, "$",
                ["seed", "orders", "distribution_1", "distribution_2", "mc", "outputs"])
    _required_keys(document, "$", ["seed", "distribution_1", "distribution_2"])
    seed = _as_seed(document["seed"], "$.seed")
    orders = tuple(OrderKind)
    if "orders" in document:
        orders = _as_orders(document["orders"], "$.orders")
    d1 = _read_distribution(document["distribution_1"], "$.distribution_1")
    d2 = _read_distribution(document["distribution_2"], "$.distribution_2")
    if d1.dim != d2.dim:
        raise _fail("$", f"the blocks have different dimensions ({d1.dim} vs {d2.dim})")
    if not d1.shares_family(d2):
        raise _fail("$", "the two blocks must share generator, map, and mixing law; got "
                         f"{d1.describe()} vs {d2.describe()}")
    mc = _read(McConfig, _MC, document["mc"], "$.mc", seed=seed) if "mc" in document else None
    return _read(ScenarioSpec, _OUTPUTS, document.get("outputs", {}), "$.outputs", seed=seed,
                 orders=orders, distribution_1=d1, distribution_2=d2, mc=mc)


def serialize_scenario(spec: ScenarioSpec) -> str:
    """Canonical JSON text for a spec; parse(serialize(spec)) == spec."""
    document = {
        "seed": spec.seed,
        "orders": [o.value for o in spec.orders],
        "distribution_1": _distribution_node(spec.distribution_1),
        "distribution_2": _distribution_node(spec.distribution_2),
        "outputs": _write(spec, _OUTPUTS),
    }
    if spec.mc is not None:
        document["mc"] = _write(spec.mc, _MC)
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


# --------------------------------------------------------------------------
# Report assembly


def _json_safe(value):
    """Recursively convert to JSON-encodable values; non-finite floats
    become strings so the report stays strictly valid JSON."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


def _order_node(report: OrderReport) -> dict:
    return {
        "verdict": report.verdict.value,
        "sufficient": report.sufficient.value,
        "necessary": report.necessary.value,
        "clauses": [
            {"tag": c.tag, "text": c.text, "passed": c.passed}
            for c in report.clauses
        ],
        "assumption_checks": [
            {
                "sigma1": p.sigma1,
                "sigma2": p.sigma2,
                "c_value": p.c_value,
                "converged": p.converged,
                "satisfies_assumption1": p.satisfies_assumption1,
                "satisfies_assumption2": p.satisfies_assumption2,
                "method": "closed_form",
            }
            for p in report.assumption_checks
        ],
    }


def _dominance_node(result: DominanceResult, cfg: McConfig) -> dict:
    point = result.violation_point
    if isinstance(point, tuple):
        point = list(point)
    return {
        "passed": result.passed,
        "max_violation": result.max_violation,
        "violation_point": point,
        "standard_error_at_violation": result.standard_error_at_violation,
        "sample_count": cfg.sample_count,
        "confidence_multiplier": cfg.confidence_multiplier,
    }


def _corner_points(d1: LseDistribution, d2: LseDistribution, seed: int) -> np.ndarray:
    """Deterministic orthant corners: per-coordinate pilot quantiles,
    combined on a product grid (capped via the median for larger n)."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 977)))
    pilot = np.concatenate([d1.sample(rng, 4096), d2.sample(rng, 4096)], axis=0)
    quantiles = np.quantile(pilot, (0.2, 0.5, 0.8), axis=0)  # (3, n)
    n = d1.dim
    if 3 ** n <= 81:
        grids = np.meshgrid(*(quantiles[:, i] for i in range(n)), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)
    corners = [quantiles[1]]
    for level in (0, 2):
        corners.append(quantiles[level])
    return np.asarray(corners)


#: The result of ``coupled_pass`` that each order's Monte Carlo block reads.
_MC_SCANS = {
    OrderKind.ST: "st", OrderKind.ICX: "icx", OrderKind.CX: "cx",
    OrderKind.UO: "orthant", OrderKind.SM: "orthant",
}


def _monte_carlo_blocks(
    spec: ScenarioSpec, d1: LseDistribution, d2: LseDistribution
) -> tuple[dict, SurvivalCurve | None]:
    """Run the applicable scans for the requested orders, all in one coupled
    pass: every chunk of draws is sampled once for all of them."""
    cfg = spec.mc
    requested = set(spec.orders)
    results = coupled_pass(
        d1, d2, cfg,
        # one scan answers both st and icx: icx is read off the st curve
        survival=d1.dim == 1 and bool(requested & {OrderKind.ST, OrderKind.ICX}),
        directions=axis_pair_directions(d1.dim, signed=True) if OrderKind.CX in requested else None,
        corners=_corner_points(d1, d2, spec.seed) if requested & {OrderKind.UO, OrderKind.SM} else None,
    )
    blocks = {order.value: _dominance_node(results[scan], cfg)
              for order, scan in _MC_SCANS.items() if order in requested and scan in results}
    curve = results["st"].curve if "st" in results else None
    return blocks, curve


def _curve_csv(curve: SurvivalCurve) -> str:
    lines = [CSV_HEADER]
    columns = (curve.t, curve.survival_1, curve.survival_2,
               curve.se_1, curve.se_2, curve.stoploss_1, curve.stoploss_2)
    for row in zip(*columns):
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _exit_code(reports: dict[OrderKind, OrderReport], mc_blocks: dict) -> int:
    verdicts = [r.verdict for r in reports.values()]
    mc_failed = any(not block["passed"] for block in mc_blocks.values())
    if Verdict.NOT_ORDERED in verdicts or mc_failed:
        return 2
    if Verdict.INCONCLUSIVE in verdicts:
        return 3
    return 0


def run_check(
    spec: ScenarioSpec,
    out_dir: str | os.PathLike = ".",
    *,
    quiet: bool = False,
    stream=None,
    curves_only: bool = False,
) -> int:
    """Run a scenario; write artifacts; return the exit status."""
    stream = stream if stream is not None else sys.stdout
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    d1, d2 = spec.distribution_1, spec.distribution_2

    def say(message: str) -> None:
        if not quiet:
            print(message, file=stream)

    reports = {} if curves_only else compare(d1, d2, spec.orders)
    for order, report in reports.items():
        say(f"{order.value}: {report.verdict.value}")

    mc_blocks: dict = {}
    curve = None
    if spec.mc is not None:
        mc_blocks, curve = _monte_carlo_blocks(spec, d1, d2)
        for name, block in sorted(mc_blocks.items()):
            say(f"mc/{name}: {'pass' if block['passed'] else 'FAIL'}")
    elif curves_only:
        raise ScenarioError(
            "curves requested but the scenario has no mc block "
            "(add one or pass --samples)"
        )

    if not curves_only:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "seed": spec.seed,
            "distribution_1": _distribution_node(d1),
            "distribution_2": _distribution_node(d2),
            "orders": {k.value: _order_node(v) for k, v in reports.items()},
        }
        if spec.mc is not None:
            payload["monte_carlo"] = mc_blocks
        report_path = out / spec.report_name
        report_path.write_text(
            json.dumps(_json_safe(payload), sort_keys=True, indent=2) + "\n",
            newline="\n",
        )
        say(f"report written to {report_path}")

    if curve is not None:
        curves_path = out / spec.curves_name
        curves_path.write_text(_curve_csv(curve), newline="\n")
        say(f"curves written to {curves_path}")
    elif curves_only:
        raise ScenarioError(
            "no curve data produced: the curves command needs a univariate "
            "scenario requesting the st or icx order"
        )

    return _exit_code(reports, mc_blocks)


# --------------------------------------------------------------------------
# Subcommands


def _load_spec(args: argparse.Namespace) -> ScenarioSpec:
    path = Path(args.spec)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    spec = parse_scenario(text)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=_as_seed(args.seed, "--seed"))
        if spec.mc is not None:
            spec = dataclasses.replace(
                spec, mc=dataclasses.replace(spec.mc, seed=spec.seed))
    if args.samples is not None:
        if spec.mc is None:
            mc = McConfig(sample_count=args.samples, seed=spec.seed)
        else:
            mc = dataclasses.replace(spec.mc, sample_count=args.samples)
        spec = dataclasses.replace(spec, mc=mc)
    return spec


def _out_dir(args: argparse.Namespace) -> str:
    if args.out is not None:
        return args.out
    return os.environ.get(OUT_DIR_ENV, ".")


def _cmd_check(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    return run_check(spec, _out_dir(args), quiet=args.quiet)


def _cmd_curves(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    return run_check(spec, _out_dir(args), quiet=args.quiet, curves_only=True)


def _verdict_line(label: str, verdict) -> str:
    parts = [f"{label}: {verdict.status.value}"]
    if verdict.certificate_kind is not None:
        parts.append(f"certificate: {verdict.certificate_kind.value}")
    if verdict.witness is not None:
        parts.append(f"witness: {np.array2string(verdict.witness, precision=6)}")
    return "  ".join(parts)


def _cmd_cones(args: argparse.Namespace) -> int:
    path = Path(args.matrix)
    try:
        with warnings.catch_warnings():
            # an empty file: the shape check below names it
            warnings.simplefilter("ignore", UserWarning)
            matrix = np.loadtxt(path, dtype=float, ndmin=2)
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ScenarioError(f"{path}: not a numeric matrix: {exc}") from exc
    # Every test validates the matrix, so all run before anything is printed.
    psd = is_psd(matrix)
    copositive = is_copositive(matrix)
    completely_positive = is_completely_positive(matrix)
    print(f"matrix: {matrix.shape[0]} x {matrix.shape[1]}")
    print(_verdict_line("psd", psd))
    print(_verdict_line("copositive", copositive))
    print(_verdict_line("completely_positive", completely_positive))
    if copositive.witness is not None and copositive.status.value == "outside":
        quadratic = float(copositive.witness @ matrix @ copositive.witness)
        print(f"quadratic form at witness: {quadratic!r}")
    if (completely_positive.witness is not None
            and completely_positive.status.value == "outside"):
        print(f"dual pairing at witness: {dual_pairing(matrix, completely_positive.witness)!r}")
    return 0


def _cmd_assumptions(args: argparse.Namespace) -> int:
    flags = {"family": args.family, "dof": args.dof, "power": args.power}
    gen = _read(DensityGenerator, _GENERATOR, flags, "generator")
    try:
        result = limit_ratio(gen, args.sigma1, args.sigma2)
    except LsemixError as exc:
        raise ScenarioError(str(exc)) from exc
    print(f"generator: {gen.describe()}")
    print(f"sigma1={result.sigma1}  sigma2={result.sigma2}")
    print(f"limit ratio C = {result.c_value!r}  (converged: {result.converged})")
    print(f"tail-ratio condition A (C in [0, inf] \\ {{1}}): "
          f"{'satisfied' if result.satisfies_assumption1 else 'NOT satisfied'}")
    print(f"tail-ratio condition B (C in [0, 1)):          "
          f"{'satisfied' if result.satisfies_assumption2 else 'NOT satisfied'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsemix",
        description="Decide stochastic orders between location-scale "
                    "elliptical mixtures and cross-check them by simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--spec", required=True, help="scenario JSON file")
        p.add_argument("--out", default=None,
                       help=f"output directory (default: ${OUT_DIR_ENV} or '.')")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario root seed")
        p.add_argument("--samples", type=int, default=None,
                       help="override (or enable) the Monte Carlo sample count")
        p.add_argument("--quiet", action="store_true",
                       help="suppress progress lines")

    p_check = sub.add_parser(
        "check", help="run order checks (and Monte Carlo when configured)")
    add_scenario_flags(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_curves = sub.add_parser(
        "curves", help="emit survival/stop-loss curve CSV only")
    add_scenario_flags(p_curves)
    p_curves.set_defaults(func=_cmd_curves)

    p_cones = sub.add_parser(
        "cones", help="classify a matrix against the PSD/copositive/"
                      "completely-positive cones")
    p_cones.add_argument("matrix", help="whitespace-delimited square matrix file")
    p_cones.set_defaults(func=_cmd_cones)

    p_assum = sub.add_parser(
        "assumptions", help="report the tail-ratio classification for a "
                            "generator and a scale pair")
    p_assum.add_argument("--family", required=True)
    p_assum.add_argument("--dof", type=int, default=None)
    p_assum.add_argument("--power", type=float, default=None)
    p_assum.add_argument("--sigma1", type=float, required=True)
    p_assum.add_argument("--sigma2", type=float, required=True)
    p_assum.set_defaults(func=_cmd_assumptions)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; the contract reserves 2 for
        # not-ordered verdicts, so remap usage problems to 1
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except LsemixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
