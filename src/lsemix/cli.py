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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cones import dual_pairing, is_completely_positive, is_copositive, is_psd
from .distributions import LseDistribution
from .empirical import (
    DominanceResult, McConfig, SurvivalCurve, stoploss_dominance, verify_cx, verify_icx,
    verify_orthant, verify_st,
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
from .orders import OrderKind, OrderReport, Verdict, axis_pair_directions, check_order

__all__ = [
    "ScenarioSpec",
    "DistributionBlock",
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

_MAP_PRESETS = {
    "plain": AlphaBetaMap.plain,
    "mean_variance": AlphaBetaMap.mean_variance,
    "skew_slash": AlphaBetaMap.skew_slash,
    "location_mixture": AlphaBetaMap.location_mixture,
    "scale_only": AlphaBetaMap.scale_only,
}


# --------------------------------------------------------------------------
# Scenario model


@dataclass(frozen=True)
class DistributionBlock:
    """Plain, comparison-friendly form of one distribution in a scenario."""

    mu: tuple[float, ...]
    sigma: tuple[tuple[float, ...], ...]
    delta: tuple[float, ...]
    generator: DensityGenerator
    ab_map: AlphaBetaMap
    mixing: MixingDistribution

    def build(self) -> LseDistribution:
        return LseDistribution(
            mu=np.asarray(self.mu, dtype=float),
            sigma=np.asarray(self.sigma, dtype=float),
            delta=np.asarray(self.delta, dtype=float),
            generator=self.generator,
            ab_map=self.ab_map,
            mixing=self.mixing,
        )


@dataclass(frozen=True)
class ScenarioSpec:
    seed: int
    orders: tuple[OrderKind, ...]
    block_1: DistributionBlock
    block_2: DistributionBlock
    mc: McConfig | None
    report_name: str
    curves_name: str


# --------------------------------------------------------------------------
# Parsing helpers (path-precise errors)


def _fail(path: str, message: str) -> "ScenarioError":
    return ScenarioError(f"{path}: {message}")


def _as_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise _fail(path, f"expected an object, got {type(node).__name__}")
    return node

def _known_keys(node: dict, path: str, allowed: set[str]) -> None:
    unknown = sorted(set(node) - allowed)
    if unknown:
        raise _fail(path, f"unknown keys {unknown}; allowed: {sorted(allowed)}")


def _as_number(node, path: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise _fail(path, f"expected a number, got {type(node).__name__}")
    value = float(node)
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


def _parse_generator(node, path: str) -> DensityGenerator:
    node = _as_mapping(node, path)
    _known_keys(node, path, {"family", "dof", "power"})
    family_name = node.get("family")
    try:
        family = GeneratorFamily(family_name)
    except ValueError:
        raise _fail(
            f"{path}.family",
            f"unknown family {family_name!r}; choose from "
            f"{[f.value for f in GeneratorFamily]}",
        ) from None
    kwargs = {}
    if "dof" in node:
        kwargs["dof"] = _as_int(node["dof"], f"{path}.dof")
    if "power" in node:
        kwargs["power"] = _as_number(node["power"], f"{path}.power")
    try:
        return DensityGenerator(family, **kwargs)
    except LsemixError as exc:
        raise _fail(path, str(exc)) from exc


def _parse_map(node, path: str) -> AlphaBetaMap:
    node = _as_mapping(node, path)
    if "preset" in node:
        _known_keys(node, path, {"preset"})
        name = node["preset"]
        if name not in _MAP_PRESETS:
            raise _fail(f"{path}.preset",
                        f"unknown preset {name!r}; choose from {sorted(_MAP_PRESETS)}")
        return _MAP_PRESETS[name]()
    _known_keys(node, path, {"alpha", "beta", "alpha_power", "beta_power"})
    try:
        alpha = AlphaKind(node.get("alpha"))
        beta = BetaKind(node.get("beta"))
    except ValueError as exc:
        raise _fail(path, f"bad alpha/beta kind: {exc}") from None
    kwargs = {}
    if node.get("alpha_power") is not None:
        kwargs["alpha_power"] = _as_number(node["alpha_power"], f"{path}.alpha_power")
    if node.get("beta_power") is not None:
        kwargs["beta_power"] = _as_number(node["beta_power"], f"{path}.beta_power")
    try:
        return AlphaBetaMap(alpha, beta, **kwargs)
    except LsemixError as exc:
        raise _fail(path, str(exc)) from exc


def _parse_mixing(node, path: str) -> MixingDistribution:
    node = _as_mapping(node, path)
    kind = node.get("kind")
    try:
        if kind == "degenerate":
            _known_keys(node, path, {"kind", "z0"})
            return Degenerate(_as_number(node.get("z0"), f"{path}.z0"))
        if kind == "beta_lambda_one":
            _known_keys(node, path, {"kind", "lam"})
            return BetaLambdaOne(_as_number(node.get("lam"), f"{path}.lam"))
        if kind == "gig":
            _known_keys(node, path, {"kind", "lam", "chi", "tau"})
            return GeneralizedInverseGaussian(
                _as_number(node.get("lam"), f"{path}.lam"),
                _as_number(node.get("chi"), f"{path}.chi"),
                _as_number(node.get("tau"), f"{path}.tau"),
            )
        if kind == "discrete":
            _known_keys(node, path, {"kind", "atoms"})
            atoms_node = node.get("atoms")
            if not isinstance(atoms_node, list) or not atoms_node:
                raise _fail(f"{path}.atoms", "expected a nonempty array of [z, w] pairs")
            atoms = []
            for i, pair in enumerate(atoms_node):
                if not isinstance(pair, list) or len(pair) != 2:
                    raise _fail(f"{path}.atoms[{i}]", "expected a [z, w] pair")
                atoms.append((
                    _as_number(pair[0], f"{path}.atoms[{i}][0]"),
                    _as_number(pair[1], f"{path}.atoms[{i}][1]"),
                ))
            return DiscreteWeighted(tuple(atoms))
    except ScenarioError:
        raise
    except LsemixError as exc:
        raise _fail(path, str(exc)) from exc
    raise _fail(
        f"{path}.kind",
        f"unknown mixing kind {kind!r}; choose from "
        "['degenerate', 'beta_lambda_one', 'gig', 'discrete']",
    )


def _parse_block(node, path: str) -> DistributionBlock:
    node = _as_mapping(node, path)
    _known_keys(node, path, {"mu", "sigma", "delta", "generator", "map", "mixing"})
    for key in ("mu", "sigma", "generator", "map", "mixing"):
        if key not in node:
            raise _fail(path, f"missing required key {key!r}")
    mu = _as_vector(node["mu"], f"{path}.mu")
    sigma = _as_matrix(node["sigma"], f"{path}.sigma")
    if len(sigma) != len(mu):
        raise _fail(f"{path}.sigma", f"size {len(sigma)} does not match mu size {len(mu)}")
    delta = (
        _as_vector(node["delta"], f"{path}.delta")
        if "delta" in node
        else tuple(0.0 for _ in mu)
    )
    if len(delta) != len(mu):
        raise _fail(f"{path}.delta", f"size {len(delta)} does not match mu size {len(mu)}")
    block = DistributionBlock(
        mu=mu,
        sigma=sigma,
        delta=delta,
        generator=_parse_generator(node["generator"], f"{path}.generator"),
        ab_map=_parse_map(node["map"], f"{path}.map"),
        mixing=_parse_mixing(node["mixing"], f"{path}.mixing"),
    )
    try:
        block.build()  # symmetry / positive-definiteness / domain checks
    except LsemixError as exc:
        raise _fail(path, str(exc)) from exc
    return block


def parse_scenario(text: str) -> ScenarioSpec:
    """Parse and fully validate a scenario document."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"not valid JSON: {exc}") from exc
    document = _as_mapping(document, "$")
    _known_keys(document, "$",
                {"seed", "orders", "distribution_1", "distribution_2", "mc", "outputs"})
    if "seed" not in document:
        raise _fail("$", "missing required key 'seed'")
    seed = _as_seed(document["seed"], "$.seed")

    if "orders" in document:
        node = document["orders"]
        if not isinstance(node, list) or not node:
            raise _fail("$.orders", "expected a nonempty array of order names")
        orders = []
        for i, name in enumerate(node):
            try:
                orders.append(OrderKind(name))
            except ValueError:
                raise _fail(
                    f"$.orders[{i}]",
                    f"unknown order {name!r}; choose from {[o.value for o in OrderKind]}",
                ) from None
        orders = tuple(dict.fromkeys(orders))
    else:
        orders = tuple(OrderKind)

    for key in ("distribution_1", "distribution_2"):
        if key not in document:
            raise _fail("$", f"missing required key {key!r}")
    block_1 = _parse_block(document["distribution_1"], "$.distribution_1")
    block_2 = _parse_block(document["distribution_2"], "$.distribution_2")
    d1, d2 = block_1.build(), block_2.build()
    if d1.dim != d2.dim:
        raise _fail("$", f"the blocks have different dimensions ({d1.dim} vs {d2.dim})")
    if not d1.shares_family(d2):
        raise _fail(
            "$",
            "the two blocks must share generator, map, and mixing law; got "
            f"{d1.describe()} vs {d2.describe()}",
        )

    mc = None
    if document.get("mc") is not None:
        node = _as_mapping(document["mc"], "$.mc")
        _known_keys(node, "$.mc",
                    {"sample_count", "confidence_multiplier", "grid", "chunk_size"})
        if "sample_count" not in node:
            raise _fail("$.mc", "missing required key 'sample_count'")
        kwargs = {"sample_count": _as_int(node["sample_count"], "$.mc.sample_count"),
                  "seed": seed}
        if "confidence_multiplier" in node:
            kwargs["confidence_multiplier"] = _as_number(
                node["confidence_multiplier"], "$.mc.confidence_multiplier")
        if node.get("grid") is not None:
            kwargs["grid"] = _as_vector(node["grid"], "$.mc.grid")
        if "chunk_size" in node:
            kwargs["chunk_size"] = _as_int(node["chunk_size"], "$.mc.chunk_size")
        try:
            mc = McConfig(**kwargs)
        except LsemixError as exc:
            raise _fail("$.mc", str(exc)) from exc

    report_name, curves_name = DEFAULT_REPORT_NAME, DEFAULT_CURVES_NAME
    if document.get("outputs") is not None:
        node = _as_mapping(document["outputs"], "$.outputs")
        _known_keys(node, "$.outputs", {"report", "curves"})
        if "report" in node:
            if not isinstance(node["report"], str) or not node["report"]:
                raise _fail("$.outputs.report", "expected a nonempty file name")
            report_name = node["report"]
        if "curves" in node:
            if not isinstance(node["curves"], str) or not node["curves"]:
                raise _fail("$.outputs.curves", "expected a nonempty file name")
            curves_name = node["curves"]

    return ScenarioSpec(
        seed=seed,
        orders=orders,
        block_1=block_1,
        block_2=block_2,
        mc=mc,
        report_name=report_name,
        curves_name=curves_name,
    )


# --------------------------------------------------------------------------
# Serialization


def _generator_node(gen: DensityGenerator) -> dict:
    node = {"family": gen.family.value}
    if gen.dof is not None:
        node["dof"] = gen.dof
    if gen.power is not None:
        node["power"] = gen.power
    return node


def _map_node(ab: AlphaBetaMap) -> dict:
    node = {"alpha": ab.alpha_kind.value, "beta": ab.beta_kind.value}
    if ab.alpha_power is not None:
        node["alpha_power"] = ab.alpha_power
    if ab.beta_power is not None:
        node["beta_power"] = ab.beta_power
    return node


def _mixing_node(mix: MixingDistribution) -> dict:
    if isinstance(mix, Degenerate):
        return {"kind": "degenerate", "z0": mix.z0}
    if isinstance(mix, BetaLambdaOne):
        return {"kind": "beta_lambda_one", "lam": mix.lam}
    if isinstance(mix, GeneralizedInverseGaussian):
        return {"kind": "gig", "lam": mix.lam, "chi": mix.chi, "tau": mix.tau}
    if isinstance(mix, DiscreteWeighted):
        return {"kind": "discrete", "atoms": [[z, w] for z, w in mix.atoms]}
    raise ScenarioError(f"cannot serialize mixing law {mix!r}")


def _block_node(block: DistributionBlock) -> dict:
    return {
        "mu": list(block.mu),
        "sigma": [list(row) for row in block.sigma],
        "delta": list(block.delta),
        "generator": _generator_node(block.generator),
        "map": _map_node(block.ab_map),
        "mixing": _mixing_node(block.mixing),
    }


def serialize_scenario(spec: ScenarioSpec) -> str:
    """Canonical JSON text for a spec; parse(serialize(spec)) == spec."""
    document = {
        "seed": spec.seed,
        "orders": [o.value for o in spec.orders],
        "distribution_1": _block_node(spec.block_1),
        "distribution_2": _block_node(spec.block_2),
        "outputs": {"report": spec.report_name, "curves": spec.curves_name},
    }
    if spec.mc is not None:
        document["mc"] = {
            "sample_count": spec.mc.sample_count,
            "confidence_multiplier": spec.mc.confidence_multiplier,
            "grid": None if spec.mc.grid is None else list(spec.mc.grid),
            "chunk_size": spec.mc.chunk_size,
        }
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


def _monte_carlo_blocks(
    spec: ScenarioSpec, d1: LseDistribution, d2: LseDistribution
) -> tuple[dict, SurvivalCurve | None]:
    """Run the applicable verifiers for the requested orders."""
    cfg = spec.mc
    blocks: dict[str, dict] = {}
    curve: SurvivalCurve | None = None
    requested = set(spec.orders)
    if d1.dim == 1:
        if OrderKind.ST in requested:
            result = verify_st(d1, d2, cfg)
            blocks["st"] = _dominance_node(result, cfg)
            curve = result.curve
        if OrderKind.ICX in requested:
            # one scan answers both: reuse the st pass when there was one
            if curve is None:
                result = verify_icx(d1, d2, cfg)
            else:
                result = stoploss_dominance(curve, cfg.confidence_multiplier)
            blocks["icx"] = _dominance_node(result, cfg)
            curve = result.curve
    if OrderKind.CX in requested:
        result = verify_cx(d1, d2, cfg, axis_pair_directions(d1.dim, signed=True))
        blocks["cx"] = _dominance_node(result, cfg)
    orthant_orders = requested & {OrderKind.UO, OrderKind.SM}
    if orthant_orders:
        corners = _corner_points(d1, d2, spec.seed)
        result = verify_orthant(d1, d2, cfg, corners)
        for order in sorted(orthant_orders, key=lambda o: o.value):
            blocks[order.value] = _dominance_node(result, cfg)
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
    d1, d2 = spec.block_1.build(), spec.block_2.build()

    def say(message: str) -> None:
        if not quiet:
            print(message, file=stream)

    reports: dict[OrderKind, OrderReport] = {}
    if not curves_only:
        for order in spec.orders:
            reports[order] = check_order(d1, d2, order)
            say(f"{order.value}: {reports[order].verdict.value}")

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
            "distribution_1": _block_node(spec.block_1),
            "distribution_2": _block_node(spec.block_2),
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
        matrix = np.loadtxt(path, dtype=float, ndmin=2)
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ScenarioError(f"{path}: not a numeric matrix: {exc}") from exc
    print(f"matrix: {matrix.shape[0]} x {matrix.shape[1]}")
    print(_verdict_line("psd", is_psd(matrix)))
    copositive = is_copositive(matrix)
    print(_verdict_line("copositive", copositive))
    completely_positive = is_completely_positive(matrix)
    print(_verdict_line("completely_positive", completely_positive))
    if copositive.witness is not None and copositive.status.value == "outside":
        quadratic = float(copositive.witness @ matrix @ copositive.witness)
        print(f"quadratic form at witness: {quadratic!r}")
    if (completely_positive.witness is not None
            and completely_positive.status.value == "outside"):
        print(f"dual pairing at witness: {dual_pairing(matrix, completely_positive.witness)!r}")
    return 0


def _cmd_assumptions(args: argparse.Namespace) -> int:
    try:
        family = GeneratorFamily(args.family)
    except ValueError:
        raise ScenarioError(
            f"unknown family {args.family!r}; choose from "
            f"{[f.value for f in GeneratorFamily]}"
        ) from None
    kwargs = {}
    if args.dof is not None:
        kwargs["dof"] = args.dof
    if args.power is not None:
        kwargs["power"] = args.power
    try:
        gen = DensityGenerator(family, **kwargs)
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
