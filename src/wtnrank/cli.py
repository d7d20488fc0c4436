"""Command-line pipeline: rank, reduce, sensitivity, network, synth.

Flags may be seeded from an optional key=value config file (--config);
explicit flags win. Logs go to stderr, data only to the output files.
Exit codes: 0 success, 1 numerical failure, 2 usage/input error.
"""
from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import gmatrix, ingest, netexport, ranking, regomax, sensitivity
from .errors import ConvergenceError, TradeDataError

log = logging.getLogger("wtnrank")

DEFAULT_YEAR = 2016
DEFAULT_K = 4


@dataclass(frozen=True)
class RunConfig:
    """Validated settings for one command invocation."""

    input: Path | None = None
    registry: Path | None = None
    year: int = DEFAULT_YEAR
    alpha: float = gmatrix.DEFAULT_ALPHA
    tol: float = ranking.DEFAULT_TOL
    max_iter: int = ranking.DEFAULT_MAX_ITER
    group: tuple[str, ...] = ()
    source_country: str | None = None
    source_product: str | None = None
    products: tuple[str, ...] | None = None
    delta: float = sensitivity.DEFAULT_DELTA
    k: int = DEFAULT_K
    methods: tuple[str, ...] = (sensitivity.METHOD_REDUCED, sensitivity.METHOD_IMPORT_EXPORT)
    global_product: str | None = None
    fmt: str = "both"
    out_dir: Path = Path(".")
    seed: int = 0
    n_countries: int = 8
    n_products: int = 4
    density: float = 0.5
    out: Path | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if self.k < 1:
            raise ValueError("k must be at least 1")


def _parse_config_file(path: Path) -> dict[str, str]:
    values: dict[str, str] = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise TradeDataError(f"config line without '=': {line!r}")
        key, _, val = line.partition("=")
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def _csv_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


_CONVERTERS = {
    "input": Path,
    "registry": Path,
    "year": int,
    "alpha": float,
    "tol": float,
    "max_iter": int,
    "group": _csv_list,
    "source_country": str,
    "source_product": str,
    "products": _csv_list,
    "delta": float,
    "k": int,
    "methods": _csv_list,
    "global_product": str,
    "fmt": str,
    "out_dir": Path,
    "seed": int,
    "n_countries": int,
    "n_products": int,
    "density": float,
    "out": Path,
}


# removed with the series solver; still accepted so old flags and config files keep working
_DEPRECATED = ("series_tol", "max_terms")


def _merge_config(args: argparse.Namespace) -> RunConfig:
    file_values: dict[str, str] = {}
    if getattr(args, "config", None):
        cfg_path = Path(args.config)
        if not cfg_path.exists():
            raise TradeDataError(f"config file not found: {cfg_path}")
        file_values = _parse_config_file(cfg_path)
    for name in _DEPRECATED:
        in_file = file_values.pop(name, None) is not None
        if in_file or getattr(args, name, None) is not None:
            flag = "--" + name.replace("_", "-")
            log.warning("%s is deprecated and has no effect: the reduction is an exact solve", flag)
    unknown = sorted(set(file_values) - set(_CONVERTERS))
    if unknown:
        raise TradeDataError(f"unknown config key(s) in {cfg_path}: {', '.join(unknown)}")
    merged = {}
    for name, convert in _CONVERTERS.items():
        flag = getattr(args, name, None)
        if flag is not None:
            merged[name] = convert(flag) if isinstance(flag, str) else flag
        elif name in file_values:
            merged[name] = convert(file_values[name])
    return RunConfig(**merged)


def _load_tensor(cfg: RunConfig) -> ingest.MoneyTensor:
    if cfg.input is None:
        raise TradeDataError("--input is required")
    if not cfg.input.exists():
        raise TradeDataError(f"input file not found: {cfg.input}")
    registry = None
    if cfg.registry is not None:
        if not cfg.registry.exists():
            raise TradeDataError(f"registry file not found: {cfg.registry}")
        registry = ingest.load_registry(cfg.registry)
    return ingest.load_money_tensor(cfg.input, cfg.year, registry=registry)


def _out_dir(cfg: RunConfig) -> Path:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    return cfg.out_dir


def cmd_synth(cfg: RunConfig) -> int:
    tensor = ingest.synth_tensor(
        cfg.seed, cfg.n_countries, cfg.n_products, cfg.density, year=cfg.year
    )
    out = cfg.out or (_out_dir(cfg) / "synthetic_trade.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    ingest.serialize_tensor(tensor, out)
    log.info("wrote %s (%d entries)", out, tensor.nnz)
    if cfg.registry is not None:
        ingest.save_registry(tensor.registry, cfg.registry)
        log.info("wrote registry %s", cfg.registry)
    return 0


def cmd_rank(cfg: RunConfig) -> int:
    tensor = _load_tensor(cfg)
    reg = tensor.registry
    out = _out_dir(cfg)
    direct, inverted = gmatrix.build_trade_pair(
        tensor, alpha=cfg.alpha, tol=cfg.tol, max_iter=cfg.max_iter
    )
    p = ranking.pagerank(direct, tol=cfg.tol, max_iter=cfg.max_iter)
    p_star = ranking.pagerank(inverted, tol=cfg.tol, max_iter=cfg.max_iter)
    log.info("pagerank converged in %d iterations (residual %.2e)", p.iterations, p.residual)
    log.info("cheirank converged in %d iterations (residual %.2e)", p_star.iterations, p_star.residual)
    table = ingest.volume_ranks(ingest.volumes(tensor))
    per_method = {
        "pagerank": (p.probabilities, None, None),
        "cheirank": (p_star.probabilities, None, None),
        "importrank": (table.import_prob, table.country_import, table.product_import),
        "exportrank": (table.export_prob, table.country_export, table.product_export),
    }
    for name, (nodes, by_country, by_product) in per_method.items():
        if by_country is None:
            by_country = ranking.trace(nodes, "country", reg)
            by_product = ranking.trace(nodes, "product", reg)
        ranking.write_node_ranks(out / f"{name}_nodes.csv", nodes, reg)
        ranking.write_marginal_ranks(
            out / f"{name}_countries.csv", by_country, reg.countries, "country"
        )
        ranking.write_marginal_ranks(
            out / f"{name}_products.csv", by_product, reg.products, "product"
        )
    return 0


def _build_selection(cfg: RunConfig, reg: ingest.Registry) -> regomax.Selection:
    group = cfg.group or reg.countries
    products = cfg.products
    if products is None and cfg.source_product is not None:
        products = (cfg.source_product,)
    elif products is None or products == ("all",):
        products = reg.products
    extra = ()
    if cfg.source_country is not None:
        if cfg.source_product is None:
            raise TradeDataError("--source-product is required with --source-country")
        extra = (reg.node_id(cfg.source_country, cfg.source_product),)
    return regomax.Selection.for_countries(reg, group, products=products, extra_nodes=extra)


def cmd_reduce(cfg: RunConfig) -> int:
    tensor = _load_tensor(cfg)
    reg = tensor.registry
    out = _out_dir(cfg)
    sel = _build_selection(cfg, reg)
    labels = sel.labels(reg)
    direct, inverted = gmatrix.build_trade_pair(
        tensor, alpha=cfg.alpha, tol=cfg.tol, max_iter=cfg.max_iter
    )
    for tag, matrix in (("import", direct), ("export", inverted)):
        result = regomax.reduce(matrix, sel)
        log.info(
            "%s reduction: %d nodes, lambda_c %.6f, solve residual %.2e over %d complement "
            "block(s), weights %s",
            tag, sel.n_selected, result.complement_eigenvalue, result.solve_residual,
            result.complement_blocks, result.weights,
        )
        components = {
            "reduced_full": result.reduced,
            "direct_links": result.direct_part,
            "projector": result.projector_part,
            "indirect": result.indirect_part,
            "indirect_diag": result.indirect_diag,
            "indirect_offdiag": result.indirect_offdiag,
        }
        for name, m in components.items():
            regomax.write_reduced_csv(out / f"{tag}_{name}.csv", m, labels)
        regomax.write_diagnostics(out / f"{tag}_diagnostics.txt", result)
    return 0


def cmd_sensitivity(cfg: RunConfig) -> int:
    if cfg.delta == 0.0:
        raise ValueError("delta must be nonzero")
    tensor = _load_tensor(cfg)
    out = _out_dir(cfg)
    needs_spec = {sensitivity.METHOD_REDUCED, sensitivity.METHOD_IMPORT_EXPORT} & set(cfg.methods)
    spec = None
    if needs_spec:
        if not cfg.group or cfg.source_country is None or cfg.source_product is None:
            raise TradeDataError(
                "--group, --source-country and --source-product are required"
            )
        spec = sensitivity.ShockSpec(
            source_country=cfg.source_country,
            source_product=cfg.source_product,
            group=cfg.group,
            delta=cfg.delta,
        )
    for method in cfg.methods:
        if method == sensitivity.METHOD_REDUCED:
            report = sensitivity.reduced_balance_sensitivity(
                tensor, spec, alpha=cfg.alpha, tol=cfg.tol, max_iter=cfg.max_iter
            )
            path = out / "sensitivity_regomax.csv"
        elif method == sensitivity.METHOD_IMPORT_EXPORT:
            report = sensitivity.import_export_sensitivity(tensor, spec)
            path = out / "sensitivity_import_export.csv"
        elif method == sensitivity.METHOD_GLOBAL_PRICE:
            product = cfg.global_product or cfg.source_product
            if product is None:
                raise TradeDataError("global-price needs --global-product or --source-product")
            report = sensitivity.global_price_sensitivity(
                tensor, product, group=cfg.group or None, alpha=cfg.alpha,
                delta=cfg.delta, tol=cfg.tol, max_iter=cfg.max_iter,
            )
            path = out / "sensitivity_global_price.csv"
        else:
            raise TradeDataError(f"unknown sensitivity method {method!r}")
        sensitivity.write_report(path, report)
        if "richardson_error" in report.metadata:
            log.info("%s richardson error %.3e", method, report.metadata["richardson_error"])
    return 0


def cmd_network(cfg: RunConfig) -> int:
    tensor = _load_tensor(cfg)
    reg = tensor.registry
    out = _out_dir(cfg)
    sel = _build_selection(cfg, reg)
    labels = sel.labels(reg)
    direct, inverted = gmatrix.build_trade_pair(
        tensor, alpha=cfg.alpha, tol=cfg.tol, max_iter=cfg.max_iter
    )
    formats = ("dot", "edge-csv") if cfg.fmt == "both" else (cfg.fmt,)
    for tag, matrix, view in (
        ("import", direct, netexport.VIEW_IMPORT),
        ("export", inverted, netexport.VIEW_EXPORT),
    ):
        result = regomax.reduce(matrix, sel)
        edges = netexport.top_links(result.reduced, labels, cfg.k, view=view)
        for fmt in formats:
            suffix = "dot" if fmt == "dot" else "csv"
            netexport.serialize_graph(edges, fmt, out / f"network_{tag}.{suffix}")
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file; flags win")
    p.add_argument("--input", help="trade CSV input path")
    p.add_argument("--registry", help="registry file fixing code order")
    p.add_argument("--year", type=int, help=f"year to load (default {DEFAULT_YEAR})")
    p.add_argument("--alpha", type=float, help="damping factor in (0,1], default 0.5")
    p.add_argument("--tol", type=float, help="stationary-solver tolerance, default 1e-12")
    p.add_argument("--max-iter", type=int, dest="max_iter", help="solver iteration cap")
    p.add_argument("--out-dir", dest="out_dir", help="output directory (default .)")
    p.add_argument("-v", "--verbose", action="store_true", help="info-level logs on stderr")


def _add_selection(p: argparse.ArgumentParser) -> None:
    p.add_argument("--group", help="comma-separated country codes")
    p.add_argument("--source-country", dest="source_country")
    p.add_argument("--source-product", dest="source_product")
    p.add_argument(
        "--products",
        help="comma-separated product codes for the selection, or 'all' "
        "(default: the source product if given, else all)",
    )
    for name in _DEPRECATED:
        p.add_argument("--" + name.replace("_", "-"), dest=name, help=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wtnrank",
        description="Trade-network ranking, reduction and shock sensitivity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic trade fixture")
    _add_common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--n-countries", type=int, dest="n_countries")
    p.add_argument("--n-products", type=int, dest="n_products")
    p.add_argument("--density", type=float)
    p.add_argument("--out", help="output CSV path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("rank", help="stationary and volume rankings")
    _add_common(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("reduce", help="reduced matrices on a selection")
    _add_common(p)
    _add_selection(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("sensitivity", help="trade-balance shock sensitivity")
    _add_common(p)
    _add_selection(p)
    p.add_argument("--delta", type=float, help="price increment, default 1e-3")
    p.add_argument("--methods", help="comma list: regomax,import-export,global-price")
    p.add_argument("--global-product", dest="global_product")
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("network", help="top-k partner graphs from reductions")
    _add_common(p)
    _add_selection(p)
    p.add_argument("--k", type=int, help=f"partners per country, default {DEFAULT_K}")
    p.add_argument("--format", dest="fmt", choices=("dot", "edge-csv", "both"))
    p.set_defaults(func=cmd_network)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(_merge_config(args))
    except (TradeDataError, OSError, ValueError) as exc:
        log.error("%s", exc)
        return 2
    except (ConvergenceError, np.linalg.LinAlgError) as exc:
        log.error("numerical failure: %s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
