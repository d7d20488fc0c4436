"""Command-line pipeline: rank, reduce, sensitivity, network, synth.

Flags may be seeded from an optional key=value config file (--config);
explicit flags win. Logs go to stderr, data only to the output files.
Exit codes: 0 success, 1 numerical failure, 2 usage/input error.
"""
from __future__ import annotations

import argparse
import csv
import logging
import os
import sys
import typing
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import gmatrix, ingest, netexport, ranking, regomax, sensitivity
from .errors import ConvergenceError, TradeDataError

log = logging.getLogger("wtnrank")

_GRAPH_SUFFIX = {"dot": "dot", "edge-csv": "csv"}  # network file format -> file suffix
_GRAPH_FORMATS = (*_GRAPH_SUFFIX, "both")
# methods that shock one exporter-product node, described by a sensitivity.ShockSpec
_NODE_SHOCK_METHODS = {sensitivity.METHOD_REDUCED, sensitivity.METHOD_IMPORT_EXPORT}
_REPORT_FILES = {
    sensitivity.METHOD_REDUCED: "sensitivity_regomax.csv",
    sensitivity.METHOD_IMPORT_EXPORT: "sensitivity_import_export.csv",
    sensitivity.METHOD_GLOBAL_PRICE: "sensitivity_global_price.csv",
}


@dataclass(frozen=True)
class RunConfig:
    """Validated settings for one command invocation.

    Each field is one option: `--name-with-dashes` on the command line (only
    `fmt` is spelt `--format`) and `name` in a config file. Its type fixes how
    the text is converted: a `tuple[str, ...]` is a comma-separated list.
    """

    input: Path | None = None
    registry: Path | None = None
    year: int = 2016
    alpha: float = gmatrix.DEFAULT_ALPHA
    tol: float = ranking.DEFAULT_TOL
    max_iter: int = ranking.DEFAULT_MAX_ITER
    group: tuple[str, ...] = ()
    source_country: str | None = None
    source_product: str | None = None
    products: tuple[str, ...] | None = None
    delta: float = sensitivity.DEFAULT_DELTA
    k: int = 4
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
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tol must be finite and positive: {self.tol!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        for name in ("group", "products", "methods"):
            values = getattr(self, name) or ()
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ValueError(f"{name} repeats {', '.join(map(repr, repeated))}")
        if self.fmt not in _GRAPH_FORMATS:
            raise ValueError(f"format must be one of {', '.join(_GRAPH_FORMATS)}: {self.fmt!r}")
        if not self.methods:
            raise ValueError(f"methods must name at least one of {', '.join(_REPORT_FILES)}")
        unknown = [m for m in self.methods if m not in _REPORT_FILES]
        if unknown:
            raise ValueError(f"unknown sensitivity method(s): {', '.join(map(repr, unknown))}")
        # a node shock takes delta in (0, 1), as ShockSpec; global-price in (-1, 1)
        low = 0.0 if _NODE_SHOCK_METHODS & set(self.methods) else -1.0
        if self.delta == 0.0:
            raise ValueError("delta must be nonzero")
        if not low < self.delta < 1.0:
            raise ValueError(f"delta must be in ({low:g}, 1)")


_HELP = {
    "input": "trade CSV input path",
    "registry": "registry file fixing code order",
    "year": "trade year",
    "alpha": "damping factor in (0, 1]",
    "tol": "stationary-solver tolerance",
    "max_iter": "solver iteration cap",
    "group": "comma-separated country codes",
    "source_country": "exporter country of the source node",
    "source_product": "product of the source node",
    "products": "comma-separated product codes for the selection, or 'all' "
    "(default: the source product if given, else all)",
    "delta": "price increment in (0, 1); in (-1, 1) if methods is only global-price",
    "k": "partners per country",
    "methods": f"comma list of {', '.join(_REPORT_FILES)}",
    "global_product": "product shocked by global-price (default: the source product)",
    "fmt": f"graph file format: {', '.join(_GRAPH_FORMATS)}",
    "out_dir": "output directory",
    "seed": "random seed",
    "n_countries": "number of countries",
    "n_products": "number of products",
    "density": "share of country pairs that trade each product",
    "out": "output CSV path (default: synthetic_trade.csv in the output directory)",
}


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


def _converter(hint):
    """The function that turns option text into a value of type `hint`."""
    args = typing.get_args(hint)
    if type(None) in args:
        (hint,) = (a for a in args if a is not type(None))
    return _csv_list if typing.get_origin(hint) is tuple else hint


def _merge_config(args: argparse.Namespace) -> RunConfig:
    file_values: dict[str, str] = {}
    if getattr(args, "config", None):
        cfg_path = Path(args.config)
        if not cfg_path.exists():
            raise TradeDataError(f"config file not found: {cfg_path}")
        file_values = _parse_config_file(cfg_path)
    hints = typing.get_type_hints(RunConfig)
    unknown = sorted(set(file_values) - set(hints))
    if unknown:
        raise TradeDataError(f"unknown config key(s) in {cfg_path}: {', '.join(unknown)}")
    merged = {}
    for name, hint in hints.items():
        raw = getattr(args, name, None)
        if raw is None:
            raw = file_values.get(name)
        if raw is None:
            continue
        convert = _converter(hint)
        try:
            merged[name] = convert(raw)
        except ValueError:
            raise TradeDataError(f"{name}: invalid {convert.__name__} value {raw!r}") from None
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
    return ingest.load_money_tensor(cfg.input, cfg.year, registry=registry, cache_dir=_cache_dir())


def _cache_dir() -> Path | None:
    """The tensor cache: `$XDG_CACHE_HOME/wtnrank`, else `$HOME/.cache/wtnrank`;
    None without either. A relative `XDG_CACHE_HOME` is ignored, as the XDG
    base directory spec asks."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        home = os.environ.get("HOME")
        base = home and os.path.join(home, ".cache")
    return Path(base, "wtnrank") if base else None


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
    # the volume shares; build_trade_pair has refused a zero total
    vol = tensor.volumes
    total = vol.total
    per_method = {
        "pagerank": (p.probabilities, None, None),
        "cheirank": (p_star.probabilities, None, None),
        "importrank": (
            (vol.import_vol / total).ravel(), vol.country_import / total, vol.product_import / total
        ),
        "exportrank": (
            (vol.export_vol / total).ravel(), vol.country_export / total, vol.product_export / total
        ),
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


def _reductions(cfg: RunConfig, k: int | None = None):
    """Load the tensor, create the output directory, and yield
    `(tag, labels, ReducedSet)` for the import and the export direction.
    With `k`, first check that the selection is large enough for k partners."""
    tensor = _load_tensor(cfg)
    reg = tensor.registry
    _out_dir(cfg)
    sel = _build_selection(cfg, reg)
    labels = sel.labels(reg)
    if k is not None:
        netexport.check_k(k, len(labels))
    results = regomax.reduce_trade_pair(tensor, sel, cfg.alpha, cfg.tol, cfg.max_iter)
    for tag in (netexport.VIEW_IMPORT, netexport.VIEW_EXPORT):
        yield tag, labels, next(results)


@regomax.one_blas_thread()  # the split's dense products, too, round differently at each thread count
def cmd_reduce(cfg: RunConfig) -> int:
    for tag, labels, result in _reductions(cfg):
        log.info(
            "%s reduction: %d nodes, lambda_c %.6f, solve residual %.2e over %d complement "
            "block(s), weights %s",
            tag, len(labels), result.complement_eigenvalue, result.solve_residual,
            result.complement_blocks, result.weights,
        )
        components = {
            "reduced_full": "reduced",
            "direct_links": "direct_part",
            "projector": "projector_part",
            "indirect": "indirect_part",
            "indirect_diag": "indirect_diag",
            "indirect_offdiag": "indirect_offdiag",
        }
        for name, attr in components.items():
            # read as it is written: each derived component is a new n x n array
            path = cfg.out_dir / f"{tag}_{name}.csv"
            regomax.write_reduced_csv(path, getattr(result, attr), labels)
        regomax.write_diagnostics(cfg.out_dir / f"{tag}_diagnostics.txt", result)
        del result  # before the next direction's reduction runs
    return 0


def cmd_sensitivity(cfg: RunConfig) -> int:
    tensor = _load_tensor(cfg)
    out = _out_dir(cfg)
    spec = None
    if _NODE_SHOCK_METHODS & set(cfg.methods):
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
    product = None
    if sensitivity.METHOD_GLOBAL_PRICE in cfg.methods:
        product = cfg.global_product or cfg.source_product
        if product is None:
            raise TradeDataError("global-price needs --global-product or --source-product")
        tensor.registry.product_index(product)  # an unknown code fails before any method runs
    for method in cfg.methods:
        if method == sensitivity.METHOD_REDUCED:
            report = sensitivity.reduced_balance_sensitivity(
                tensor, spec, alpha=cfg.alpha, tol=cfg.tol, max_iter=cfg.max_iter
            )
        elif method == sensitivity.METHOD_IMPORT_EXPORT:
            report = sensitivity.import_export_sensitivity(tensor, spec)
        else:
            report = sensitivity.global_price_sensitivity(
                tensor, product, group=cfg.group or None, alpha=cfg.alpha,
                delta=cfg.delta, tol=cfg.tol, max_iter=cfg.max_iter,
            )
        sensitivity.write_report(out / _REPORT_FILES[method], report)
        if "fd_error" in report.metadata:
            log.info("%s finite-difference error %.3e", method, report.metadata["fd_error"])
    return 0


def cmd_network(cfg: RunConfig) -> int:
    formats = tuple(_GRAPH_SUFFIX) if cfg.fmt == "both" else (cfg.fmt,)
    for tag, labels, result in _reductions(cfg, k=cfg.k):
        edges = netexport.top_links(result.reduced, labels, cfg.k, view=tag)
        del result  # before the next direction's reduction runs
        for fmt in formats:
            path = cfg.out_dir / f"network_{tag}.{_GRAPH_SUFFIX[fmt]}"
            netexport.serialize_graph(edges, fmt, path)
    return 0


_READS_INPUT = ("input", "registry", "year", "alpha", "tol", "max_iter", "out_dir")
_READS_SHOCK = ("group", "source_country", "source_product")
# command -> (function, help line, its flags: the RunConfig fields it reads)
_COMMANDS = {
    "synth": (
        cmd_synth, "generate a synthetic trade fixture",
        ("registry", "year", "out_dir", "seed", "n_countries", "n_products", "density", "out"),
    ),
    "rank": (cmd_rank, "stationary and volume rankings", _READS_INPUT),
    "reduce": (
        cmd_reduce, "reduced matrices on a selection",
        _READS_INPUT + _READS_SHOCK + ("products",),
    ),
    "sensitivity": (
        cmd_sensitivity, "trade-balance shock sensitivity",
        _READS_INPUT + _READS_SHOCK + ("delta", "methods", "global_product"),
    ),
    "network": (
        cmd_network, "top-k partner graphs from reductions",
        _READS_INPUT + _READS_SHOCK + ("products", "k", "fmt"),
    ),
}


def _help(name: str, default) -> str:
    if default is None or default == ():
        return _HELP[name]
    shown = ",".join(default) if isinstance(default, tuple) else default
    return f"{_HELP[name]} (default {shown})"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wtnrank",
        description="Trade-network ranking, reduction and shock sensitivity",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = {f.name: f.default for f in fields(RunConfig)}
    for command, (func, summary, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="key=value config file; flags win")
        for name in names:
            flag = "--format" if name == "fmt" else "--" + name.replace("_", "-")
            p.add_argument(flag, dest=name, help=_help(name, defaults[name]))
        p.add_argument("-v", "--verbose", action="store_true", help="info-level logs on stderr")
        p.set_defaults(func=func)
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
    except (ConvergenceError, np.linalg.LinAlgError) as exc:  # first: LinAlgError is a ValueError
        log.error("numerical failure: %s", exc)
        return 1
    except (TradeDataError, OSError, ValueError, csv.Error) as exc:  # csv.Error: e.g. a huge field
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
