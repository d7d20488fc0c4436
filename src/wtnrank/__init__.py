"""Multiproduct trade-network analysis: stochastic/Google matrices,
stationary rankings, reduced-matrix decomposition and shock sensitivity."""

from .errors import ConvergenceError, ParseError, TradeDataError
from .gmatrix import (
    DEFAULT_ALPHA,
    GoogleMatrix,
    assemble_google,
    build_stochastic,
    build_trade_pair,
    personalization_volume,
    rank_personalization,
)
from .ingest import (
    MoneyTensor,
    Registry,
    VolumeTable,
    load_money_tensor,
    load_registry,
    save_registry,
    serialize_tensor,
    synth_tensor,
)
from .netexport import TradeEdgeList, serialize_graph, top_links
from .ranking import (
    RankVector,
    order_indices,
    pagerank,
    trace,
)
from .regomax import (
    ReducedSet,
    Selection,
    component_weight,
    reduce,
)
from .sensitivity import (
    SensitivityReport,
    ShockSpec,
    balance,
    global_price_sensitivity,
    import_export_sensitivity,
    reduce_for_shock,
    reduced_balance_sensitivity,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "ParseError",
    "TradeDataError",
    "DEFAULT_ALPHA",
    "GoogleMatrix",
    "assemble_google",
    "build_stochastic",
    "build_trade_pair",
    "personalization_volume",
    "rank_personalization",
    "MoneyTensor",
    "Registry",
    "VolumeTable",
    "load_money_tensor",
    "load_registry",
    "save_registry",
    "serialize_tensor",
    "synth_tensor",
    "TradeEdgeList",
    "serialize_graph",
    "top_links",
    "RankVector",
    "order_indices",
    "pagerank",
    "trace",
    "ReducedSet",
    "Selection",
    "component_weight",
    "reduce",
    "SensitivityReport",
    "ShockSpec",
    "balance",
    "global_price_sensitivity",
    "import_export_sensitivity",
    "reduce_for_shock",
    "reduced_balance_sensitivity",
    "__version__",
]
