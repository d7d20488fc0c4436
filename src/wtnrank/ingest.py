"""Loading, validation and synthesis of multiproduct bilateral trade tensors.

Input CSV format (UTF-8, comment lines start with '#'):

    year,product,exporter,importer,value_usd

`product` is a 2-character commodity code, `exporter`/`importer` are
2-character country codes, `value_usd` a nonnegative decimal. Cells are
stripped of surrounding whitespace. Duplicate (product, importer, exporter)
rows are summed; self-trade rows are dropped with a warning.

The loader reads the file as text and gathers its lines in blocks of about
`_BLOCK_CHARS` characters. A clean block holds no quote, `#` or NUL, and no
carriage return but in a CRLF line end; each of its lines is 4 commas then
a newline, with no field longer than `csv.field_size_limit()`. `csv.reader`
would read it as plain comma splits, so it is split with `str.split` at C
speed. Every other block, and the header with the comments before it, goes
through `csv.reader`, and a quoted record still open at a block's end reads
on into the next block. Either way the cells of a block's rows go into one
flat list that is validated and converted column by column. Each distinct
year or code string is checked once, values are converted in bulk, and only
integer ids and float values are kept, so the memory taken by the text is
bounded by the block, not the file. Every row of the file is validated,
whatever its year; when a block holds a fault, the per-row rules run over
its rows alone and report the first fault in row and field order, with its
1-based row number, exactly as a row-by-row `csv.reader` loop would.

An optional registry file fixes the index order of countries and products:

    [countries]
    DE
    FR
    [products]
    33
    34
"""
from __future__ import annotations

import csv
import itertools
import logging
import string
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .errors import ParseError, TradeDataError
from .ranking import RankIndex, order_indices

log = logging.getLogger(__name__)

CSV_HEADER = ("year", "product", "exporter", "importer", "value_usd")
_BLOCK_CHARS = 1 << 20  # text tested for the split fast path at a time


@dataclass(frozen=True)
class Registry:
    """Fixed ordering of country and product codes.

    Node ids run over country-product pairs with the product index varying
    fastest: node = country_index * n_products + product_index.
    """

    countries: tuple[str, ...]
    products: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.countries)) != len(self.countries):
            raise TradeDataError("duplicate country codes in registry")
        if len(set(self.products)) != len(self.products):
            raise TradeDataError("duplicate product codes in registry")
        if not self.countries or not self.products:
            raise TradeDataError("registry needs at least one country and one product")

    @cached_property
    def _country_index(self) -> dict[str, int]:
        return {c: i for i, c in enumerate(self.countries)}

    @cached_property
    def _product_index(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.products)}

    @property
    def n_countries(self) -> int:
        return len(self.countries)

    @property
    def n_products(self) -> int:
        return len(self.products)

    @property
    def size(self) -> int:
        return self.n_countries * self.n_products

    def country_index(self, code: str) -> int:
        try:
            return self._country_index[code]
        except KeyError:
            raise TradeDataError(f"unknown country code {code!r}") from None

    def product_index(self, code: str) -> int:
        try:
            return self._product_index[code]
        except KeyError:
            raise TradeDataError(f"unknown product code {code!r}") from None

    def node_id(self, country: str, product: str) -> int:
        return self.country_index(country) * self.n_products + self.product_index(product)

    def node_of(self, country_idx: int, product_idx: int) -> int:
        return country_idx * self.n_products + product_idx

    def country_of(self, node: int) -> str:
        return self.countries[node // self.n_products]

    def product_of(self, node: int) -> str:
        return self.products[node % self.n_products]

    def node_label(self, node: int) -> str:
        return f"{self.country_of(node)}:{self.product_of(node)}"


@dataclass(frozen=True)
class MoneyTensor:
    """Per-product bilateral trade values in USD.

    `flows[p]` is an (n_countries, n_countries) CSR matrix with rows indexed
    by importer and columns by exporter. Instances are treated as immutable;
    the underlying sparse matrices must not be modified after construction.
    """

    year: int
    registry: Registry
    flows: tuple[sparse.csr_matrix, ...]

    def __post_init__(self):
        if len(self.flows) != self.registry.n_products:
            raise TradeDataError("one flow matrix per product required")
        n = self.registry.n_countries
        for p, m in enumerate(self.flows):
            if m.shape != (n, n):
                raise TradeDataError(f"flow matrix shape {m.shape} != ({n}, {n})")
            if m.diagonal().any():
                raise TradeDataError(f"self-trade entries in product {self.registry.products[p]}")
            if m.nnz and m.data.min() < 0:
                raise TradeDataError("negative trade value")

    @classmethod
    def from_entries(
        cls,
        registry: Registry,
        year: int,
        product_idx: np.ndarray,
        importer_idx: np.ndarray,
        exporter_idx: np.ndarray,
        values: np.ndarray,
    ) -> "MoneyTensor":
        """Build from parallel index arrays; duplicate triples are summed."""
        n = registry.n_countries
        # one CSR with the products stacked by row (product p owns rows p*n to
        # p*n + n - 1): each row sees its entries in the same order as a
        # per-product build, so duplicates are summed in the same order
        stacked = sparse.coo_matrix(
            (values, (np.asarray(product_idx) * n + importer_idx, exporter_idx)),
            shape=(registry.n_products * n, n),
        ).tocsr()
        stacked.sum_duplicates()
        stacked.eliminate_zeros()
        flows = tuple(stacked[p * n : (p + 1) * n] for p in range(registry.n_products))
        return cls(year=year, registry=registry, flows=flows)

    @classmethod
    def from_product_matrices(cls, registry: Registry, year: int, matrices) -> "MoneyTensor":
        flows = []
        for m in matrices:
            m = sparse.csr_matrix(m)
            m.eliminate_zeros()
            flows.append(m)
        return cls(year=year, registry=registry, flows=tuple(flows))

    def value(self, product: str, importer: str, exporter: str) -> float:
        p = self.registry.product_index(product)
        i = self.registry.country_index(importer)
        j = self.registry.country_index(exporter)
        return float(self.flows[p][i, j])

    @property
    def nnz(self) -> int:
        return sum(m.nnz for m in self.flows)

    @property
    def total_value(self) -> float:
        return float(sum(m.sum() for m in self.flows))

    def to_records(self):
        """Yield (product, exporter, importer, value) sorted by code."""
        reg = self.registry
        for p in range(reg.n_products):
            coo = self.flows[p].tocoo()
            rows = sorted(
                zip(coo.col, coo.row, coo.data), key=lambda t: (t[0], t[1])
            )
            for exp_i, imp_i, v in rows:
                yield reg.products[p], reg.countries[exp_i], reg.countries[imp_i], float(v)

    def scaled_product(self, product: str, factor: float) -> "MoneyTensor":
        """New tensor with every flow of one product multiplied by `factor`."""
        p = self.registry.product_index(product)
        flows = list(self.flows)
        flows[p] = flows[p] * factor
        return MoneyTensor(year=self.year, registry=self.registry, flows=tuple(flows))

    def scaled_flows(
        self, product: str, exporter: str, importers, factor: float
    ) -> "MoneyTensor":
        """New tensor with flows of `product` from `exporter` into the given
        importer countries multiplied by `factor`."""
        reg = self.registry
        p = reg.product_index(product)
        j = reg.country_index(exporter)
        rows = [reg.country_index(c) for c in importers]
        m = self.flows[p].tolil(copy=True)
        for i in rows:
            if m[i, j] != 0:
                m[i, j] = m[i, j] * factor
        flows = list(self.flows)
        flows[p] = m.tocsr()
        return MoneyTensor(year=self.year, registry=self.registry, flows=tuple(flows))

    @cached_property
    def _volumes(self) -> "VolumeTable":
        reg = self.registry
        imp = np.zeros((reg.n_countries, reg.n_products))
        exp = np.zeros((reg.n_countries, reg.n_products))
        for p, m in enumerate(self.flows):
            imp[:, p] = np.asarray(m.sum(axis=1)).ravel()
            exp[:, p] = np.asarray(m.sum(axis=0)).ravel()
        imp.flags.writeable = exp.flags.writeable = False
        return VolumeTable(registry=reg, import_vol=imp, export_vol=exp)

    def same_trade(self, other: "MoneyTensor") -> bool:
        """Exact equality of registries and stored flow values."""
        if self.registry != other.registry or self.year != other.year:
            return False
        return list(self.to_records()) == list(other.to_records())


@dataclass(frozen=True)
class VolumeTable:
    """Import/export volumes per (country, product) with totals."""

    registry: Registry
    import_vol: np.ndarray  # (n_countries, n_products)
    export_vol: np.ndarray

    @property
    def country_import(self) -> np.ndarray:
        return self.import_vol.sum(axis=1)

    @property
    def country_export(self) -> np.ndarray:
        return self.export_vol.sum(axis=1)

    @property
    def product_import(self) -> np.ndarray:
        return self.import_vol.sum(axis=0)

    @property
    def product_export(self) -> np.ndarray:
        return self.export_vol.sum(axis=0)

    @property
    def total(self) -> float:
        return float(self.import_vol.sum())


@dataclass(frozen=True)
class VolumeRankTable:
    """Probabilities and orderings derived from raw trade volumes.

    Node-level probabilities normalize the per-(country, product) volumes by
    the grand total, so both vectors sum to one.
    """

    registry: Registry
    import_prob: np.ndarray
    export_prob: np.ndarray
    country_import: np.ndarray
    country_export: np.ndarray
    product_import: np.ndarray
    product_export: np.ndarray
    import_order: RankIndex
    export_order: RankIndex
    country_import_order: RankIndex
    country_export_order: RankIndex
    product_import_order: RankIndex
    product_export_order: RankIndex


def load_registry(path) -> Registry:
    countries: list[str] = []
    products: list[str] = []
    section = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.lower() == "[countries]":
                section = countries
                continue
            if line.lower() == "[products]":
                section = products
                continue
            if section is None:
                raise ParseError("code before a [countries]/[products] section", lineno)
            section.append(line)
    if not countries or not products:
        raise TradeDataError(f"registry file {path} must list countries and products")
    return Registry(countries=tuple(countries), products=tuple(products))


def save_registry(registry: Registry, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[countries]\n")
        for c in registry.countries:
            fh.write(c + "\n")
        fh.write("[products]\n")
        for p in registry.products:
            fh.write(p + "\n")


def _check_row(row: list[str], lineno: int) -> None:
    """Raise the ParseError of a data row's first fault, in field order."""
    if len(row) != 5:
        raise ParseError(f"expected 5 columns, got {len(row)}", lineno)
    y_s, product, exporter, importer, value_s = (c.strip() for c in row)
    try:
        int(y_s)
    except ValueError:
        raise ParseError(f"bad year {y_s!r}", lineno) from None
    if len(product) != 2:
        raise ParseError(f"product code {product!r} is not 2 characters", lineno)
    if len(exporter) != 2 or len(importer) != 2:
        raise ParseError("country codes must be 2 characters", lineno)
    try:
        value = float(value_s)
    except ValueError:
        raise ParseError(f"bad value {value_s!r}", lineno) from None
    if not np.isfinite(value) or value < 0:
        raise ParseError(f"value {value_s!r} is negative or not finite", lineno)


def _text_blocks(fh):
    """Yield the lines of the text file `fh` in lists, each ended by the first
    line that brings it to `_BLOCK_CHARS` characters or more.

    When the file cannot be decoded, the lines read before the fault are
    yielded before the error is raised.
    """
    lines: list[str] = []
    size = 0
    try:
        for line in fh:
            lines.append(line)
            size += len(line)
            if size >= _BLOCK_CHARS:
                yield lines
                lines, size = [], 0
    except UnicodeDecodeError:
        yield lines
        raise
    yield lines


def _block_reader(lines: list[str], blocks):
    """A `csv.reader` over one block of lines.

    A record still open at the end of the block reads on into the next
    blocks, and their lines join `lines`; the records that start in the
    block are read once `reader.line_num` reaches the length of `lines`.
    """

    def more():
        for later in blocks:
            lines.extend(later)
            yield from later

    return csv.reader(itertools.chain(lines, more()))


def _clean_rows(block: str) -> int:
    """Row count of a block that `str.split` reads as `csv.reader` does, else 0.

    A clean block has no quote, comment or NUL, and no CR but in a CRLF line
    end; every line is 4 commas then a newline, so no line is blank or has
    another column count; no field is longer than the reader's field size
    limit.
    """
    if '"' in block or "#" in block or "\0" in block or block.count("\r") != block.count("\r\n"):
        return 0
    raw = np.frombuffer(block.encode(), np.uint8)
    seps = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
    if not seps.size or seps.size % 5 or seps[-1] != raw.size - 1:
        return 0
    kinds = raw[seps].reshape(-1, 5)
    if (kinds[:, :4] != ord(",")).any() or (kinds[:, 4] != ord("\n")).any():
        return 0
    # UTF-8 bytes bound the characters of a field from above
    if np.diff(seps, prepend=-1).max() - 1 > csv.field_size_limit():
        return 0
    return len(kinds)


def _read_header(blocks) -> tuple[int, list[str]]:
    """Read the rows up to the header and check it; return its row number and
    the lines after it in the block it ends in."""
    lineno = 0
    for lines in blocks:
        reader = _block_reader(lines, blocks)
        while reader.line_num < len(lines):
            row = next(reader)
            lineno += 1
            if row and not row[0].lstrip().startswith("#"):
                if tuple(c.strip() for c in row) != CSV_HEADER:
                    raise ParseError(
                        f"expected header {','.join(CSV_HEADER)!r}, got {','.join(row)!r}", lineno
                    )
                return lineno, lines[reader.line_num :]
    raise TradeDataError("no records: file is empty")


def _data_chunks(fh):
    """Check the header, then yield (cells, lines) for runs of data rows.

    `cells` holds the 5 cells of a run of data rows back to back and `lines`
    their 1-based row numbers. Each text block gives one run: a clean block
    (see `_clean_rows`) is split with `str.split`, every other block is read
    by `csv.reader`, as are the header and the rows before it. Blank and
    comment rows are skipped. A row with the wrong column count, or a row
    the reader cannot read, ends the run early: the rows before it are
    yielded, and so checked, before its own error is raised.
    """
    blocks = _text_blocks(fh)
    lineno, rest = _read_header(blocks)
    cells: list[str] = []
    lines: list[int] = []
    try:
        for block_lines in filter(None, itertools.chain((rest,), blocks)):  # no lines, no rows
            block = "".join(block_lines)
            n = _clean_rows(block)
            if n:
                block_cells = block.replace("\r\n", "\n").replace("\n", ",").split(",")
                block_cells.pop()  # after the final newline
                yield block_cells, np.arange(lineno + 1, lineno + n + 1)
                lineno += n
                continue
            reader = _block_reader(block_lines, blocks)
            while reader.line_num < len(block_lines):
                row = next(reader)
                lineno += 1
                if len(row) == 5 and not row[0].lstrip().startswith("#"):
                    cells += row
                    lines.append(lineno)
                elif row and not row[0].lstrip().startswith("#"):
                    _check_row(row, lineno)  # raises: the column count is wrong
            yield cells, lines
            cells, lines = [], []
    except (ParseError, csv.Error, UnicodeDecodeError):
        yield cells, lines  # a fault in an earlier row is reported first
        raise
    yield [], []  # so that a file with no data rows still has a run


class _Distinct(dict):
    """Raw cell -> `convert(cell)`, converting each distinct cell once."""

    def __init__(self, convert):
        super().__init__()
        self.convert = convert

    def __missing__(self, raw: str):
        value = self[raw] = self.convert(raw)
        return value


def _code_id(ids: dict[str, int], raw: str) -> int:
    """Id of the stripped 2-character code in `ids`, added in order of first sight."""
    code = raw.strip()
    if len(code) != 2:
        raise ValueError(f"code {code!r} is not 2 characters")
    return ids.setdefault(code, len(ids))


def _convert_chunk(cells, lines, years, products, countries):
    """Validate one chunk column by column and keep the rows of the year.

    Returns the count of self-trade rows dropped and the arrays (line,
    product, importer, exporter, value) of the rows kept. On a fault the
    per-row rules run over the chunk, so the error names its first fault.
    """
    lines = np.asarray(lines, dtype=np.int64)
    m = lines.size
    try:
        in_year = np.fromiter(map(years.__getitem__, cells[0::5]), bool, m)
        p = np.fromiter(map(products.__getitem__, cells[1::5]), np.int64, m)
        e = np.fromiter(map(countries.__getitem__, cells[2::5]), np.int64, m)
        i = np.fromiter(map(countries.__getitem__, cells[3::5]), np.int64, m)
        v = np.fromiter(map(float, cells[4::5]), np.float64, m)
        valid = bool(np.all(np.isfinite(v) & (v >= 0)))
    except ValueError:
        valid = False
    if not valid:
        for k, lineno in enumerate(lines.tolist()):
            _check_row(cells[5 * k : 5 * k + 5], lineno)
        raise RuntimeError("chunk rejected, but no row in it breaks the row rules")
    self_trade = in_year & (e == i)
    keep = in_year & ~self_trade
    return int(self_trade.sum()), (lines[keep], p[keep], i[keep], e[keep], v[keep])


def _index_map(codes, index: dict[str, int]) -> np.ndarray:
    """Registry index of each code, -1 for a code the registry lacks."""
    return np.array([index.get(c, -1) for c in codes], dtype=np.int64)


def load_money_tensor(path, year: int, registry: Registry | None = None) -> MoneyTensor:
    """Load a trade tensor for one year from the CSV format above.

    Without an explicit registry the country and product orderings are the
    lexicographically sorted unions of the codes seen. With a registry,
    unknown codes are rejected.
    """
    years = _Distinct(lambda raw: int(raw.strip()) == year)
    product_ids: dict[str, int] = {}
    country_ids: dict[str, int] = {}
    products = _Distinct(lambda raw: _code_id(product_ids, raw))
    countries = _Distinct(lambda raw: _code_id(country_ids, raw))
    with open(path, encoding="utf-8", newline="") as fh:
        chunks = [
            _convert_chunk(cells, lines, years, products, countries)
            for cells, lines in _data_chunks(fh)
        ]
    dropped_self = sum(dropped for dropped, _ in chunks)
    lines, p, i, e, values = map(np.concatenate, zip(*(kept for _, kept in chunks)))
    del chunks  # here and below: the load sets the peak memory of a `rank` run
    if dropped_self:
        log.warning("%s: dropped %d self-trade row(s)", path, dropped_self)
    if not values.size:
        raise TradeDataError(f"no records for year {year} in {path}")

    # p, i, e are ids in order of first sight; remap them to the registry order
    product_codes = list(product_ids)
    country_codes = list(country_ids)
    if registry is None:
        used_p = np.zeros(len(product_codes), dtype=bool)
        used_p[p] = True
        used_c = np.zeros(len(country_codes), dtype=bool)
        used_c[i] = used_c[e] = True
        registry = Registry(
            countries=tuple(sorted(country_codes[k] for k in np.flatnonzero(used_c))),
            products=tuple(sorted(product_codes[k] for k in np.flatnonzero(used_p))),
        )
    product_map = _index_map(product_codes, registry._product_index)
    country_map = _index_map(country_codes, registry._country_index)
    unknown = (product_map[p] < 0) | (country_map[e] < 0) | (country_map[i] < 0)
    if unknown.any():
        k = int(np.argmax(unknown))
        try:
            registry.product_index(product_codes[p[k]])
            registry.country_index(country_codes[e[k]])
            registry.country_index(country_codes[i[k]])
        except TradeDataError as exc:
            raise TradeDataError(f"line {lines[k]}: {exc}") from None
    del lines, unknown
    p, i, e = product_map[p], country_map[i], country_map[e]
    return MoneyTensor.from_entries(registry, year, p, i, e, values)


def serialize_tensor(tensor: MoneyTensor, path) -> None:
    """Write a tensor in the input CSV format; floats round-trip exactly."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for product, exporter, importer, value in tensor.to_records():
            fh.write(f"{tensor.year},{product},{exporter},{importer},{value!r}\n")


def _synthetic_codes(n: int, alphabet: str, width: int) -> tuple[str, ...]:
    pool = ["".join(t) for t in itertools.product(alphabet, repeat=width)]
    return tuple(pool[:n])


def synth_tensor(
    seed: int, n_countries: int, n_products: int, density: float, year: int = 2016
) -> MoneyTensor:
    """Deterministic synthetic tensor with log-uniform positive flows.

    Roughly density * n_countries * (n_countries-1) * n_products entries.
    When n_products >= 2 the last country's exports of the first product are
    zeroed so that at least one node exercises the dangling-column rule
    (with a single product this could contradict full density, so it is
    skipped there).
    """
    if n_countries < 2 or n_products < 1:
        raise ValueError("need n_countries >= 2 and n_products >= 1")
    if not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")
    if n_countries > 676 or n_products > 100:
        raise ValueError("synthetic code space caps at 676 countries / 100 products")
    rng = np.random.default_rng(seed)
    countries = _synthetic_codes(n_countries, string.ascii_uppercase, 2)
    products = _synthetic_codes(n_products, string.digits, 2)
    registry = Registry(countries=countries, products=products)
    n = n_countries
    mats = []
    for p in range(n_products):
        keep = rng.random((n, n)) < density
        vals = 10.0 ** rng.uniform(2.0, 8.0, size=(n, n))
        m = np.where(keep, vals, 0.0)
        np.fill_diagonal(m, 0.0)
        if p == 0 and n_products >= 2:
            m[:, n - 1] = 0.0  # force a dangling exporter column
        mats.append(sparse.csr_matrix(m))
    return MoneyTensor.from_product_matrices(registry, year, mats)


def volumes(tensor: MoneyTensor) -> VolumeTable:
    """Row/column sums of the per-product flow matrices, computed once per tensor.

    import_vol[c, p] adds flows into country c; export_vol[c, p] flows out.
    The arrays are shared by every caller and read-only.
    """
    return tensor._volumes


def volume_ranks(vol: VolumeTable) -> VolumeRankTable:
    """Normalized volume probabilities with all rank orderings populated."""
    total = vol.total
    if total <= 0:
        raise ValueError("total trade volume is zero")
    import_prob = (vol.import_vol / total).ravel()
    export_prob = (vol.export_vol / total).ravel()
    country_import = vol.country_import / total
    country_export = vol.country_export / total
    product_import = vol.product_import / total
    product_export = vol.product_export / total
    return VolumeRankTable(
        registry=vol.registry,
        import_prob=import_prob,
        export_prob=export_prob,
        country_import=country_import,
        country_export=country_export,
        product_import=product_import,
        product_export=product_export,
        import_order=order_indices(import_prob),
        export_order=order_indices(export_prob),
        country_import_order=order_indices(country_import),
        country_export_order=order_indices(country_export),
        product_import_order=order_indices(product_import),
        product_export_order=order_indices(product_export),
    )
