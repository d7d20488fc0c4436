"""Loading, validation and synthesis of multiproduct bilateral trade tensors.

A `MoneyTensor` holds one node-indexed CSR matrix, importer x exporter;
only this module knows how the products are laid out in it.

Input CSV format (UTF-8, comment lines start with '#'):

    year,product,exporter,importer,value_usd

`product` is a 2-character commodity code, `exporter`/`importer` are
2-character country codes, each code letters or digits, `value_usd` a
nonnegative decimal. Cells are stripped of surrounding whitespace.
Duplicate (product, importer, exporter) rows are summed; self-trade rows
are dropped with a warning.

The byte path reads the file twice. The first pass reads it as text in
blocks of about `_BLOCK_CHARS` characters, each ended at a line end, finds
the header, and any comments before it, with `csv.reader` in the first
block and checks every block after it, parsing nothing. The second pass is
one `np.loadtxt` of the data rows into a table of year and code cells as
bytes and values as floats. Code ids are int16: a code is 2 letters or
digits, and more than 32 768 distinct codes are refused.

`np.loadtxt` reads some text more laxly than `csv.reader` and the row
rules do, so the byte path refuses a quote, `#` or NUL, a CR outside a
CRLF line end, a line longer than `csv.field_size_limit()`, a code cell
that is not 2 ASCII bytes or a year cell longer than 4 bytes. On a
refusal or the first fault it meets, the file is read by one row-by-row
`csv.reader` loop, `_read_rows`, the one statement of the row rules: it
returns the rows of a valid file and raises the first fault of a faulty
one with its 1-based row number. Every row is validated, whatever its year.

Given a cache directory, `load_money_tensor` keeps each tensor it parses in
an `.npz` entry named by the sha256 of the input's bytes, the year, the
registry, this module's source and the numpy and scipy versions, and keeps the
`_CACHE_ENTRIES` most recently used. A later load of the same input reads
that entry instead of the CSV; any fault of the cache falls back to parsing.

An optional registry file fixes the index order of countries and products:

    [countries]
    DE
    FR
    [products]
    33
    34
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import logging
import math
import os
import stat
import string
import tempfile
from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy
from scipy import sparse

from .errors import ParseError, TradeDataError

log = logging.getLogger(__name__)

CSV_HEADER = ("year", "product", "exporter", "importer", "value_usd")
_BLOCK_CHARS = 1 << 20  # text tested for the byte fast path at a time
_CACHE_ENTRIES = 16  # tensors kept in a cache directory: the paper's 13 years fit
# array of a cache entry -> the type its dtype must have
_ENTRY = {"countries": np.str_, "products": np.str_, "indptr": np.signedinteger,
          "indices": np.signedinteger, "data": np.float64, "rows": np.signedinteger,
          "dropped": np.signedinteger}


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
        if max(len(self.countries), len(self.products)) > 1 << 15:  # ingest keeps int16 ids
            raise TradeDataError("registry holds more than 32 768 countries or products")

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

    def country_of(self, node: int) -> str:
        return self.countries[node // self.n_products]

    def product_of(self, node: int) -> str:
        return self.products[node % self.n_products]

    def node_label(self, node: int) -> str:
        return f"{self.country_of(node)}:{self.product_of(node)}"


@dataclass(frozen=True)
class MoneyTensor:
    """Bilateral trade values in USD, indexed by node.

    `matrix` is a (size, size) CSR matrix: entry [node_id(importer, p),
    node_id(exporter, p)] holds the flow of product p from exporter to
    importer, so products never mix. Instances are treated as immutable;
    the matrix must not be modified after construction.
    """

    year: int
    registry: Registry
    matrix: sparse.csr_matrix

    def __post_init__(self):
        reg, m = self.registry, self.matrix
        n_p = reg.n_products
        if m.shape != (reg.size, reg.size):
            raise TradeDataError(f"flow matrix shape {m.shape} != ({reg.size}, {reg.size})")
        for start in range(0, reg.size, n_p):  # one country's rows at a time: no nnz-long arrays
            bounds = m.indptr[start : start + n_p + 1]
            products = m.indices[bounds[0] : bounds[-1]] % n_p
            if (products != np.repeat(np.arange(n_p), np.diff(bounds))).any():
                raise TradeDataError("flow between two products")
        self_trade = np.flatnonzero(m.diagonal()) % n_p
        if self_trade.size:
            raise TradeDataError(f"self-trade entries in product {reg.products[self_trade.min()]}")
        if m.nnz and m.data.min() < 0:
            raise TradeDataError("negative trade value")
        vol = self.volumes  # finite values can still sum past the float range
        for name, table in (("import", vol.import_vol), ("export", vol.export_vol)):
            bad = np.flatnonzero(~np.isfinite(table))
            if bad.size:
                raise TradeDataError(f"{name} volume of node {reg.node_label(bad[0])} is not finite")
        with np.errstate(over="ignore"):
            if not np.isfinite(vol.total):
                raise TradeDataError("total trade volume is not finite")

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
        n_p = registry.n_products
        # within a node row the column exporter * n_p + p grows with the
        # exporter, so duplicates are summed in the order of a per-product build
        # int32 node ids: int16 code ids would wrap, and coo_matrix keeps int32
        matrix = sparse.coo_matrix(
            (values, (np.asarray(importer_idx, np.int32) * n_p + product_idx,
                      np.asarray(exporter_idx, np.int32) * n_p + product_idx)),
            shape=(registry.size, registry.size),
        ).tocsr()
        matrix.eliminate_zeros()
        return cls(year=year, registry=registry, matrix=matrix)

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def to_records(self):
        """Yield (product, exporter, importer, value) sorted by code."""
        reg = self.registry
        n_p = reg.n_products
        for p in range(n_p):
            coo = self.matrix[p::n_p].tocoo()  # rows: importers of product p
            rows = sorted(
                zip((coo.col // n_p).tolist(), coo.row.tolist(), coo.data.tolist())
            )
            for exp_i, imp_i, v in rows:
                yield reg.products[p], reg.countries[exp_i], reg.countries[imp_i], v

    def _scaled(self, factor: float, entries) -> "MoneyTensor":
        """New tensor with the stored flows at `entries` multiplied by `factor`."""
        m = self.matrix.copy()
        m.data[entries] *= factor
        return MoneyTensor(year=self.year, registry=self.registry, matrix=m)

    def scaled_product(self, product: str, factor: float) -> "MoneyTensor":
        """New tensor with every flow of one product multiplied by `factor`."""
        p = self.registry.product_index(product)
        return self._scaled(factor, self.matrix.indices % self.registry.n_products == p)

    def scaled_flows(
        self, product: str, exporter: str, importers, factor: float
    ) -> "MoneyTensor":
        """New tensor with flows of `product` from `exporter` into the given
        importer countries multiplied by `factor`."""
        reg, m = self.registry, self.matrix
        col = reg.node_id(exporter, product)
        rows = [reg.node_id(c, product) for c in importers]
        entries = [k for r in rows for k in range(*m.indptr[r : r + 2]) if m.indices[k] == col]
        return self._scaled(factor, entries)

    @cached_property
    def volumes(self) -> "VolumeTable":
        """Row/column sums of the node flow matrix, computed once per tensor:
        import_vol[c, p] adds flows into country c, export_vol[c, p] flows
        out. The arrays are shared by every reader and read-only."""
        shape = (self.registry.n_countries, self.registry.n_products)
        with np.errstate(over="ignore"):  # an overflowed volume is refused by __post_init__
            imp = np.asarray(self.matrix.sum(axis=1)).reshape(shape)
            exp = np.asarray(self.matrix.sum(axis=0)).reshape(shape)
        imp.flags.writeable = exp.flags.writeable = False
        return VolumeTable(import_vol=imp, export_vol=exp)


@dataclass(frozen=True)
class VolumeTable:
    """Import/export volumes per (country, product) with totals."""

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
            try:
                section.append(_checked_code(line))
            except ValueError as exc:
                raise ParseError(f"code {line!r} is not {exc}", lineno) from None
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


def _checked_code(code: str) -> str:
    """`code` when it is 2 letters or digits, else ValueError naming the rule
    it breaks; so no code holds a `,` of a CSV row or the `:` of a node label."""
    if len(code) != 2:
        raise ValueError("2 characters")
    if not code.isalnum():
        raise ValueError("2 letters or digits")
    return code


def _text_blocks(fh):
    """Yield the text of the file `fh` in blocks of `_BLOCK_CHARS`
    characters, each read on to the end of its last line (or on for the field
    size limit, which a longer line then fails in `_checked_block`). A last
    line without a line end gets a newline: `csv.reader` reads it the same."""
    while block := fh.read(_BLOCK_CHARS):
        if not block.endswith("\n"):
            block += fh.readline(csv.field_size_limit() + 1)
        yield block if block.endswith(("\n", "\r")) else block + "\n"


def _lines(fh):
    """The lines of `fh`, each read in one capped piece: ParseError at a line longer than a row."""
    longest = 5 * (2 * csv.field_size_limit() + 2) + 4  # five quoted fields within the limit
    for lineno, line in enumerate(iter(lambda: fh.readline(longest + 2), ""), start=1):
        if len(line.rstrip("\r\n")) > longest:
            raise ParseError(f"longer than {longest} characters, the most a row can hold", lineno)
        yield line


def _header_rest(block: str) -> tuple[int, str] | None:
    """The count of lines through the header and the text after it in the
    file's first block `block`, or None when the block does not hold a right
    header after blank or comment rows."""
    lines = io.StringIO(block, newline="").readlines()
    reader = csv.reader(lines, strict=True)  # strict: a record cut off by the block's end raises
    try:
        for row in reader:
            if row and not row[0].lstrip().startswith("#"):
                if tuple(c.strip() for c in row) != CSV_HEADER:
                    return None
                return reader.line_num, "".join(lines[reader.line_num :])
    except csv.Error:
        pass
    return None


class _Distinct(dict):
    """Raw cell -> `convert(cell)`, converting each distinct cell once."""

    def __init__(self, convert):
        super().__init__()
        self.convert = convert

    def __missing__(self, raw: str):
        value = self[raw] = self.convert(raw)
        return value


class _Codes(_Distinct):
    """Raw cell -> id of its stripped code in `ids`, where codes take ids in
    order of first sight; a code that is not 2 letters or digits raises
    ValueError. `by_key` caches the id of each code cell that is 2 ASCII
    bytes, by their 16-bit value."""

    def __init__(self):
        super().__init__(self._code_id)
        self.ids: dict[str, int] = {}
        self.by_key = np.full(1 << 16, -1, np.int16)

    def _code_id(self, raw: str) -> int:
        code = _checked_code(raw.strip())
        if code not in self.ids and len(self.ids) >= 1 << 15:  # ids are int16
            raise ValueError("one of the first 32 768 codes")
        return self.ids.setdefault(code, len(self.ids))

    def of_keys(self, keys: np.ndarray) -> np.ndarray:
        """Ids of the code cells with the 16-bit values `keys`."""
        for key in np.unique(keys[self.by_key[keys] < 0]).tolist():
            self.by_key[key] = self[chr(key >> 8) + chr(key & 0xFF)]
        return self.by_key[keys]


# one data row as numpy's CSV reader keeps it: a longer year or code cell is
# cut to the width, so a cell of the full width is known to be too long
_ROW = np.dtype([("year", "S5"), ("product", "S3"), ("exporter", "S3"), ("importer", "S3"), ("value", "f8")])


def _checked_block(block: str) -> bool:
    """Whether the text block `block` holds a data row. Raises ValueError where
    numpy's CSV reader is laxer than `csv.reader` and the row rules: at a
    quote, `#` or NUL, a CR outside a CRLF line end or a line longer than the
    field size limit."""
    if '"' in block or "#" in block or "\0" in block:
        raise ValueError("a quote, comment or NUL")
    if "\r" in block and block.count("\r") != block.count("\r\n"):
        raise ValueError("a CR outside a CRLF line end")
    limit = csv.field_size_limit()
    # a line longer than `limit` covers one of these spans whole, so the lines
    # are measured only when a span holds no line end
    span = limit // 2 + 1
    if any(block.find("\n", k, k + span) < 0 for k in range(0, len(block), span)):
        if max(map(len, block.split("\n"))) > limit:
            raise ValueError("a line longer than the field size limit")
    return bool(block.strip("\r\n"))  # line ends alone are blank rows


def _index_map(codes, index: dict[str, int]) -> np.ndarray:
    """Registry index of each code, -1 for a code the registry lacks."""
    return np.array([index.get(c, -1) for c in codes], dtype=np.int16)


def _read_blocks(path, year: int) -> tuple | None:
    """The rows of `path`, as `_read_rows` gives them, when `_checked_block`
    passes every text block after the header and the one `np.loadtxt` of the
    data rows holds code cells of 2 ASCII bytes and year cells of at most 4;
    else None. A year column of one repeated cell is looked up once; code
    cells map by their 16-bit value."""
    if str(path).endswith((".gz", ".bz2", ".xz", ".lzma")):  # np.loadtxt would unpack the file
        return None
    years, products, countries = _Distinct(lambda raw: int(raw.strip()) == year), _Codes(), _Codes()

    def code_ids(column, codes):
        cells = rows[column].view((np.uint8, 3))
        # a shorter cell is padded with NUL, which `_Codes` refuses in a code
        if cells[:, 2].any() or (cells >= 0x80).any():
            raise ValueError("a code cell is not 2 ASCII bytes")
        return codes.of_keys(cells[:, 0].astype(np.uint16) << 8 | cells[:, 1])

    def in_year(cell: bytes) -> bool:
        if len(cell) > 4:
            raise ValueError("a year cell is longer than 4 bytes")
        return years[cell.decode("ascii")]

    try:  # a refusal or a fault raises ValueError; so does UnicodeDecodeError
        with open(path, encoding="utf-8", newline="") as fh:
            blocks = _text_blocks(fh)
            header = _header_rest(next(blocks, ""))
            if header is None:
                return None
            skip, rest = header
            # a list, not a generator: `any` must not stop before every block is checked
            if not any([_checked_block(block) for block in itertools.chain((rest,), blocks)]):
                return None  # loadtxt would warn, and the row loop reads a header alone at once
        # a path, not the open file, lets numpy read in chunks instead of lines
        rows = np.loadtxt(path, _ROW, delimiter=",", comments=None, skiprows=skip, ndmin=1, encoding="utf-8")
        cells = rows["year"]
        if (cells == cells[0]).all():
            kept = np.full(len(rows), in_year(cells[0]))
        else:
            kept = np.fromiter(map(in_year, cells.tolist()), bool, len(rows))
        p = code_ids("product", products)
        e = code_ids("exporter", countries)
        i = code_ids("importer", countries)
        v = rows["value"]
        if not np.all(np.isfinite(v) & (v >= 0)):
            raise ValueError("a value is negative or not finite")
    except ValueError:
        return None
    self_trade = kept & (e == i)
    kept &= ~self_trade
    return (list(products.ids), list(countries.ids), p[kept], i[kept], e[kept], v[kept],
            int(self_trade.sum()), None)


def _read_rows(path, year: int, registry: Registry | None) -> tuple:
    """Read `path` row by row: raise its first fault, or return its rows.

    This loop is the one statement of the row rules. It raises a bad or no
    header, else the first row that breaks a rule, that `csv.reader` cannot
    read or that is not valid UTF-8. It returns the product and the country
    codes in order of first sight; the product, importer and exporter ids
    and the values of the rows kept for `year`; the count of self-trade rows
    dropped; and the error for the first code of a kept row that `registry`
    lacks, or None.
    """
    years, products, countries = _Distinct(lambda raw: int(raw.strip()) == year), _Codes(), _Codes()
    p, i, e, values = array("h"), array("h"), array("h"), array("d")
    dropped, unknown, header = 0, None, False
    with open(path, encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(_lines(fh)), start=1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if not header:
                if tuple(c.strip() for c in row) != CSV_HEADER:
                    raise ParseError(
                        f"expected header {','.join(CSV_HEADER)!r}, got {','.join(row)!r}", lineno
                    )
                header = True
                continue
            if len(row) != 5:
                raise ParseError(f"expected 5 columns, got {len(row)}", lineno)
            y_s, product, exporter, importer, value_s = row
            try:
                in_year = years[y_s]
            except ValueError:
                raise ParseError(f"bad year {y_s.strip()!r}", lineno) from None
            try:
                pid = products[product]
            except ValueError as exc:
                raise ParseError(f"product code {product.strip()!r} is not {exc}", lineno) from None
            try:
                eid, iid = countries[exporter], countries[importer]
            except ValueError as exc:
                raise ParseError(f"country codes must be {exc}", lineno) from None
            try:
                value = float(value_s)
            except ValueError:
                try:
                    value = float(value_s.strip())
                except ValueError:
                    raise ParseError(f"bad value {value_s.strip()!r}", lineno) from None
            if not (math.isfinite(value) and value >= 0):
                raise ParseError(f"value {value_s.strip()!r} is negative or not finite", lineno)
            if not in_year:
                continue
            if eid == iid:
                dropped += 1
                continue
            if registry is not None and unknown is None:
                try:
                    registry.product_index(product.strip())
                    registry.country_index(exporter.strip())
                    registry.country_index(importer.strip())
                except TradeDataError as exc:
                    unknown = TradeDataError(f"line {lineno}: {exc}")
            p.append(pid)
            i.append(iid)
            e.append(eid)
            values.append(value)
    if not header:
        raise TradeDataError("no records: file is empty")
    p, i, e = (np.frombuffer(ids, np.int16) for ids in (p, i, e))
    values = np.frombuffer(values, np.float64)
    return list(products.ids), list(countries.ids), p, i, e, values, dropped, unknown


def load_money_tensor(path, year: int, registry: Registry | None = None, *,
                      cache_dir=None) -> MoneyTensor:
    """Load a trade tensor for one year from the CSV format above.

    Without an explicit registry the country and product orderings are the
    lexicographically sorted unions of the codes seen. With a registry,
    unknown codes are rejected. A file the byte path does not read whole, or
    with an unknown code, is read by the row loop `_read_rows`. With a
    `cache_dir`, a regular file is looked up in that cache first, and a
    parsed tensor is stored there when the file did not change while read.
    """
    if cache_dir is None:
        return _parse(path, year, registry)[0]
    before = os.stat(path)
    digest = name = cached = None
    if stat.S_ISREG(before.st_mode):  # hashing a pipe would consume it
        with contextlib.suppress(OSError):
            digest, name = _cache_key(path, year, registry)
            cached = _cached(os.path.join(cache_dir, name), year)
    if cached:
        tensor, rows, dropped = cached
        reader = "cache"
        if dropped:
            log.warning("%s: dropped %d self-trade row(s)", path, dropped)
    else:
        tensor, rows, dropped, reader = _parse(path, year, registry)
        after = os.stat(path)
        if name and (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns):
            _store(cache_dir, name, tensor, rows, dropped)
    log.info("%s (sha256 %s): %d rows kept, from the %s",
             os.path.basename(path), digest, rows, reader)
    return tensor


def _parse(path, year: int, registry: Registry | None) -> tuple:
    """The tensor of `path` for `year`, the counts of rows kept and of
    self-trade rows dropped, and the name of the reader that parsed it."""
    reader, rows = "byte path", _read_blocks(path, year)
    if rows is None:
        reader, rows = "row loop", _read_rows(path, year, registry)
    product_codes, country_codes, p, i, e, values, dropped_self, unknown = rows
    if dropped_self:
        log.warning("%s: dropped %d self-trade row(s)", path, dropped_self)
    if not values.size:
        raise TradeDataError(f"no records for year {year} in {path}")

    # p, i, e are ids in order of first sight; remap them to the registry order
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
    if ((product_map[p] < 0) | (country_map[e] < 0) | (country_map[i] < 0)).any():
        raise unknown or _read_rows(path, year, registry)[-1]  # the byte path has no row numbers
    p, i, e = product_map[p], country_map[i], country_map[e]  # rebound: ingest sets the peak of `rank`
    tensor = MoneyTensor.from_entries(registry, year, p, i, e, values)
    return tensor, values.size, dropped_self, reader


def _cache_key(path, year: int, registry: Registry | None) -> tuple[str, str]:
    """The sha256 of the file `path`, and the file name of its cache entry."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    with open(__file__, "rb") as fh:  # a change to the readers retires every entry
        source = hashlib.sha256(fh.read()).hexdigest()
    codes = None if registry is None else [registry.countries, registry.products]
    key = json.dumps([digest.hexdigest(), year, codes, source, np.__version__, scipy.__version__])
    return digest.hexdigest(), hashlib.sha256(key.encode()).hexdigest() + ".npz"


def _cached(entry: str, year: int) -> tuple | None:
    """The tensor, rows kept and self-trade rows dropped that the cache entry
    `entry` holds, through every check of `MoneyTensor`; None when it is
    missing, unreadable or unsound. A hit marks the entry most recently used."""
    try:
        # an open file: np.load leaks the one it opens when the zip is cut off
        with open(entry, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in _ENTRY}
        if not all(np.issubdtype(arrays[name].dtype, t) for name, t in _ENTRY.items()):
            return None
        registry = Registry(countries=tuple(arrays["countries"].tolist()),
                            products=tuple(arrays["products"].tolist()))
        matrix = sparse.csr_matrix((arrays["data"], arrays["indices"], arrays["indptr"]),
                                   shape=(registry.size, registry.size))
        matrix.check_format(full_check=True)  # an index out of range would reach C code
        tensor = MoneyTensor(year=year, registry=registry, matrix=matrix)
        rows, dropped = arrays["rows"].item(), arrays["dropped"].item()
    except FileNotFoundError:
        return None
    except Exception:  # a damaged zip raises many types, from zipfile, zlib and np.load
        log.debug("cache entry %s is unsound", entry, exc_info=True)
        return None
    with contextlib.suppress(OSError):
        os.utime(entry)
    return tensor, rows, dropped


def _store(cache_dir, name: str, tensor: MoneyTensor, rows: int, dropped: int) -> None:
    """Write `tensor` as the cache entry `name` in `cache_dir`, whole or not at
    all, then keep only the `_CACHE_ENTRIES` most recently used files: entries,
    and the temporary files of writers that were killed."""
    m, tmp = tensor.matrix, None
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, countries=np.array(tensor.registry.countries),
                     products=np.array(tensor.registry.products), indptr=m.indptr,
                     indices=m.indices, data=m.data, rows=rows, dropped=dropped)
        os.replace(tmp, os.path.join(cache_dir, name))
        tmp = None
        files = [e for e in os.scandir(cache_dir) if e.name.endswith((".npz", ".tmp"))]
        files.sort(key=lambda e: e.stat().st_mtime_ns, reverse=True)
        for old in files[_CACHE_ENTRIES:]:
            os.remove(old.path)
    except Exception:  # the run has its parsed tensor whatever the store meets
        log.debug("cache entry %s not stored", name, exc_info=True)
    finally:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.remove(tmp)


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
    # room for every off-diagonal entry; pages past the kept ones are never written
    room = n_products * n * (n - 1)
    product, importer, exporter = (np.empty(room, np.int32) for _ in range(3))
    values = np.empty(room)
    kept = 0
    for p in range(n_products):
        keep = rng.random((n, n)) < density
        vals = 10.0 ** rng.uniform(2.0, 8.0, size=(n, n))
        np.fill_diagonal(keep, False)
        if p == 0 and n_products >= 2:
            keep[:, n - 1] = False  # force a dangling exporter column
        rows, cols = np.nonzero(keep)
        end = kept + rows.size
        product[kept:end], importer[kept:end], exporter[kept:end] = p, rows, cols
        values[kept:end] = vals[rows, cols]
        kept = end
    return MoneyTensor.from_entries(
        registry, year, product[:kept], importer[:kept], exporter[:kept], values[:kept]
    )
