"""Loading, validation and synthesis of multiproduct bilateral trade tensors.

Input CSV format (UTF-8, comment lines start with '#'):

    year,product,exporter,importer,value_usd

`product` is a 2-character commodity code, `exporter`/`importer` are
2-character country codes, `value_usd` a nonnegative decimal. Cells are
stripped of surrounding whitespace. Duplicate (product, importer, exporter)
rows are summed; self-trade rows are dropped with a warning.

The loader reads the file as text in blocks of about `_BLOCK_CHARS`
characters, each read whole and ended at a line end. A clean block holds no
quote, `#` or NUL, and no carriage return but in a CRLF line end; each of
its lines is 4 commas then a newline, with no field longer than
`csv.field_size_limit()`. `csv.reader` would read it as plain comma splits,
so it is read from its UTF-8 bytes and the separator positions: a year
column of one repeated cell is looked up once, a code column whose every
cell is 2 printable ASCII bytes maps through a table of their 16-bit
values, and only the value column, and any column that fails these tests,
becomes `str` cells. Every other block, and the header with the comments
before it, goes through `csv.reader`, and a quoted record still open at a
block's end reads on into the next block; the cells of its rows go into one
flat list. Each distinct year or code string is checked once, values are
converted in bulk, and only integer ids and float values are kept, so the
memory taken by the text is bounded by the block, not the file. Every row
of the file is validated, whatever its year; when a block holds a fault,
the per-row rules run over its rows alone and report the first fault in
row and field order, with its 1-based row number, exactly as a row-by-row
`csv.reader` loop would. Invalid UTF-8 fails after the same rows, with the
same error, as it does in that loop.

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
import io
import itertools
import logging
import string
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .errors import ParseError, TradeDataError

log = logging.getLogger(__name__)

CSV_HEADER = ("year", "product", "exporter", "importer", "value_usd")
_BLOCK_CHARS = 1 << 20  # text tested for the byte fast path at a time
_DECODE_AHEAD = 8192  # the bytes a text file decodes at a time when read by lines


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
    """Probabilities derived from raw trade volumes.

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


def _next_block(fh) -> str:
    """Read text up to the end of the first line that brings it to
    `_BLOCK_CHARS` characters or more."""
    text = fh.read(_BLOCK_CHARS)
    if len(text) < _BLOCK_CHARS or text.endswith("\n"):
        return text
    if text.endswith("\r"):  # the line ends here unless "\n" follows
        mark = fh.tell()
        if fh.read(1) == "\n":
            return text + "\n"
        fh.seek(mark)
        return text
    return text + fh.readline()


def _replay(path, done: int):
    """Read `path` line by line from the start, as a row-by-row `csv.reader`
    loop over the text file does; yield the lines after the first `done`
    characters that decode before the fault, then raise its error."""
    rest: list[str] = []
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            for line in fh:
                if done > 0:
                    done -= len(line)
                else:
                    rest.append(line)
        except UnicodeDecodeError:
            yield "".join(rest)
            raise


def _text_blocks(fh):
    """Yield the text of the file `fh` in blocks, each ended by the first line
    that brings it to `_BLOCK_CHARS` characters or more.

    Invalid UTF-8 must fail after the same rows as in a loop that reads the
    file line by line. Such a loop decodes `_DECODE_AHEAD` bytes at a time,
    so it gets every line that ends before the chunk holding the fault; a
    block is yielded only once `_DECODE_AHEAD` more characters have decoded
    after it. A read that meets the fault loses all the text it decoded, so
    the file is then read again line by line, and the lines that loop gets
    before the fault, past the blocks yielded, are yielded before the error
    is raised.
    """
    ahead: list[str] = []  # blocks read, not yet yielded
    ahead_chars = done = 0
    try:
        while block := _next_block(fh):
            ahead.append(block)
            ahead_chars += len(block)
            while ahead_chars - len(ahead[0]) >= _DECODE_AHEAD:
                block = ahead.pop(0)
                ahead_chars -= len(block)
                done += len(block)
                yield block
    except UnicodeDecodeError:
        yield from _replay(fh.name, done)
        raise
    yield from ahead


def _lines(block: str) -> list[str]:
    """The lines of a block, ended as the text file ends them."""
    return io.StringIO(block, newline="").readlines()


def _block_reader(block: str, blocks):
    """A `csv.reader` over one block, and the list of the block's lines.

    A record still open at the end of the block reads on into the next
    blocks, and their lines join the list; the records that start in the
    block are read once `reader.line_num` reaches the length of the list.
    """
    lines = _lines(block)

    def more():
        for later in blocks:
            later = _lines(later)
            lines.extend(later)
            yield from later

    return csv.reader(itertools.chain(lines, more())), lines


class _CleanBlock:
    """The data rows of a clean block, read from its UTF-8 bytes `raw`.

    `end[r, c]` is the position of the separator after field c of row r and
    `start[r, c]` that of its first byte. Only the columns that fail a byte
    test are decoded to `str` cells.
    """

    def __init__(self, block: str, raw: np.ndarray, seps: np.ndarray):
        self.block = block
        self.raw = raw
        self.end = seps
        self.start = np.empty_like(seps)
        self.start[0, 0] = 0
        self.start[1:, 0] = seps[:-1, 4] + 1
        self.start[:, 1:] = seps[:, :4] + 1

    def __len__(self) -> int:
        return len(self.end)

    def cells(self) -> list[str]:
        """The 5 cells of every row, back to back; a CRLF leaves "\\r" on the
        last cell, which the row rules strip."""
        return self.block.replace("\n", ",").split(",")[:-1]

    def column(self, c: int) -> list[str]:
        """The cells of column c."""
        # mark each field of the column and the separator after it
        edge = np.zeros(self.raw.size + 1, bool)
        edge[self.start[:, c]] = edge[self.end[:, c] + 1] = True
        picked = self.raw[np.logical_xor.accumulate(edge[:-1])]
        picked[picked == ord(",")] = ord("\n")
        return picked.tobytes().decode().split("\n")[:-1]

    def same_year(self) -> str | None:
        """The year cell when every row's has the same bytes, else None."""
        start, end = self.start[:, 0], self.end[:, 0]
        width = int(end[0] - start[0])
        if (end - start != width).any():
            return None
        fields = self.raw[start[:, None] + np.arange(width)]
        if (fields != fields[0]).any():
            return None
        return fields[0].tobytes().decode()

    def code_keys(self, c: int) -> np.ndarray | None:
        """The 16-bit value of each cell of column c when every cell is 2
        printable ASCII bytes, else None. Such a cell is its own stripped
        code: nothing in 0x21-0x7E is whitespace or part of a wider character."""
        start = self.start[:, c]
        if (self.end[:, c] - start != 2).any():
            return None
        hi, lo = self.raw[start], self.raw[start + 1]
        if (hi - 0x21 > 0x7E - 0x21).any() or (lo - 0x21 > 0x7E - 0x21).any():  # uint8 wraps
            return None
        return hi.astype(np.intp) << 8 | lo


def _clean_block(block: str) -> _CleanBlock | None:
    """The rows of a block that `csv.reader` would read as plain comma
    splits, else None.

    A clean block has no quote, comment or NUL, and no CR but in a CRLF line
    end; every line is 4 commas then a newline, so no line is blank or has
    another column count; no field is longer than the reader's field size
    limit.
    """
    if '"' in block or "#" in block or "\0" in block:
        return None
    if "\r" in block and block.count("\r") != block.count("\r\n"):
        return None
    raw = np.frombuffer(block.encode(), np.uint8)
    seps = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
    if not seps.size or seps.size % 5 or seps[-1] != raw.size - 1:
        return None
    seps = seps.reshape(-1, 5)
    kinds = raw[seps]
    if (kinds[:, :4] != ord(",")).any() or (kinds[:, 4] != ord("\n")).any():
        return None
    clean = _CleanBlock(block, raw, seps)
    # UTF-8 bytes bound the characters of a field from above
    if (clean.end - clean.start).max() > csv.field_size_limit():
        return None
    return clean


def _read_header(blocks) -> tuple[int, str]:
    """Read the rows up to the header and check it; return its row number and
    the text after it in the block it ends in."""
    lineno = 0
    for block in blocks:
        reader, lines = _block_reader(block, blocks)
        while reader.line_num < len(lines):
            row = next(reader)
            lineno += 1
            if row and not row[0].lstrip().startswith("#"):
                if tuple(c.strip() for c in row) != CSV_HEADER:
                    raise ParseError(
                        f"expected header {','.join(CSV_HEADER)!r}, got {','.join(row)!r}", lineno
                    )
                return lineno, "".join(lines[reader.line_num :])
    raise TradeDataError("no records: file is empty")


def _data_chunks(fh):
    """Check the header, then yield (rows, lines) for runs of data rows.

    `lines` holds the 1-based row numbers of a run. Each text block gives
    one run: a clean block (see `_clean_block`) as its `_CleanBlock`; every
    other block, like the header and the rows before it, is read by
    `csv.reader`, and `rows` holds the 5 cells of its data rows back to
    back. Blank and comment rows are skipped. A row with the wrong column
    count, or a row the reader cannot read, ends the run early: the rows
    before it are yielded, and so checked, before its own error is raised.
    """
    blocks = _text_blocks(fh)
    lineno, rest = _read_header(blocks)
    cells: list[str] = []
    lines: list[int] = []
    try:
        for block in filter(None, itertools.chain((rest,), blocks)):  # no text, no rows
            clean = _clean_block(block)
            if clean is not None:
                yield clean, np.arange(lineno + 1, lineno + len(clean) + 1)
                lineno += len(clean)
                continue
            reader, block_lines = _block_reader(block, blocks)
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


class _Codes(_Distinct):
    """Raw cell -> id of its stripped 2-character code in `ids`, where codes
    take ids in order of first sight; `by_key` caches the id of each code
    cell that is 2 printable ASCII bytes, by their 16-bit value."""

    def __init__(self):
        super().__init__(self._code_id)
        self.ids: dict[str, int] = {}
        self.by_key = np.full(1 << 16, -1, np.int64)

    def _code_id(self, raw: str) -> int:
        code = raw.strip()
        if len(code) != 2:
            raise ValueError(f"code {code!r} is not 2 characters")
        return self.ids.setdefault(code, len(self.ids))

    def of_keys(self, keys: np.ndarray) -> np.ndarray:
        """Ids of the code cells with the 16-bit values `keys`."""
        for key in np.unique(keys[self.by_key[keys] < 0]).tolist():
            self.by_key[key] = self[chr(key >> 8) + chr(key & 0xFF)]
        return self.by_key[keys]


def _values(cells: list[str], m: int) -> np.ndarray:
    """`float` of each stripped value cell, as the row rules read it.

    `float` skips the whitespace that `str.strip` does, but for "\\x1c"-"\\x1f",
    so the cells are stripped only when one fails without.
    """
    try:
        return np.fromiter(map(float, cells), np.float64, m)
    except ValueError:
        return np.fromiter(map(float, map(str.strip, cells)), np.float64, m)


def _convert_chunk(rows, lines, years, products, countries):
    """Validate one chunk column by column and keep the rows of the year.

    `rows` is a `_CleanBlock` or the rows' cells back to back. In a clean
    block, a year column of one repeated cell is looked up once and a code
    column of printable 2-byte cells by key; only the other columns become
    `str` cells. Returns the count of self-trade rows dropped and the arrays
    (line, product, importer, exporter, value) of the rows kept. On a fault
    the per-row rules run over the chunk, so the error names its first fault.
    """
    lines = np.asarray(lines, dtype=np.int64)
    m = lines.size
    clean = isinstance(rows, _CleanBlock)
    column = rows.column if clean else lambda c: rows[c::5]

    def code_ids(c, codes):
        keys = rows.code_keys(c) if clean else None
        if keys is None:
            return np.fromiter(map(codes.__getitem__, column(c)), np.int64, m)
        return codes.of_keys(keys)

    try:
        year = rows.same_year() if clean else None
        if year is None:
            in_year = np.fromiter(map(years.__getitem__, column(0)), bool, m)
        else:
            in_year = np.full(m, years[year])
        p = code_ids(1, products)
        e = code_ids(2, countries)
        i = code_ids(3, countries)
        v = _values(column(4), m)
        valid = bool(np.all(np.isfinite(v) & (v >= 0)))
    except ValueError:
        valid = False
    if not valid:
        cells = rows.cells() if clean else rows
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
    products = _Codes()
    countries = _Codes()
    with open(path, encoding="utf-8", newline="") as fh:
        chunks = [
            _convert_chunk(rows, lines, years, products, countries)
            for rows, lines in _data_chunks(fh)
        ]
    dropped_self = sum(dropped for dropped, _ in chunks)
    lines, p, i, e, values = map(np.concatenate, zip(*(kept for _, kept in chunks)))
    del chunks  # here and below: the load sets the peak memory of a `rank` run
    if dropped_self:
        log.warning("%s: dropped %d self-trade row(s)", path, dropped_self)
    if not values.size:
        raise TradeDataError(f"no records for year {year} in {path}")

    # p, i, e are ids in order of first sight; remap them to the registry order
    product_codes = list(products.ids)
    country_codes = list(countries.ids)
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
    """Normalized volume probabilities per node, per country and per product."""
    total = vol.total
    if total <= 0:
        raise ValueError("total trade volume is zero")
    return VolumeRankTable(
        registry=vol.registry,
        import_prob=(vol.import_vol / total).ravel(),
        export_prob=(vol.export_vol / total).ravel(),
        country_import=vol.country_import / total,
        country_export=vol.country_export / total,
        product_import=vol.product_import / total,
        product_export=vol.product_export / total,
    )
