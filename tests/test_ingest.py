import csv
import hashlib
import logging
import os
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import wtnrank as w
from wtnrank import ingest
from wtnrank.cli import main
from wtnrank.errors import ParseError, TradeDataError

from conftest import (
    assert_same_tensor,
    flow_value,
    from_product_matrices,
    load_money_tensor_reference,
    same_trade,
    total_value,
)

HEADER = "year,product,exporter,importer,value_usd\n"


def write(tmp_path, text, name="trade.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestRegistry:
    def test_node_indexing_bijection(self):
        reg = w.Registry(countries=("AA", "BB", "CC"), products=("10", "20"))
        seen = set()
        for c in reg.countries:
            for p in reg.products:
                i = reg.node_id(c, p)
                assert reg.country_of(i) == c
                assert reg.product_of(i) == p
                seen.add(i)
        assert seen == set(range(reg.size))

    def test_product_varies_fastest(self):
        reg = w.Registry(countries=("AA", "BB"), products=("10", "20", "30"))
        assert reg.node_id("AA", "10") == 0
        assert reg.node_id("AA", "30") == 2
        assert reg.node_id("BB", "10") == 3

    def test_duplicate_codes_rejected(self):
        with pytest.raises(TradeDataError):
            w.Registry(countries=("AA", "AA"), products=("10",))
        with pytest.raises(TradeDataError):
            w.Registry(countries=("AA",), products=("10", "10"))


class TestLoad:
    def test_header_only_is_no_records(self, tmp_path):
        path = write(tmp_path, HEADER)
        with pytest.raises(TradeDataError, match="no records"):
            w.load_money_tensor(path, 2016)

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(TradeDataError, match="no records"):
            w.load_money_tensor(path, 2016)

    def test_single_row(self, tmp_path):
        path = write(tmp_path, HEADER + "2016,33,RU,NL,100\n")
        tensor = w.load_money_tensor(path, 2016)
        assert flow_value(tensor, "33", importer="NL", exporter="RU") == 100.0
        vol = tensor.volumes
        nl = tensor.registry.country_index("NL")
        assert vol.import_vol[nl, 0] == 100.0

    def test_duplicate_rows_summed(self, tmp_path):
        path = write(
            tmp_path, HEADER + "2016,33,RU,NL,10\n2016,33,RU,NL,20\n"
        )
        tensor = w.load_money_tensor(path, 2016)
        assert flow_value(tensor, "33", "NL", "RU") == 30.0

    def test_other_years_filtered(self, tmp_path):
        path = write(tmp_path, HEADER + "2016,33,RU,NL,10\n2012,33,RU,NL,99\n")
        tensor = w.load_money_tensor(path, 2016)
        assert flow_value(tensor, "33", "NL", "RU") == 10.0

    def test_comments_skipped(self, tmp_path):
        path = write(tmp_path, "# a comment\n" + HEADER + "# another\n2016,33,RU,NL,10\n")
        tensor = w.load_money_tensor(path, 2016)
        assert total_value(tensor) == 10.0

    def test_wrong_column_count_names_line(self, tmp_path):
        path = write(tmp_path, HEADER + "2016,33,RU,NL,5\n2016,33,RU\n")
        with pytest.raises(ParseError, match="line 3"):
            w.load_money_tensor(path, 2016)

    def test_non_numeric_value(self, tmp_path):
        path = write(tmp_path, HEADER + "2016,33,RU,NL,abc\n")
        with pytest.raises(ParseError, match="line 2"):
            w.load_money_tensor(path, 2016)

    def test_negative_value(self, tmp_path):
        path = write(tmp_path, HEADER + "2016,33,RU,NL,-5\n")
        with pytest.raises(ParseError, match="negative"):
            w.load_money_tensor(path, 2016)

    def test_bad_code_width(self, tmp_path):
        path = write(tmp_path, HEADER + "2016,333,RU,NL,5\n")
        with pytest.raises(ParseError, match="2 characters"):
            w.load_money_tensor(path, 2016)

    def test_self_trade_dropped(self, tmp_path, caplog):
        path = write(tmp_path, HEADER + "2016,33,RU,RU,5\n2016,33,RU,NL,7\n")
        with caplog.at_level("WARNING", logger="wtnrank.ingest"):
            tensor = w.load_money_tensor(path, 2016)
        assert total_value(tensor) == 7.0
        assert any("self-trade" in r.message for r in caplog.records)

    def test_unknown_code_with_registry(self, tmp_path):
        reg = w.Registry(countries=("NL", "RU"), products=("33",))
        path = write(tmp_path, HEADER + "2016,33,SA,NL,5\n")
        with pytest.raises(TradeDataError, match="SA"):
            w.load_money_tensor(path, 2016, registry=reg)

    def test_registry_built_sorted(self, tmp_path):
        path = write(tmp_path, HEADER + "2016,34,RU,NL,5\n2016,33,AE,FR,2\n")
        tensor = w.load_money_tensor(path, 2016)
        assert tensor.registry.countries == ("AE", "FR", "NL", "RU")
        assert tensor.registry.products == ("33", "34")


def load_logged(load, path, registry):
    """(tensor or raised exception, warnings logged by wtnrank.ingest)."""
    logger = logging.getLogger("wtnrank.ingest")
    records = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING)
    try:
        result = load(path, 2016, registry=registry)
    except Exception as exc:  # compared by type and message with the reference
        result = exc
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return result, [r.getMessage() for r in records]


COUNTRIES = ("AA", "BB", "CC")
PRODUCTS = ("01", "02")
# "\x1c"-"\x1f" are whitespace to str.strip, but not to int or float
PADS = ("", "", "", "", " ", "  ", "\t", "\u00a0", "\x1c", "\x1f")
GOOD = {
    "year": ("2016",) * 6 + ("2015", "+2016", " 2016", "02016", "2_016", "\u0662\u0660\u0661\u0666"),
    "product": PRODUCTS,
    "country": COUNTRIES + ("A\u00c9",),  # 3 UTF-8 bytes
    "value": ("0", "-0", "1", "2.5", "1e3", "1_000", "0.1", "7", "\u0661\u0662", "5\r"),
}
BAD = {
    "year": ("20x6", "", "2016.0"),
    "product": ("1", "123", "", "\u00c9", "0,", "0:", '0"'),
    "country": ("A", "ABC", "", "A,B", "A\nB", "\u00c9", "A,", "A:", 'A"'),  # "\u00c9": 2 bytes, 1 character
    "value": ("abc", "", "-5", "-1e-3", "nan", "inf", "-inf", "1e999"),
}
HEADERS = (
    "year,product,exporter,importer,value_usd",
    " year , product,exporter,importer,\"value_usd\"",
)
BAD_HEADERS = ("year,product,exporter,importer", "year,product,importer,exporter,value_usd")


@st.composite
def cell(draw, kind, bad=False):
    if kind == "value" and not bad and draw(st.booleans()):
        text = repr(draw(st.floats(0.0, 1e12)))
    else:
        text = draw(st.sampled_from(BAD[kind] if bad else GOOD[kind]))
    text = draw(st.sampled_from(PADS)) + text + draw(st.sampled_from(PADS))
    quoted = '"' + text.replace('"', '""') + '"'
    return quoted if draw(st.integers(0, 4)) == 4 else text  # most rows unquoted


FAULTS = (None,) * 6 + (
    "year", "product", "exporter", "importer", "value", "short", "long", "short-long", "cr"
)


@st.composite
def trade_csv(draw):
    """Small CSV text with comments, blank rows, padding, quoting, other years,
    duplicates and self-trade rows, ended by "\n" or "\r\n"; with `faulty`,
    rows also carry faults of every kind, and the header may be wrong.

    A "short-long" fault splits one row in two, so that the file still has
    4 commas per line on the whole; a "cr" fault puts "\r" inside a row."""
    faulty = draw(st.booleans())
    eol = draw(st.sampled_from(("\n", "\n", "\r\n")))
    preamble = st.sampled_from(("", "# leading comment", "  #,a,b,c,d"))
    out = [draw(preamble) for _ in range(draw(st.integers(0, 2)))]
    out.append(draw(st.sampled_from(HEADERS * 4 + (BAD_HEADERS if faulty else ()))))
    rows = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(("data",) * 6 + ("comment", "blank", "duplicate")))
        if kind == "comment":
            rows.append(draw(st.sampled_from(
                ("# note", " # a,b,c,d,e", "#2016,01,AA,BB,5", '"# a,b",c,d,e,f', '"# a\nb",c')
            )))
        elif kind == "blank":
            rows.append("")
        elif kind == "duplicate" and rows:
            rows.append(rows[-1])
        else:
            fault = draw(st.sampled_from(FAULTS)) if faulty else None
            fields = ("year", "product", "exporter", "importer", "value")
            cells = [
                draw(cell("country" if f in ("exporter", "importer") else f, bad=f == fault))
                for f in fields
            ]
            if fault == "short":
                cells = cells[: draw(st.integers(1, 4))]
            elif fault == "long":
                cells.append("9")
            elif fault == "short-long":
                cut = draw(st.integers(1, 4))
                rows.append(",".join(cells[:cut]))
                cells = cells[cut:] + cells
            row = ",".join(cells)
            if fault == "cr":  # a lone carriage return ends a line for csv.reader
                cut = draw(st.integers(0, len(row)))
                row = row[:cut] + "\r" + row[cut:]
            rows.append(row)
    return eol.join(out + rows) + draw(st.sampled_from(("\n", "", "\r\n")))


registries = st.sampled_from(
    (
        None,
        None,
        w.Registry(countries=("CC", "AA", "BB"), products=("02", "01")),
        w.Registry(countries=("AA", "BB"), products=PRODUCTS),  # "CC" unknown
        w.Registry(countries=COUNTRIES, products=("01",)),  # "02" unknown
        w.Registry(countries=("AA",), products=PRODUCTS),  # "BB" and "CC" unknown
        w.Registry(countries=("BB", "AA"), products=("02",)),  # "CC" and "01" unknown
    )
)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("property") / "trade.csv"


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(
        text=trade_csv(),
        registry=registries,
        block=st.sampled_from((1, 2, 7, 20, 48, 100, 1 << 20)),
    )
    def test_same_tensor_or_same_error(self, csv_path, text, registry, block):
        csv_path.write_text(text, encoding="utf-8")
        expected, expected_log = load_logged(load_money_tensor_reference, csv_path, registry)
        with mock.patch.object(ingest, "_BLOCK_CHARS", block):
            actual, actual_log = load_logged(w.load_money_tensor, csv_path, registry)
        if isinstance(expected, Exception):
            assert type(actual) is type(expected)
            assert str(actual) == str(expected)
        else:
            assert_same_tensor(actual, expected)
        assert actual_log == expected_log

    @pytest.mark.parametrize("offset", [-1, 0])
    @pytest.mark.parametrize("fault", ["2016,01,AA,BB,-5", "2016,01,AA"])
    def test_fault_at_first_chunk_boundary(self, tmp_path, offset, fault):
        """The first text block ends `offset` rows after the faulty row, so
        the fault ends the first block (0) or starts the second (-1); either
        way the error is the reference's, on row 102."""
        good = "2016,01,AA,BB,5\n"
        text = HEADER + good * 100 + fault + "\n" + good * 3
        path = write(tmp_path, text)
        first = "".join(text.splitlines(keepends=True)[: 102 + offset])
        with mock.patch.object(ingest, "_BLOCK_CHARS", len(first)):
            with open(path, encoding="utf-8", newline="") as fh:
                assert "".join(next(ingest._text_blocks(fh))) == first
            with pytest.raises(ParseError) as err:
                w.load_money_tensor(path, 2016)
        assert err.value.line == 102
        with pytest.raises(ParseError) as ref:
            load_money_tensor_reference(path, 2016)
        assert str(err.value) == str(ref.value)

    @pytest.mark.parametrize(
        "later", ["2016,1,AA,BB,5", "2016,01,AA", "2016,01,AA,BB,5,6", "20x6,01,AA,BB,5"]
    )
    def test_earlier_fault_in_chunk_wins(self, tmp_path, later):
        path = write(tmp_path, HEADER + "2016,01,AA,BB,5\n2016,01,AA,BB,abc\n" + later + "\n")
        with pytest.raises(ParseError, match="line 3: bad value 'abc'"):
            w.load_money_tensor(path, 2016)

    def test_reader_error_after_earlier_fault(self, tmp_path):
        huge = "9" * (csv.field_size_limit() + 1)
        rows = f"2016,01,AA,BB,nan\n2016,01,AA,BB,5\n2016,01,AA,BB,{huge}\n"
        path = write(tmp_path, HEADER + rows)
        with pytest.raises(ParseError, match="line 2: value 'nan'"):
            w.load_money_tensor(path, 2016)

    def test_balanced_commas_still_count_columns_per_row(self, tmp_path):
        # 8 commas on 2 lines, but the first row has 3 columns and the second 7
        path = write(tmp_path, HEADER + "2016,01,AA\nBB,5,2016,01,AA,BB,5\n")
        with pytest.raises(ParseError) as err:
            w.load_money_tensor(path, 2016)
        assert err.value.line == 2
        assert str(err.value) == "line 2: expected 5 columns, got 3"
        with pytest.raises(ParseError) as ref:
            load_money_tensor_reference(path, 2016)
        assert str(err.value) == str(ref.value)

    # the bad value row starts at byte 745 (row 40) or 30 702 (row 1600)
    @pytest.mark.parametrize("bad_row, bad_byte", [
        (40, 8192 * 3 + 100), (1600, 8192 * 3 + 100), (1600, 8192 * 3 + 7000),
        (1600, 8192 * 5), (10, 20),
    ])
    @pytest.mark.parametrize("block", [50, 1 << 20])
    def test_invalid_utf8_fails_as_a_text_file_does(self, tmp_path, bad_row, bad_byte, block):
        """The decoding error, and any row fault read before it, match the
        reference, which reads the file in text mode."""
        rows = [f"2016,01,{'AÉ' if k % 7 else 'AA'},BB,{k}\n" for k in range(3000)]
        rows[bad_row] = "2016,01,AA,BB,abc\n"
        data = (HEADER + "".join(rows)).encode("utf-8")
        path = tmp_path / "trade.csv"
        path.write_bytes(data[:bad_byte] + b"\xff" + data[bad_byte:])
        with mock.patch.object(ingest, "_BLOCK_CHARS", block):
            actual, _ = load_logged(w.load_money_tensor, path, None)
        expected, _ = load_logged(load_money_tensor_reference, path, None)
        assert type(actual) is type(expected)
        assert str(actual) == str(expected)

    def test_invalid_utf8_just_past_a_block(self, tmp_path):
        """The first block's last row has a bad value, and an invalid byte
        follows at one of many points just past the block's end. Wherever
        it is, the error is the reference's: the bad value, or the decoding
        error when a line-by-line read meets the byte first."""
        block = 16241
        lines = [HEADER] + [f"2016,01,{'AÉ' if k % 7 else 'AA'},BB,{k}\n" for k in range(1500)]
        size = last = 0
        for last, line in enumerate(lines):  # `last`: the last row of the first block
            size += len(line)
            if size >= block:
                break
        lines[last] = "2016,01,AA,BB,abc\n"
        data = "".join(lines).encode("utf-8")
        end = len("".join(lines[: last + 1]).encode("utf-8"))
        path = tmp_path / "trade.csv"
        for bad_byte in range(end, end + 2 * 8192, 256):
            path.write_bytes(data[:bad_byte] + b"\xff" + data[bad_byte:])
            with mock.patch.object(ingest, "_BLOCK_CHARS", block):
                actual, _ = load_logged(w.load_money_tensor, path, None)
            expected, _ = load_logged(load_money_tensor_reference, path, None)
            assert (type(actual), str(actual)) == (type(expected), str(expected)), bad_byte

    @pytest.mark.parametrize("extra", [0, 1])
    def test_field_size_limit_as_in_reference(self, tmp_path, extra):
        huge = "9" * (csv.field_size_limit() + extra)
        path = write(tmp_path, HEADER + f"2016,01,AA,BB,5\n2016,01,AA,BB,{huge}\n")
        actual, _ = load_logged(w.load_money_tensor, path, None)
        expected, _ = load_logged(load_money_tensor_reference, path, None)
        assert type(actual) is type(expected)
        assert str(actual) == str(expected)

    @pytest.mark.parametrize("code", ['"A,"', '"A:"', '"A"""', "A:", '" A:"', "A\u00b7"])
    @pytest.mark.parametrize("column", [1, 2, 3])
    def test_code_must_be_two_letters_or_digits(self, tmp_path, code, column):
        """Such a code would break the CSV rows and node labels written from it."""
        cells = ["2016", "01", "AA", "BB", "5"]
        cells[column] = code
        path = write(tmp_path, HEADER + "2016,01,AA,BB,5\n" + ",".join(cells) + "\n")
        with pytest.raises(ParseError, match="^line 3: .*2 letters or digits$") as err:
            w.load_money_tensor(path, 2016)
        with pytest.raises(ParseError) as ref:
            load_money_tensor_reference(path, 2016)
        assert str(err.value) == str(ref.value)

    @pytest.mark.parametrize("block", [1, 20, 1 << 20])
    def test_header_cell_open_at_a_block_end_as_in_reference(self, tmp_path, block):
        """The header's last cell opens a quote that no later line closes, so
        the whole file is one header record; the first block must not read a
        header out of its part of that record."""
        path = write(tmp_path, 'year,product,exporter,importer,"value_usd\n' + "2016,01,AA,BB,5\n" * 3)
        with mock.patch.object(ingest, "_BLOCK_CHARS", block):
            actual, _ = load_logged(w.load_money_tensor, path, None)
        expected, _ = load_logged(load_money_tensor_reference, path, None)
        assert isinstance(expected, ParseError)
        assert (type(actual), str(actual)) == (type(expected), str(expected))

    def test_padded_codes_are_one_country(self, tmp_path, caplog):
        path = write(tmp_path, HEADER + "2016,01, RU,RU ,5\n2016,01,RU,\" NL\",7\n")
        with caplog.at_level("WARNING", logger="wtnrank.ingest"):
            tensor = w.load_money_tensor(path, 2016)
        assert tensor.registry.countries == ("NL", "RU")
        assert flow_value(tensor, "01", "NL", "RU") == 7.0
        assert any("dropped 1 self-trade row(s)" in r.message for r in caplog.records)


class TestFastPath:
    """Blocks that numpy's CSV reader reads as the row rules do are read by it;
    any other file meets the row loop `_read_rows`, once."""

    @staticmethod
    def written_tensor(tmp_path, eol="\n"):
        """A tensor, and the path of its `serialize_tensor` file ended by `eol`."""
        tensor = w.synth_tensor(2, 30, 5, 0.5)
        path = tmp_path / "t.csv"
        w.serialize_tensor(tensor, path)
        path.write_bytes(path.read_bytes().replace(b"\n", eol.encode()))
        return tensor, path

    @staticmethod
    def load_counting_row_loops(path, year, registry=None):
        """The tensor or the exception raised, and the count of `_read_rows` calls."""
        with mock.patch.object(ingest, "_read_rows", wraps=ingest._read_rows) as rows:
            result, _ = load_logged(w.load_money_tensor, path, registry)
        return result, rows.call_count

    @pytest.mark.parametrize("block", [4096, ingest._BLOCK_CHARS])
    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_written_tensor_reaches_csv_reader_only_for_the_header(self, tmp_path, block, eol):
        tensor, path = self.written_tensor(tmp_path, eol)
        with mock.patch.object(ingest, "_BLOCK_CHARS", block), \
                mock.patch.object(ingest.csv, "reader", wraps=csv.reader) as reader:
            back, row_loops = self.load_counting_row_loops(path, tensor.year)
        assert row_loops == 0
        assert reader.call_count == 1  # over the first block's lines
        assert "".join(reader.call_args.args[0]).startswith(HEADER.replace("\n", eol))
        assert same_trade(back, tensor)
        assert_same_tensor(back, load_money_tensor_reference(path, tensor.year))

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_valid_file_is_read_once(self, tmp_path, eol):
        """A written file with a comment line before its header, or with no
        final line end, is still read by the byte path alone."""
        tensor, path = self.written_tensor(tmp_path, eol)
        data = path.read_bytes()
        for text in (b"# written by synth" + eol.encode() + data, data[: -len(eol)]):
            path.write_bytes(text)
            for block in (4096, ingest._BLOCK_CHARS):
                with mock.patch.object(ingest, "_BLOCK_CHARS", block):
                    back, row_loops = self.load_counting_row_loops(path, tensor.year)
                assert row_loops == 0
                assert same_trade(back, tensor)

    @pytest.mark.parametrize("fault", ["last-value", "columns", "utf8", "unknown-code"])
    def test_failing_file_is_read_again_once(self, tmp_path, fault):
        """The byte path only detects the fault; one row-by-row read raises the
        reference's error."""
        tensor, path = self.written_tensor(tmp_path)
        data = path.read_bytes()
        middle = data.index(b"\n", len(data) // 2) + 1
        registry = None
        if fault == "last-value":
            data = data[: data.rindex(b",") + 1] + b"-5\n"
        elif fault == "columns":
            data = data[:middle] + b"2016,00,AA\n" + data[middle:]
        elif fault == "utf8":
            data = data[:middle] + b"\xff" + data[middle:]
        else:
            reg = tensor.registry
            registry = w.Registry(countries=reg.countries[:-1], products=reg.products)
        path.write_bytes(data)
        with mock.patch.object(ingest, "_BLOCK_CHARS", 4096):
            actual, row_loops = self.load_counting_row_loops(path, tensor.year, registry)
        expected, _ = load_logged(load_money_tensor_reference, path, registry)
        assert row_loops == 1
        assert isinstance(expected, ValueError)
        assert (type(actual), str(actual)) == (type(expected), str(expected))

    @pytest.mark.parametrize("registry", [False, True], ids=["no-registry", "unknown-code"])
    @pytest.mark.parametrize("row", [
        b'"2016","01","AA","AB","5"', b"", b"# 2016,01,AA,AB,5", b"2016,01,AA,AB,-5",
    ], ids=["quoted", "blank-line", "comment", "faulty"])
    def test_file_that_is_not_clean_meets_the_row_loop_once(self, tmp_path, row, registry):
        """A written file with one row changed in its middle: the byte path
        gives up on that row's block and the row loop reads the whole file.
        A blank row is read by the byte path, so only the unknown code of the
        registry sends that file to the row loop."""
        tensor, path = self.written_tensor(tmp_path)
        data = path.read_bytes()
        middle = data.index(b"\n", len(data) // 2) + 1
        path.write_bytes(data[:middle] + row + b"\n" + data[middle:])
        reg = tensor.registry
        registry = w.Registry(countries=reg.countries[:-1], products=reg.products) if registry else None
        with mock.patch.object(ingest, "_BLOCK_CHARS", 4096):
            actual, row_loops = self.load_counting_row_loops(path, tensor.year, registry)
        expected, _ = load_logged(load_money_tensor_reference, path, registry)
        assert row_loops == (1 if row or registry else 0)
        if isinstance(expected, Exception):
            assert (type(actual), str(actual)) == (type(expected), str(expected))
        else:
            assert_same_tensor(actual, expected)

    @pytest.mark.parametrize("text, row_loops", [
        ("2016,01,AA,BB,5\n2016,02,BB,AA,7", 0),
        ("2016,01,AA,\u00a0BB,5\n2016,02,BB\u00a0,AA,7\n", 1),  # a code cell of 3 characters
    ], ids=["no-final-newline", "non-ascii-padding"])
    def test_same_tensor_as_reference(self, tmp_path, text, row_loops):
        path = write(tmp_path, HEADER + text)
        with mock.patch.object(ingest, "_BLOCK_CHARS", 8):
            tensor, calls = self.load_counting_row_loops(path, 2016)
        assert calls == row_loops
        assert_same_tensor(tensor, load_money_tensor_reference(path, 2016))

    @pytest.mark.parametrize("text", [
        "2016,01,A\u00c9,BB,5\n2016,02,BB,A\u00c9,7\n2016,02,BB,AA,7\n",
        "2016,01,AA,BB,5\n2016,02,\u00c9,AA,7\n",
        "2016,01,AA,BB,5\n2016,\u00c9,BB,AA,7\n",
        "2016,01,\x1cAA,BB\x1f,5\n2016,\x1d02,BB,AA\x1e,7\x1c\n",
        "2016,01,AA,BB,5\n2015,02,BB,AA,7\n02016,01,BB,AA,7\n2_016,02,AA,BB,1\n"
        "\u0662\u0660\u0661\u0666,01,AA,BB,3\n",
        "2016,01,AA,BB,\u0661\u0662\n2016,02,BB,AA,5\r\n",
        "2016,01,AA,BB,5\n2016,02,BB,AA,\u0661x\n",
    ], ids=[
        "wide-code", "one-char-country", "one-char-product", "x1c-padding", "year-spellings",
        "unicode-digit-and-cr-value", "bad-unicode-value",
    ])
    def test_byte_path_fallbacks_as_in_reference(self, tmp_path, text):
        """A code cell that is not 2 ASCII bytes, a year cell of more than 4
        bytes or a value numpy does not parse: the file meets the row loop
        once, with the same result as the reference."""
        path = write(tmp_path, HEADER + text)
        actual, row_loops = self.load_counting_row_loops(path, 2016)
        expected, _ = load_logged(load_money_tensor_reference, path, None)
        assert row_loops == 1
        if isinstance(expected, Exception):
            assert (type(actual), str(actual)) == (type(expected), str(expected))
        else:
            assert_same_tensor(actual, expected)

    @pytest.mark.parametrize("text", [
        "2016,01,AB\0,BA,5\n",
        "2016\0,01,AA,BB,5\n",
        "2016,01,AA,BB," + "0" * csv.field_size_limit() + "1\n",
        "2016,01,AA,BB,5#x\n",
        "2016,01,ABCD,BA,5\n",
        "020160,01,AB,BA,5\n",
    ], ids=["nul-code", "nul-year", "value-over-field-limit", "hash-in-value", "cut-code", "cut-year"])
    def test_text_numpy_reads_more_laxly_meets_the_row_loop(self, tmp_path, text):
        """numpy's reader would read `AB\\0` as `AB`, `2016\\0` as `2016`, the
        long value as 1.0 and cut the last two cells to `ABC` and `02016`; the
        row rules refuse all but the last, whose row they keep out of 2016."""
        path = write(tmp_path, HEADER + "2016,02,BB,AA,7\n" + text)
        actual, row_loops = self.load_counting_row_loops(path, 2016)
        expected, _ = load_logged(load_money_tensor_reference, path, None)
        assert row_loops == 1
        if isinstance(expected, Exception):
            assert (type(actual), str(actual)) == (type(expected), str(expected))
        else:
            assert_same_tensor(actual, expected)

    def test_blocks_of_line_ends_alone_are_skipped(self, tmp_path):
        """Blocks that hold only blank rows reach neither loadtxt, which would
        warn on them, nor the row loop."""
        text = HEADER + "2016,01,AA,BB,5\n" + "\n" * 40 + "\r\n" * 40 + "2016,02,BB,AA,7\n"
        path = write(tmp_path, text)
        with mock.patch.object(ingest, "_BLOCK_CHARS", 4), warnings.catch_warnings():
            warnings.simplefilter("error")
            tensor, row_loops = self.load_counting_row_loops(path, 2016)
        assert row_loops == 0
        assert_same_tensor(tensor, load_money_tensor_reference(path, 2016))

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_file_named_like_an_archive_is_read_as_text(self, tmp_path, suffix):
        """`np.loadtxt` unpacks a path with such a suffix, so the row loop reads it."""
        tensor, path = self.written_tensor(tmp_path)
        path = path.rename(tmp_path / f"t.csv{suffix}")
        back, row_loops = self.load_counting_row_loops(path, tensor.year)
        assert row_loops == 1
        assert_same_tensor(back, load_money_tensor_reference(path, tensor.year))

    @pytest.mark.parametrize("text", [
        "2016,01,AA,BB,5\r\n2016,02,BB,AA,7\r\n",
        "2016,01,AA,BB,5\n2016,0\r1,AA,BB,5\n",
        "2016,01,AA,BB,5\r\r\n2016,02,BB,AA,7\r\n",
        "2016,01,AA,BB,5\n2016,01,\"A,A\",BB,5\n",
        "2016,01,AA,BB,5\n#2016,01,AA,BB,x\n2016,02,BB,AA,7\n",
        "2016,01,AA,BB,5\n\n2016,02,BB,AA,7\n",
        "2016,01,AA,BB,5\n2016,\"02\",BB\x0c,AA,7\n",
    ], ids=["crlf", "lone-cr", "cr-crlf", "quoted-comma", "comment", "blank-line", "form-feed"])
    def test_text_near_the_clean_rule_as_in_reference(self, tmp_path, text):
        path = write(tmp_path, HEADER + text)
        with mock.patch.object(ingest, "_BLOCK_CHARS", 1):
            actual, _ = load_logged(w.load_money_tensor, path, None)
        expected, _ = load_logged(load_money_tensor_reference, path, None)
        if isinstance(expected, Exception):
            assert (type(actual), str(actual)) == (type(expected), str(expected))
        else:
            assert_same_tensor(actual, expected)


class TestIds:
    """Both readers keep code ids as int16; node ids are formed in int32."""

    @staticmethod
    def both_readers(path, year=2016):
        """The rows `_read_blocks` and `_read_rows` give for `path`."""
        return ingest._read_blocks(path, year), ingest._read_rows(path, year, None)

    def test_both_readers_return_int16_ids(self, tmp_path):
        path = tmp_path / "t.csv"
        w.serialize_tensor(w.synth_tensor(2, 30, 5, 0.5), path)
        blocks, rows = self.both_readers(path)
        assert blocks is not None
        for reader in (blocks, rows):
            assert [ids.dtype for ids in reader[2:5]] == [np.int16] * 3
        # ids follow each reader's own order of first sight: compare the codes
        for codes, ids in ((0, 2), (1, 3), (1, 4)):
            assert (np.array(blocks[codes])[blocks[ids]] == np.array(rows[codes])[rows[ids]]).all()

    def test_registry_file_beyond_int16_nodes(self, tmp_path):
        """200 countries x 200 products = 40 000 nodes: node ids near the top
        are formed from int16 code ids without wrapping, by either reader."""
        alnum = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"
        codes = [a + b for a in alnum for b in alnum][:200]
        reg = w.Registry(countries=tuple(codes), products=tuple(codes))
        reg_path = tmp_path / "registry.txt"
        w.save_registry(reg, reg_path)
        reg = w.load_registry(reg_path)
        assert reg.size == 40_000
        last, before = reg.countries[-1], reg.countries[-2]
        rows = f"2016,{last},{before},{last},5\n2016,{last},{last},{before},7\n2016,00,00,01,3\n"
        for text in (HEADER + rows, HEADER + '"2016",00,00,01,1\n' + rows):  # byte path, row loop
            path = write(tmp_path, text)
            tensor = w.load_money_tensor(path, 2016, reg)
            assert_same_tensor(tensor, load_money_tensor_reference(path, 2016, reg))
            assert tensor.matrix[39_999, 39_799] == 5.0
            assert tensor.matrix[39_799, 39_999] == 7.0
            assert tensor.matrix[200, 0] >= 3.0

    def test_more_codes_than_int16_ids_are_refused(self, tmp_path):
        """Codes may be any 2 Unicode letters or digits, so a file or a
        registry can name more codes than int16 ids reach: a clean refusal."""
        han = [chr(0x4E00 + k) for k in range(200)]
        codes = [a + b for a in han for b in han][: (1 << 15) + 1]
        with pytest.raises(TradeDataError, match="more than 32 768 countries or products"):
            w.Registry(countries=("AA", "BB"), products=tuple(codes))
        path = write(tmp_path, HEADER + "".join(f"2016,{c},AA,BB,1\n" for c in codes))
        with pytest.raises(ParseError, match=f"^line {len(codes) + 1}: product code '{codes[-1]}' "
                                             "is not one of the first 32 768 codes$"):
            w.load_money_tensor(path, 2016)


class TestMemory:
    def test_traced_peak_at_shock_mid(self, tmp_path):
        """At the shock-mid input (150 571 flows), ingest allocates at most
        5.5 times the tensor it returns."""
        path = tmp_path / "mid.csv"
        w.serialize_tensor(w.synth_tensor(1, 100, 61, 0.25), path)
        tracemalloc.start()
        try:
            tensor = w.load_money_tensor(path, 2016)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m = tensor.matrix
        assert peak < 5.5 * (m.indptr.nbytes + m.indices.nbytes + m.data.nbytes)


class TestRoundTrip:
    def test_serialize_load_exact(self, tmp_path):
        tensor = w.synth_tensor(5, 6, 3, 0.7)
        path = tmp_path / "out.csv"
        w.serialize_tensor(tensor, path)
        back = w.load_money_tensor(path, tensor.year, registry=tensor.registry)
        assert same_trade(back, tensor)

    def test_registry_file_round_trip(self, tmp_path):
        reg = w.Registry(countries=("ZZ", "AA"), products=("90", "10"))
        path = tmp_path / "registry.txt"
        w.save_registry(reg, path)
        assert w.load_registry(path) == reg

    @pytest.mark.parametrize("code, rule", [("ABC", "2 characters"), ("A:", "2 letters or digits")])
    def test_registry_file_codes_must_be_two_letters_or_digits(self, tmp_path, code, rule):
        path = tmp_path / "registry.txt"
        path.write_text(f"[countries]\nAA\n{code}\n[products]\n01\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"^line 3: code '{code}' is not {rule}$"):
            w.load_registry(path)

    def test_round_trip_without_registry_when_all_codes_traded(self, tmp_path):
        tensor = w.synth_tensor(3, 4, 2, 1.0)
        path = tmp_path / "out.csv"
        w.serialize_tensor(tensor, path)
        back = w.load_money_tensor(path, tensor.year)
        assert same_trade(back, tensor)


class TestSynth:
    def test_deterministic(self):
        a = w.synth_tensor(1, 3, 2, 1.0)
        b = w.synth_tensor(1, 3, 2, 1.0)
        assert same_trade(a, b)

    def test_two_countries_one_product_full_density(self):
        tensor = w.synth_tensor(1, 2, 1, 1.0)
        assert tensor.nnz == 2  # both off-diagonal slots filled

    def test_dangling_column_present(self):
        tensor = w.synth_tensor(2, 5, 3, 0.5)
        vol = tensor.volumes
        assert np.all(vol.import_vol >= 0) and np.all(vol.export_vol >= 0)
        assert np.any(vol.export_vol == 0)

    def test_benchmark_input_bytes(self, tmp_path):
        """The shock-mid benchmark input of seed 1, byte for byte: pins
        `synth_tensor` and the record order of `serialize_tensor`."""
        path = tmp_path / "trade.csv"
        w.serialize_tensor(w.synth_tensor(1, 100, 61, 0.25), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "af4855dcea1df7992881614b1d930a1eccb59262a36e8012afe8df663a63f4db"

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            w.synth_tensor(1, 1, 1, 0.5)
        with pytest.raises(ValueError):
            w.synth_tensor(1, 3, 0, 0.5)
        with pytest.raises(ValueError):
            w.synth_tensor(1, 3, 1, 0.0)
        with pytest.raises(ValueError):
            w.synth_tensor(1, 3, 1, 1.5)


class TestValidation:
    REG = w.Registry(countries=("AA", "BB"), products=("10", "20"))  # node = 2 * country + product

    @pytest.mark.parametrize(
        "shape, entry, match",
        [
            ((3, 3), (0, 2, 1.0), r"shape \(3, 3\) != \(4, 4\)"),
            ((4, 4), (0, 3, 1.0), "between two products"),  # AA:10 importing BB:20
            ((4, 4), (1, 1, 1.0), "self-trade entries in product 20"),
            ((4, 4), (0, 2, -1.0), "negative"),
        ],
        ids=["shape", "cross-product", "self-trade", "negative"],
    )
    def test_rejects(self, shape, entry, match):
        row, col, value = entry
        matrix = sparse.csr_matrix(([value], ([row], [col])), shape=shape)
        with pytest.raises(TradeDataError, match=match):
            w.MoneyTensor(2016, self.REG, matrix)

    def test_accepts_in_product_flows(self):
        matrix = sparse.csr_matrix(([1.0, 2.0], ([0, 3], [2, 1])), shape=(4, 4))
        tensor = w.MoneyTensor(2016, self.REG, matrix)
        assert flow_value(tensor, "10", "AA", "BB") == 1.0
        assert flow_value(tensor, "20", "BB", "AA") == 2.0


class TestVolumes:
    def test_single_entry(self):
        reg = w.Registry(countries=("AA", "BB"), products=("33",))
        m = np.array([[0.0, 10.0], [0.0, 0.0]])  # A imports 10 from B
        tensor = from_product_matrices(reg, 2016, [m])
        vol = tensor.volumes
        assert vol.import_vol[0, 0] == 10.0
        assert vol.export_vol[1, 0] == 10.0
        assert vol.total == 10.0

    def test_computed_once_and_read_only(self):
        tensor = w.synth_tensor(1, 4, 2, 0.8)
        vol = tensor.volumes
        assert tensor.volumes is vol
        with pytest.raises(ValueError):
            vol.import_vol[0, 0] = 1.0
        assert tensor.scaled_product("01", 2.0).volumes is not vol

    def test_empty_tensor(self):
        reg = w.Registry(countries=("AA", "BB"), products=("33",))
        tensor = from_product_matrices(reg, 2016, [np.zeros((2, 2))])
        vol = tensor.volumes
        assert vol.total == 0.0
        assert np.all(vol.import_vol == 0)

    def test_total_matches_independent_file_sum(self, tmp_path):
        tensor = w.synth_tensor(1, 3, 2, 1.0)
        path = tmp_path / "t.csv"
        w.serialize_tensor(tensor, path)
        with open(path, encoding="utf-8") as fh:
            reader = csv.DictReader(row for row in fh if not row.startswith("#"))
            total = sum(float(row["value_usd"]) for row in reader)
        assert tensor.volumes.total == pytest.approx(total, rel=1e-12)

    def test_linearity(self):
        t1 = w.synth_tensor(3, 4, 2, 0.8)
        t2 = w.synth_tensor(4, 4, 2, 0.8)
        combo = w.MoneyTensor(2016, t1.registry, 2.0 * t1.matrix + t2.matrix)
        v1, v2, vc = t1.volumes, t2.volumes, combo.volumes
        np.testing.assert_allclose(
            vc.import_vol, 2.0 * v1.import_vol + v2.import_vol, rtol=1e-12
        )
        np.testing.assert_allclose(
            vc.export_vol, 2.0 * v1.export_vol + v2.export_vol, rtol=1e-12
        )


class TestVolumeRanks:
    """ImportRank and ExportRank, the volume shares that the `rank` command
    divides out of `MoneyTensor.volumes`, read back from its files."""

    @staticmethod
    def rank_files(tmp_path, text):
        """The exit code of `rank` on the trade CSV `text`, and a reader of
        its output files as lists of rows."""
        out = tmp_path / "out"
        rc = main(["rank", "--input", str(write(tmp_path, text)), "--out-dir", str(out)])

        def rows(name):
            with open(out / name, encoding="utf-8", newline="") as fh:
                return list(csv.DictReader(fh))

        return rc, rows

    def test_single_entry_probabilities(self, tmp_path):
        rc, rows = self.rank_files(tmp_path, HEADER + "2016,33,BB,AA,10\n")  # AA imports 10 from BB
        assert rc == 0
        for name, node in (("importrank_nodes.csv", "AA"), ("exportrank_nodes.csv", "BB")):
            top = rows(name)[0]
            assert (top["country"], top["product"], top["probability"]) == (node, "33", "1.0")

    def test_tie_break_ascending_node(self, tmp_path):
        text = HEADER + "2016,33,BB,AA,5\n2016,33,CC,BB,5\n"  # AA and BB each import 5
        rc, rows = self.rank_files(tmp_path, text)
        assert rc == 0
        assert [row["node"] for row in rows("importrank_nodes.csv")] == ["0", "1", "2"]

    def test_zero_volume_rejected(self, tmp_path, caplog):
        rc, _ = self.rank_files(tmp_path, HEADER + "2016,33,BB,AA,0\n2016,33,AA,BB,0.0\n")
        assert rc == 2
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == [
            "tensor has zero total volume"
        ]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_probabilities_normalized(self, tmp_path, seed):
        path = tmp_path / "synthetic.csv"
        w.serialize_tensor(w.synth_tensor(seed, 6, 4, 0.5), path)
        rc, rows = self.rank_files(tmp_path, path.read_text(encoding="utf-8"))
        assert rc == 0
        for method in ("importrank", "exportrank"):
            for level in ("nodes", "countries", "products"):
                total = sum(float(row["probability"]) for row in rows(f"{method}_{level}.csv"))
                assert abs(total - 1.0) < 1e-12, (method, level)


class TestTensorCache:
    def test_library_default_writes_nothing(self, tmp_path, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the tensor cache was used")

        for name in ("_cache_key", "_cached", "_store"):
            monkeypatch.setattr(ingest, name, unreachable)
        for home in ("home", "cache-home", "cwd"):
            (tmp_path / home).mkdir()
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache-home"))
        monkeypatch.chdir(tmp_path / "cwd")
        w.load_money_tensor(write(tmp_path, HEADER + "2016,33,BB,AA,10\n"), 2016)
        assert [list(p.iterdir()) for p in tmp_path.iterdir() if p.is_dir()] == [[], [], []]

    def test_seventeenth_store_evicts_the_least_recently_used(self, tmp_path):
        years = range(2000, 2017)
        path = write(tmp_path, HEADER + "".join(f"{y},33,BB,AA,{y}\n" for y in years))
        cache = tmp_path / "cache"
        names = {y: ingest._cache_key(path, y, None)[1] for y in years}
        for age, y in enumerate(years[:16]):
            w.load_money_tensor(path, y, cache_dir=cache)
            os.utime(cache / names[y], ns=(age * 10**9, age * 10**9))  # 2000 is the oldest
        with mock.patch.object(ingest, "_read_blocks", side_effect=AssertionError("parsed")):
            w.load_money_tensor(path, 2000, cache_dir=cache)  # a hit: 2001 is now the oldest
        w.load_money_tensor(path, 2016, cache_dir=cache)
        assert sorted(p.name for p in cache.iterdir()) == sorted(
            names[y] for y in years if y != 2001
        )

    def test_file_changed_while_read_is_not_stored(self, tmp_path, monkeypatch):
        path = write(tmp_path, HEADER + "2016,33,BB,AA,10\n")
        parse = ingest._parse

        def parse_then_append(*args):
            result = parse(*args)
            with open(path, "a", encoding="utf-8") as fh:
                fh.write("2016,33,AA,BB,5\n")
            return result

        monkeypatch.setattr(ingest, "_parse", parse_then_append)
        w.load_money_tensor(path, 2016, cache_dir=tmp_path / "cache")
        assert not (tmp_path / "cache").exists()

    def test_temporary_files_of_killed_writers_are_evicted(self, tmp_path):
        """A writer killed before its rename leaves a `.tmp` file; stores
        count such files with the entries, so the directory stays at 16."""
        cache = tmp_path / "cache"
        cache.mkdir()
        for age in range(16):
            left = cache / f"killed{age:02d}.tmp"
            left.write_bytes(b"PK")
            os.utime(left, ns=(age * 10**9, age * 10**9))  # killed00 is the oldest
        path = write(tmp_path, HEADER + "2016,33,BB,AA,10\n")
        w.load_money_tensor(path, 2016, cache_dir=cache)
        assert sorted(p.name for p in cache.iterdir()) == sorted(
            [ingest._cache_key(path, 2016, None)[1]] + [f"killed{age:02d}.tmp" for age in range(1, 16)]
        )

    @pytest.mark.parametrize("fault", [OSError("disk full"), MemoryError(), RuntimeError("zip")])
    def test_store_that_fails_leaves_the_parse_and_no_file(self, tmp_path, fault):
        path = write(tmp_path, HEADER + "2016,33,BB,AA,10\n")

        def half_written(fh, **arrays):
            fh.write(b"PK\x03\x04")
            raise fault

        with mock.patch.object(np, "savez", half_written):
            tensor = w.load_money_tensor(path, 2016, cache_dir=tmp_path / "cache")
        assert_same_tensor(tensor, w.load_money_tensor(path, 2016))
        assert list((tmp_path / "cache").iterdir()) == []

    def test_interrupted_store_removes_its_temporary_file(self, tmp_path):
        path = write(tmp_path, HEADER + "2016,33,BB,AA,10\n")
        with mock.patch.object(np, "savez", side_effect=KeyboardInterrupt), \
                pytest.raises(KeyboardInterrupt):
            w.load_money_tensor(path, 2016, cache_dir=tmp_path / "cache")
        assert list((tmp_path / "cache").iterdir()) == []
