import csv
import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wtnrank as w
from wtnrank import ingest
from wtnrank.errors import ParseError, TradeDataError

from conftest import load_money_tensor_reference

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
        assert tensor.value("33", importer="NL", exporter="RU") == 100.0
        vol = w.volumes(tensor)
        nl = tensor.registry.country_index("NL")
        assert vol.import_vol[nl, 0] == 100.0

    def test_duplicate_rows_summed(self, tmp_path):
        path = write(
            tmp_path, HEADER + "2016,33,RU,NL,10\n2016,33,RU,NL,20\n"
        )
        tensor = w.load_money_tensor(path, 2016)
        assert tensor.value("33", "NL", "RU") == 30.0

    def test_other_years_filtered(self, tmp_path):
        path = write(tmp_path, HEADER + "2016,33,RU,NL,10\n2012,33,RU,NL,99\n")
        tensor = w.load_money_tensor(path, 2016)
        assert tensor.value("33", "NL", "RU") == 10.0

    def test_comments_skipped(self, tmp_path):
        path = write(tmp_path, "# a comment\n" + HEADER + "# another\n2016,33,RU,NL,10\n")
        tensor = w.load_money_tensor(path, 2016)
        assert tensor.total_value == 10.0

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
        assert tensor.total_value == 7.0
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


def assert_same_tensor(actual, expected):
    assert actual.year == expected.year
    assert actual.registry == expected.registry
    assert len(actual.flows) == len(expected.flows)
    for a, b in zip(actual.flows, expected.flows):
        assert a.shape == b.shape
        for name in ("indptr", "indices", "data"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype, name
            assert x.tobytes() == y.tobytes(), name


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
    "product": ("1", "123", "", "\u00c9"),
    "country": ("A", "ABC", "", "A,B", "A\nB", "\u00c9"),  # "\u00c9": 2 bytes, 1 character
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
    return f'"{text}"' if draw(st.integers(0, 4)) == 4 else text  # most rows unquoted


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
        """`_data_chunks` yields one chunk per text block. The first block
        ends `offset` rows after the faulty row: the fault ends the first
        chunk (0) or starts the second (-1)."""
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
        """A block read decodes more bytes than the block holds, and not in
        the 8192-byte chunks of a line-by-line read. An invalid byte just past
        them can stop the line-by-line read inside the block; then the fault
        in the block's last row is not reported, as in the reference."""
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

    def test_padded_codes_are_one_country(self, tmp_path, caplog):
        path = write(tmp_path, HEADER + "2016,01, RU,RU ,5\n2016,01,RU,\" NL\",7\n")
        with caplog.at_level("WARNING", logger="wtnrank.ingest"):
            tensor = w.load_money_tensor(path, 2016)
        assert tensor.registry.countries == ("NL", "RU")
        assert tensor.value("01", "NL", "RU") == 7.0
        assert any("dropped 1 self-trade row(s)" in r.message for r in caplog.records)


class TestFastPath:
    """Clean blocks are read from their bytes; only other rows meet `csv.reader`."""

    @staticmethod
    def load_recording_fallback(path, year):
        """The tensor, and the text blocks handed to the `csv.reader` fallback."""
        blocks = []
        block_reader = ingest._block_reader

        def recording(lines, later_blocks):
            blocks.append("".join(lines))
            return block_reader(lines, later_blocks)

        with mock.patch.object(ingest, "_block_reader", recording):
            tensor = w.load_money_tensor(path, year)
        return tensor, blocks

    @pytest.mark.parametrize("block", [4096, ingest._BLOCK_CHARS])
    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_written_tensor_reaches_csv_reader_only_for_the_header(self, tmp_path, block, eol):
        tensor = w.synth_tensor(2, 30, 5, 0.5)
        path = tmp_path / "t.csv"
        w.serialize_tensor(tensor, path)
        path.write_bytes(path.read_bytes().replace(b"\n", eol.encode()))
        with mock.patch.object(ingest, "_BLOCK_CHARS", block):
            back, fallback = self.load_recording_fallback(path, tensor.year)
        assert len(fallback) == 1 and fallback[0].startswith(HEADER.replace("\n", eol))
        assert back.same_trade(tensor)
        assert_same_tensor(back, load_money_tensor_reference(path, tensor.year))

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_written_tensor_decodes_only_the_value_column(self, tmp_path, eol):
        """Every data block is clean; its year is looked up once and its codes
        by key, so only its value cells become `str`."""
        tensor = w.synth_tensor(2, 30, 5, 0.5)
        path = tmp_path / "t.csv"
        w.serialize_tensor(tensor, path)
        path.write_bytes(path.read_bytes().replace(b"\n", eol.encode()))
        with mock.patch.object(ingest, "_BLOCK_CHARS", 4096), \
                mock.patch.object(ingest, "_block_reader", wraps=ingest._block_reader) as reader, \
                mock.patch.object(ingest, "_clean_block", wraps=ingest._clean_block) as clean, \
                mock.patch.object(ingest._CleanBlock, "column", autospec=True,
                                  side_effect=ingest._CleanBlock.column) as column:
            back = w.load_money_tensor(path, tensor.year)
        assert reader.call_count == 1  # the header's block
        assert clean.call_count > 10
        assert [c for (_, c), _ in column.call_args_list] == [4] * clean.call_count
        assert_same_tensor(back, load_money_tensor_reference(path, tensor.year))

    @pytest.mark.parametrize("text, fallback", [
        ("2016,01,AA,BB,5\n2016,02,BB,AA,7", ["2016,02,BB,AA,7"]),
        ("2016,01,AA,\u00a0BB,5\n2016,02,BB\u00a0,AA,7\n", []),
    ], ids=["no-final-newline", "non-ascii-padding"])
    def test_same_tensor_as_reference(self, tmp_path, text, fallback):
        path = write(tmp_path, HEADER + text)
        with mock.patch.object(ingest, "_BLOCK_CHARS", 8):
            tensor, blocks = self.load_recording_fallback(path, 2016)
        assert blocks == [HEADER] + fallback
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
        """Clean blocks whose columns fail the byte tests are read from
        `str` cells, with the same result as the reference."""
        path = write(tmp_path, HEADER + text)
        with mock.patch.object(ingest, "_block_reader", wraps=ingest._block_reader) as reader:
            actual, _ = load_logged(w.load_money_tensor, path, None)
        expected, _ = load_logged(load_money_tensor_reference, path, None)
        assert reader.call_count == 1  # the header's block; the rows are in a clean block
        if isinstance(expected, Exception):
            assert (type(actual), str(actual)) == (type(expected), str(expected))
        else:
            assert_same_tensor(actual, expected)

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


class TestRoundTrip:
    def test_serialize_load_exact(self, tmp_path):
        tensor = w.synth_tensor(5, 6, 3, 0.7)
        path = tmp_path / "out.csv"
        w.serialize_tensor(tensor, path)
        back = w.load_money_tensor(path, tensor.year, registry=tensor.registry)
        assert back.same_trade(tensor)

    def test_registry_file_round_trip(self, tmp_path):
        reg = w.Registry(countries=("ZZ", "AA"), products=("90", "10"))
        path = tmp_path / "registry.txt"
        w.save_registry(reg, path)
        assert w.load_registry(path) == reg

    def test_round_trip_without_registry_when_all_codes_traded(self, tmp_path):
        tensor = w.synth_tensor(3, 4, 2, 1.0)
        path = tmp_path / "out.csv"
        w.serialize_tensor(tensor, path)
        back = w.load_money_tensor(path, tensor.year)
        assert back.same_trade(tensor)


class TestSynth:
    def test_deterministic(self):
        a = w.synth_tensor(1, 3, 2, 1.0)
        b = w.synth_tensor(1, 3, 2, 1.0)
        assert a.same_trade(b)

    def test_two_countries_one_product_full_density(self):
        tensor = w.synth_tensor(1, 2, 1, 1.0)
        assert tensor.nnz == 2  # both off-diagonal slots filled

    def test_dangling_column_present(self):
        tensor = w.synth_tensor(2, 5, 3, 0.5)
        vol = w.volumes(tensor)
        assert np.all(vol.import_vol >= 0) and np.all(vol.export_vol >= 0)
        assert np.any(vol.export_vol == 0)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            w.synth_tensor(1, 1, 1, 0.5)
        with pytest.raises(ValueError):
            w.synth_tensor(1, 3, 0, 0.5)
        with pytest.raises(ValueError):
            w.synth_tensor(1, 3, 1, 0.0)
        with pytest.raises(ValueError):
            w.synth_tensor(1, 3, 1, 1.5)


class TestVolumes:
    def test_single_entry(self):
        reg = w.Registry(countries=("AA", "BB"), products=("33",))
        m = np.array([[0.0, 10.0], [0.0, 0.0]])  # A imports 10 from B
        tensor = w.MoneyTensor.from_product_matrices(reg, 2016, [m])
        vol = w.volumes(tensor)
        assert vol.import_vol[0, 0] == 10.0
        assert vol.export_vol[1, 0] == 10.0
        assert vol.total == 10.0

    def test_computed_once_and_read_only(self):
        tensor = w.synth_tensor(1, 4, 2, 0.8)
        vol = w.volumes(tensor)
        assert w.volumes(tensor) is vol
        with pytest.raises(ValueError):
            vol.import_vol[0, 0] = 1.0
        assert w.volumes(tensor.scaled_product("01", 2.0)) is not vol

    def test_empty_tensor(self):
        reg = w.Registry(countries=("AA", "BB"), products=("33",))
        tensor = w.MoneyTensor.from_product_matrices(reg, 2016, [np.zeros((2, 2))])
        vol = w.volumes(tensor)
        assert vol.total == 0.0
        assert np.all(vol.import_vol == 0)

    def test_total_matches_independent_file_sum(self, tmp_path):
        tensor = w.synth_tensor(1, 3, 2, 1.0)
        path = tmp_path / "t.csv"
        w.serialize_tensor(tensor, path)
        with open(path, encoding="utf-8") as fh:
            reader = csv.DictReader(row for row in fh if not row.startswith("#"))
            total = sum(float(row["value_usd"]) for row in reader)
        assert w.volumes(tensor).total == pytest.approx(total, rel=1e-12)

    def test_linearity(self):
        t1 = w.synth_tensor(3, 4, 2, 0.8)
        t2 = w.synth_tensor(4, 4, 2, 0.8)
        combo = w.MoneyTensor.from_product_matrices(
            t1.registry, 2016, [2.0 * a + b for a, b in zip(t1.flows, t2.flows)]
        )
        v1, v2, vc = w.volumes(t1), w.volumes(t2), w.volumes(combo)
        np.testing.assert_allclose(
            vc.import_vol, 2.0 * v1.import_vol + v2.import_vol, rtol=1e-12
        )
        np.testing.assert_allclose(
            vc.export_vol, 2.0 * v1.export_vol + v2.export_vol, rtol=1e-12
        )


class TestVolumeRanks:
    def test_single_entry_probabilities(self):
        reg = w.Registry(countries=("AA", "BB"), products=("33",))
        m = np.array([[0.0, 10.0], [0.0, 0.0]])
        tensor = w.MoneyTensor.from_product_matrices(reg, 2016, [m])
        table = w.volume_ranks(w.volumes(tensor))
        assert table.import_prob[reg.node_id("AA", "33")] == 1.0
        assert table.export_prob[reg.node_id("BB", "33")] == 1.0

    def test_tie_break_ascending_node(self):
        reg = w.Registry(countries=("AA", "BB", "CC"), products=("33",))
        m = np.zeros((3, 3))
        m[0, 1] = 5.0  # AA imports 5 from BB
        m[1, 2] = 5.0  # BB imports 5 from CC
        tensor = w.MoneyTensor.from_product_matrices(reg, 2016, [m])
        table = w.volume_ranks(w.volumes(tensor))
        # AA and BB tie on imports; ascending node id wins, as in importrank_nodes.csv
        assert list(w.order_indices(table.import_prob).order) == [0, 1, 2]

    def test_zero_volume_rejected(self):
        reg = w.Registry(countries=("AA", "BB"), products=("33",))
        tensor = w.MoneyTensor.from_product_matrices(reg, 2016, [np.zeros((2, 2))])
        with pytest.raises(ValueError, match="zero"):
            w.volume_ranks(w.volumes(tensor))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_probabilities_normalized(self, seed):
        tensor = w.synth_tensor(seed, 6, 4, 0.5)
        table = w.volume_ranks(w.volumes(tensor))
        assert abs(table.import_prob.sum() - 1.0) < 1e-12
        assert abs(table.export_prob.sum() - 1.0) < 1e-12
        assert abs(table.country_import.sum() - 1.0) < 1e-12
        assert abs(table.product_export.sum() - 1.0) < 1e-12
