"""The CSV table contract that every table reader shares through
``manifest.read_csv_table``: UTF-8, an exact header, blank rows skipped,
a fixed field count, and a DataError naming the path and line otherwise."""

import csv
import errno
import io
import re

import pytest
from hypothesis import given, strategies as st

from avq360.cli import _load_split
from avq360 import errors
from avq360.errors import Avq360Error, DataError
from avq360.hm import load_hm
from avq360.manifest import load_scores_csv, write_csv_table
from avq360.subjective import read_mos_csv

# reader, header, valid data rows
TABLES = {
    "scores": (load_scores_csv, "subject_id,sequence_id,session_id,score,ssq_flag",
               ["s0,a,x,42.5000,false", "s1,a,x,77.0000,true", "s0,b,y,12.2500,false"]),
    "mos": (read_mos_csv, "sequence_id,mos,std,n_valid,ci95_half_width",
            ["a,50.000000,3.000000,19,1.348973", "b,71.250000,0.000000,1,0.000000"]),
    "hm": (load_hm, "t,yaw,pitch,roll",
           ["0.000000,10.0000,-5.0000,0.0000", "0.008333,11.5000,-4.0000,0.5000",
            "0.016667,-179.0000,0.0000,1.0000"]),
    "split": (_load_split, "sequence_id,split", ["a,train", "b,test"]),
}


def table_text(header, rows):
    return "".join(line + "\r\n" for line in [header, *rows])


def _bad_tables(header, rows):
    """(case, file text, message after the path) for each malformed table.
    Row faults sit on line 4, after a valid row and a blank one."""
    n = header.count(",") + 1
    good, other = rows[0], rows[1]
    return [
        ("empty file", "", "empty file"),
        ("wrong header", table_text(header + "_x", rows), "bad header"),
        ("field too many", table_text(header, [good, "", other + ",0"]),
         f"line 4: expected {n} fields, got {n + 1}"),
        ("field too few", table_text(header, [good, "", other.rsplit(",", 1)[0]]),
         f"line 4: expected {n} fields, got {n - 1}"),
        # an unclosed quote swallows the rest of the file into one field
        ("field over the parser limit", table_text(header, [good, "", '"' + "x" * 140_000]),
         "line 4: field larger than field limit"),
    ]


CASES = [(name, *case) for name, (_, header, rows) in TABLES.items()
         for case in _bad_tables(header, rows)]


@pytest.mark.parametrize("name", TABLES)
def test_valid_table_loads(tmp_path, name):
    reader, header, rows = TABLES[name]
    path = tmp_path / f"{name}.csv"
    path.write_bytes(table_text(header, rows).encode())
    reader(path)


@pytest.mark.parametrize("name, case, text, message", CASES,
                         ids=[f"{c[0]}-{c[1]}" for c in CASES])
def test_malformed_table_is_data_error_naming_path_and_line(tmp_path, name, case, text,
                                                           message):
    reader = TABLES[name][0]
    path = tmp_path / f"{name}.csv"
    path.write_bytes(text.encode())
    with pytest.raises(DataError, match="^" + re.escape(f"{path}: {message}")):
        reader(path)


@pytest.mark.parametrize("name", TABLES)
def test_byte_not_utf8_is_data_error_naming_line_and_offset(tmp_path, name):
    reader, header, rows = TABLES[name]
    raw = table_text(header, [rows[0], "", rows[1]]).encode()
    at = len(raw) - 3  # the last character of line 4
    path = tmp_path / f"{name}.csv"
    path.write_bytes(raw[:at] + b"\xff" + raw[at + 1:])
    with pytest.raises(DataError, match="^" + re.escape(
            f"{path}: line 4: not valid UTF-8 text at byte {at}")):
        reader(path)


# Bytes that steer the CSV parser (quote, separator, line ends, NUL) or
# are not UTF-8 on their own, drawn as often as any other byte value.
_STRUCTURAL = st.sampled_from(b'",\r\n\x00\xff')


@pytest.mark.parametrize("name", TABLES)
@given(data=st.data())
def test_mutated_table_loads_or_raises_toolkit_error(tmp_path_factory, name, data):
    reader, header, rows = TABLES[name]
    raw = table_text(header, rows).encode()
    if data.draw(st.booleans(), label="truncate"):
        mutated = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        i = data.draw(st.integers(0, len(raw) - 1), label="position")
        byte = data.draw(st.one_of(_STRUCTURAL, st.integers(0, 255))
                         .filter(lambda b: b != raw[i]), label="byte")
        mutated = raw[:i] + bytes([byte]) + raw[i + 1:]
    path = tmp_path_factory.getbasetemp() / f"mutated_{name}.csv"
    path.write_bytes(mutated)
    try:
        reader(path)
    except Avq360Error:
        pass


@pytest.mark.parametrize("name, column, value", [
    ("scores", 3, "4O.5"), ("scores", 4, "maybe"), ("mos", 1, "fifty"), ("mos", 3, "1.5"),
])
def test_value_that_does_not_parse_names_field_and_value(tmp_path, name, column, value):
    reader, header, rows = TABLES[name]
    fields = rows[1].split(",")
    fields[column] = value
    path = tmp_path / f"{name}.csv"
    path.write_bytes(table_text(header, [rows[0], ",".join(fields)]).encode())
    field = header.split(",")[column]
    with pytest.raises(DataError, match="^" + re.escape(f"{path}: line 3: bad {field} '{value}'")):
        reader(path)


def test_written_table_is_renamed_into_place(tmp_path):
    path = tmp_path / "t.csv"
    write_csv_table(path, ["a", "b"], iter([[1, "x"], [2.5, "y,z"]]))
    assert path.read_bytes() == b'a,b\r\n1,x\r\n2.5,"y,z"\r\n'
    assert list(tmp_path.iterdir()) == [path]


def test_a_long_table_is_written_in_chunks_with_the_bytes_of_one_writer(tmp_path, monkeypatch):
    rows = [[f"s{i % 60:03d}", f"seq{i:05d}", i / 7, "a,b" if i % 3 else 'q"'] for i in range(6000)]
    text = io.StringIO(newline="")
    csv.writer(text).writerows([["subject", "sequence", "x", "note"], *rows])
    writes = []

    class Counted:
        """The temporary file, counting the writes that reach it."""

        def __init__(self, f):
            self.f = f

        def write(self, data):
            writes.append(len(data))
            return self.f.write(data)

        def close(self):
            self.f.close()

    monkeypatch.setattr(errors, "open", lambda *args, **kwargs: Counted(open(*args, **kwargs)),
                        raising=False)
    path = tmp_path / "t.csv"
    write_csv_table(path, ["subject", "sequence", "x", "note"], iter(rows))
    data = path.read_bytes()
    assert data == text.getvalue().encode("utf-8")
    assert sum(writes) == len(data)
    assert 2 < len(writes) <= -(-len(data) // io.DEFAULT_BUFFER_SIZE) + 1


def test_failed_write_leaves_earlier_table_and_no_temporary_file(tmp_path):
    path = tmp_path / "t.csv"
    write_csv_table(path, ["a"], [[1]])
    before = path.read_bytes()

    def rows():
        yield [2]
        raise DataError("row source failed")

    with pytest.raises(DataError, match="row source failed"):
        write_csv_table(path, ["a"], rows())
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_os_error_of_the_row_source_propagates_as_it_is(tmp_path):
    # only a fault of the table's own file is "cannot write"; the rows may
    # come from reading an input, whose reader names it
    def rows():
        yield [1]
        raise OSError(errno.EIO, "input read failed")

    with pytest.raises(OSError, match="input read failed"):
        write_csv_table(tmp_path / "t.csv", ["a"], rows())
    assert list(tmp_path.iterdir()) == []


def test_failed_write_leaves_no_directory_it_made(tmp_path):
    def rows():
        yield [1]
        raise DataError("row source failed")

    with pytest.raises(DataError, match="row source failed"):
        write_csv_table(tmp_path / "a" / "b" / "t.csv", ["a"], rows())
    assert list(tmp_path.iterdir()) == []
