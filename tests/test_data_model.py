import csv
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from churnfusion.data_model import (
    CustomerTable,
    csv_bytes,
    csv_rows,
    map_emotion_to_binary,
    parse_customer_table,
    serialize_customer_table,
)
from churnfusion.errors import DuplicateId, SchemaMismatch, UnknownLabel

NAMES3 = ("f0", "f1", "f2")
HEADER3 = "id,f0,f1,f2,fl_label,churn_outcome,audio_ref\n"


def make_table(ids, features, fl_label=None, churn_outcome=None, audio_ref=None, names=NAMES3):
    n = len(ids)
    return CustomerTable(
        names,
        tuple(ids),
        features,
        [math.nan] * n if fl_label is None else fl_label,
        [-1] * n if churn_outcome is None else churn_outcome,
        (None,) * n if audio_ref is None else audio_ref,
    )


def assert_same_table(a, b):
    assert a.feature_names == b.feature_names
    assert a.ids == b.ids
    assert a.audio_ref == b.audio_ref
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.fl_label, b.fl_label, equal_nan=True)
    assert np.array_equal(a.churn_outcome, b.churn_outcome)
    assert a.features.dtype == np.float64 and a.churn_outcome.dtype == np.int64


def test_empty_body_valid_header():
    table = parse_customer_table(HEADER3.encode())
    assert len(table) == 0


def test_three_well_formed_rows():
    body = HEADER3 + "a,1,2,3,0.5,1,a.wav\nb,4,5,6,,0,\nc,7,8,9,,,\n"
    table = parse_customer_table(body.encode())
    assert table.ids == ("a", "b", "c")
    assert table.features.shape == (3, 3) and table.features[2, 1] == 8.0
    assert table.fl_label[0] == 0.5 and np.isnan(table.fl_label[1:]).all()
    assert table.churn_outcome.tolist() == [1, 0, -1]
    assert table.audio_ref == ("a.wav", None, None)


def test_churn_outcome_two_rejected():
    body = HEADER3 + "a,1,2,3,,2,\n"
    with pytest.raises(ValueError):
        parse_customer_table(body.encode())


def test_fl_label_out_of_range_rejected():
    body = HEADER3 + "a,1,2,3,1.5,,\n"
    with pytest.raises(ValueError):
        parse_customer_table(body.encode())


@pytest.mark.parametrize(
    "row",
    ["a,1,2,3,nan,,", "a,1,2,3,NaN,,", "a,1,2,3,,-1,", "a,1,2,3,,nan,", "a,1,inf,3,,,", "a,-inf,2,3,,,"],
)
def test_missing_value_markers_rejected_in_cells(row):
    # NaN and -1 mean "missing" in memory, so a cell may not spell them
    with pytest.raises(ValueError):
        parse_customer_table((HEADER3 + row + "\n").encode())


def test_missing_feature_cell_rejected():
    body = HEADER3 + "a,1,,3,,,\n"
    with pytest.raises(ValueError):
        parse_customer_table(body.encode())


def test_non_numeric_feature_rejected():
    body = HEADER3 + "a,1,x,3,,,\n"
    with pytest.raises(ValueError):
        parse_customer_table(body.encode())


def test_duplicate_id_rejected():
    body = HEADER3 + "a,1,2,3,,,\na,4,5,6,,,\n"
    with pytest.raises(DuplicateId):
        parse_customer_table(body.encode())


def test_header_mismatch_rejected():
    # only the fixed columns are checked: id first, the three trailing ones last
    for header in (
        "",
        "f0,f1,f2,fl_label,churn_outcome,audio_ref",
        "key,f0,f1,f2,fl_label,churn_outcome,audio_ref",
        "id,f0,f1,f2,fl_label,churn_outcome",
        "id,f0,f1,f2,churn_outcome,fl_label,audio_ref",
        "id,fl_label,churn_outcome",
    ):
        with pytest.raises(SchemaMismatch):
            parse_customer_table((header + "\n").encode())


def test_header_names_the_features():
    body = "id,g0,g1,g2,fl_label,churn_outcome,audio_ref\na,1,2,3,,,\n"
    assert parse_customer_table(body.encode()).feature_names == ("g0", "g1", "g2")
    empty = parse_customer_table(b"id,fl_label,churn_outcome,audio_ref\na,,,\n")
    assert empty.feature_names == () and empty.features.shape == (1, 0)


def test_duplicate_feature_name_rejected():
    body = "id,f0,f1,f0,fl_label,churn_outcome,audio_ref\na,1,2,3,,,\n"
    with pytest.raises(ValueError, match="duplicate feature"):
        parse_customer_table(body.encode())
    with pytest.raises(ValueError, match="duplicate feature"):
        make_table(["a"], [[1.0, 2.0, 3.0]], names=("f0", "f1", "f0"))


def test_row_width_mismatch_rejected():
    body = HEADER3 + "a,1,2,,,\n"
    with pytest.raises(SchemaMismatch):
        parse_customer_table(body.encode())


@pytest.mark.parametrize(
    "label,expected",
    [("Happiness", 0), ("Neutral", 0), ("Sadness", 1), ("Anger", 1)],
)
def test_emotion_binary_mapping(label, expected):
    assert map_emotion_to_binary(label) == expected


def test_unknown_emotion_label():
    with pytest.raises(UnknownLabel):
        map_emotion_to_binary("Fear")


def test_record_invariants():
    with pytest.raises(ValueError):
        make_table(["a"], [[1.0, 2.0, 3.0]], fl_label=[2.0])
    with pytest.raises(ValueError):
        make_table(["a"], [[1.0, 2.0, 3.0]], fl_label=[-0.5])
    with pytest.raises(ValueError):
        make_table(["a"], [[1.0, 2.0, 3.0]], churn_outcome=[3])
    with pytest.raises(ValueError):
        make_table(["a"], [[1.0, 2.0, 3.0]], churn_outcome=[0.5])
    with pytest.raises(ValueError):
        make_table(["a"], [[1.0, float("nan"), 3.0]])
    with pytest.raises(ValueError):
        make_table(["a"], [[1.0, float("inf"), 3.0]])
    with pytest.raises(ValueError):
        make_table([""], [[1.0, 2.0, 3.0]])
    with pytest.raises(DuplicateId):
        make_table(["a", "b", "a"], np.zeros((3, 3)))


def test_table_enforces_schema_width():
    with pytest.raises(SchemaMismatch):
        make_table(["a"], [[1.0]])
    with pytest.raises(SchemaMismatch):
        make_table(["a", "b"], np.zeros((1, 3)))
    with pytest.raises(SchemaMismatch):
        make_table(["a"], np.zeros((1, 3)), fl_label=[0.1, 0.2])
    with pytest.raises(SchemaMismatch):
        make_table(["a"], np.zeros((1, 3)), audio_ref=())


def test_columns_are_read_only_copies():
    features = np.zeros((2, 3))
    table = make_table(["a", "b"], features, fl_label=[0.5, math.nan], churn_outcome=[0, 1])
    features[0, 0] = 9.0
    assert table.features[0, 0] == 0.0
    for column in (table.features, table.fl_label, table.churn_outcome):
        with pytest.raises(ValueError):
            column[0] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.ids = ("c", "d")


def test_take_keeps_columns_aligned():
    table = make_table(
        ["a", "b", "c"],
        np.arange(9.0).reshape(3, 3),
        fl_label=[0.1, math.nan, 0.3],
        churn_outcome=[1, -1, 0],
        audio_ref=("a.wav", None, "c.wav"),
    )
    masked = table.take(np.array([True, False, True]))
    assert_same_table(
        masked,
        make_table(
            ["a", "c"],
            [[0.0, 1.0, 2.0], [6.0, 7.0, 8.0]],
            fl_label=[0.1, 0.3],
            churn_outcome=[1, 0],
            audio_ref=("a.wav", "c.wav"),
        ),
    )
    assert_same_table(table.take([2, 1, 0]), table.take(slice(None, None, -1)))
    assert table.take([1, 0]).audio_ref == (None, "a.wav")
    assert len(table.take(np.zeros(3, dtype=bool))) == 0


@given(
    st.lists(
        st.tuples(
            st.lists(
                st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
                min_size=3,
                max_size=3,
            ),
            st.one_of(st.none(), st.floats(0, 1, allow_nan=False)),
            st.one_of(st.none(), st.integers(0, 1)),
            st.one_of(st.none(), st.sampled_from(["x.wav", "y z.wav", "q,\"r\".wav"])),
        ),
        max_size=20,
    )
)
def test_serialize_parse_round_trip(rows):
    table = make_table(
        [f"r{i}" for i in range(len(rows))],
        np.array([feats for feats, _, _, _ in rows], dtype=np.float64).reshape(len(rows), 3),
        fl_label=[math.nan if fl is None else fl for _, fl, _, _ in rows],
        churn_outcome=[-1 if churn is None else churn for _, _, churn, _ in rows],
        audio_ref=tuple(ref for _, _, _, ref in rows),
    )
    blob = serialize_customer_table(table)
    again = parse_customer_table(blob)
    assert_same_table(again, table)
    assert serialize_customer_table(again) == blob


@given(st.lists(st.lists(st.text(), min_size=1, max_size=4).filter(lambda row: row != [""])))
def test_csv_codec_round_trip(rows):
    # cells may hold commas, quotes, line breaks and any other text
    assert csv_rows(csv_bytes(rows)) == rows


def test_csv_codec_dialect_and_blank_rows():
    rows = [["id", "x"], ["a,1", 'say "hi"'], ["b\r\n2", ""], ["c\r3", "d\n4"]]
    blob = csv_bytes(rows)
    # a lone \r is quoted too, or reading would end the row there
    assert blob == b'id,x\n"a,1","say ""hi"""\n"b\r\n2",\n"c\r3","d\n4"\n'
    assert csv_rows(b"\n" + blob + b"\n\n") == rows


def test_csv_cell_over_the_field_limit_is_a_schema_mismatch():
    # the reader's own csv.Error is no ValueError, so the CLI printed a traceback
    limit = csv.field_size_limit()
    with pytest.raises(SchemaMismatch, match=r"^CSV line 2: field larger than field limit"):
        csv_rows(b"id,x\na," + b"y" * 200000 + b"\n")
    assert csv.field_size_limit() == limit
