import pytest
from hypothesis import given, strategies as st

from churnfusion.data_model import (
    CustomerRecord,
    CustomerTable,
    TableSchema,
    map_emotion_to_binary,
    parse_customer_table,
    serialize_customer_table,
)
from churnfusion.errors import DuplicateId, SchemaMismatch, UnknownLabel

SCHEMA3 = TableSchema(("f0", "f1", "f2"))
HEADER3 = "id,f0,f1,f2,fl_label,churn_outcome,audio_ref\n"


def test_empty_body_valid_header():
    table = parse_customer_table(HEADER3.encode(), SCHEMA3)
    assert len(table) == 0


def test_three_well_formed_rows():
    body = HEADER3 + "a,1,2,3,0.5,1,a.wav\nb,4,5,6,,0,\nc,7,8,9,,,\n"
    table = parse_customer_table(body.encode(), SCHEMA3)
    assert table.ids() == ["a", "b", "c"]
    assert table.rows[0].fl_label == 0.5
    assert table.rows[1].churn_outcome == 0
    assert table.rows[2].fl_label is None and table.rows[2].audio_ref is None


def test_churn_outcome_two_rejected():
    body = HEADER3 + "a,1,2,3,,2,\n"
    with pytest.raises(ValueError):
        parse_customer_table(body.encode(), SCHEMA3)


def test_fl_label_out_of_range_rejected():
    body = HEADER3 + "a,1,2,3,1.5,,\n"
    with pytest.raises(ValueError):
        parse_customer_table(body.encode(), SCHEMA3)


def test_missing_feature_cell_rejected():
    body = HEADER3 + "a,1,,3,,,\n"
    with pytest.raises(ValueError):
        parse_customer_table(body.encode(), SCHEMA3)


def test_non_numeric_feature_rejected():
    body = HEADER3 + "a,1,x,3,,,\n"
    with pytest.raises(ValueError):
        parse_customer_table(body.encode(), SCHEMA3)


def test_duplicate_id_rejected():
    body = HEADER3 + "a,1,2,3,,,\na,4,5,6,,,\n"
    with pytest.raises(DuplicateId):
        parse_customer_table(body.encode(), SCHEMA3)


def test_header_mismatch_rejected():
    body = "id,g0,g1,g2,fl_label,churn_outcome,audio_ref\n"
    with pytest.raises(SchemaMismatch):
        parse_customer_table(body.encode(), SCHEMA3)


def test_row_width_mismatch_rejected():
    body = HEADER3 + "a,1,2,,,\n"
    with pytest.raises(SchemaMismatch):
        parse_customer_table(body.encode(), SCHEMA3)


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
        CustomerRecord(id="a", features=(1.0,), fl_label=2.0)
    with pytest.raises(ValueError):
        CustomerRecord(id="a", features=(1.0,), churn_outcome=3)
    with pytest.raises(ValueError):
        CustomerRecord(id="a", features=(float("nan"),))


def test_table_enforces_schema_width():
    with pytest.raises(SchemaMismatch):
        CustomerTable(schema=SCHEMA3, rows=(CustomerRecord(id="a", features=(1.0,)),))


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
        ),
        max_size=20,
    )
)
def test_serialize_parse_round_trip(rows):
    records = tuple(
        CustomerRecord(
            id=f"r{i}", features=tuple(feats), fl_label=fl, churn_outcome=churn
        )
        for i, (feats, fl, churn) in enumerate(rows)
    )
    table = CustomerTable(schema=SCHEMA3, rows=records)
    blob = serialize_customer_table(table)
    again = parse_customer_table(blob, SCHEMA3)
    assert again == table
    assert serialize_customer_table(again) == blob
