from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from churnfusion import metrics
from churnfusion.errors import (
    DegenerateColumn,
    DegenerateData,
    EmptyQuerySet,
    LengthMismatch,
    NoRelevant,
)
from churnfusion.fusion import Assignments


def brute_force_ap(rel, m):
    """Positional recomputation: precision at every rank, counted from scratch."""
    terms = np.array(
        [sum(rel[:k]) / k if rel[k - 1] else 0.0 for k in range(1, len(rel) + 1)]
    )
    return float(np.sum(terms) / m)


def exact_ap(rel, m):
    return Fraction(
        sum(Fraction(int(sum(rel[:k])), k) for k in range(1, len(rel) + 1) if rel[k - 1]),
        1,
    ) / int(m)


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert metrics.average_precision([1, 1, 1], 3) == 1.0

    def test_hand_computed_five_sixths(self):
        assert metrics.average_precision([1, 0, 1], 2) == pytest.approx(5 / 6)

    def test_no_relevant_rejected(self):
        with pytest.raises(NoRelevant):
            metrics.average_precision([0, 0], 0)

    def test_oracle_equivalence_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            rel = list(rng.integers(0, 2, n))
            m = sum(rel) + int(rng.integers(0, 3))
            if m == 0:
                continue
            got = metrics.average_precision(rel, m)
            assert got == brute_force_ap(rel, m)
            assert got == pytest.approx(float(exact_ap(rel, m)), abs=1e-15)

    def test_invariant_below_last_relevant(self):
        rng = np.random.default_rng(1)
        rel = [1, 0, 1, 0, 0, 0]
        base = metrics.average_precision(rel, 2)
        # shuffling the zeros after the final relevant item changes nothing
        for _ in range(10):
            tail = list(rng.permutation([0, 0, 0]))
            assert metrics.average_precision(rel[:3] + tail, 2) == base

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            rel = list(rng.integers(0, 2, int(rng.integers(1, 10))))
            m = max(1, sum(rel))
            assert 0.0 <= metrics.average_precision(rel, m) <= 1.0


class TestMeanAveragePrecision:
    def test_all_perfect(self):
        # each band's one relevant row leads its own query
        assert metrics.mean_average_precision([0.0, 2.0, 4.0], ["low", "mid", "high"]) == 1.0

    def test_arithmetic_mean_two_thirds(self):
        ranks = [0.0, 3.0, 2.0]
        truth = ["low", "mid", "high"]
        # low: AP = 1; mid ranks the high row (distance 0) first: AP = 1/2;
        # high ranks the mid row (3.0) first: AP = 1/2
        assert metrics.mean_average_precision(ranks, truth) == pytest.approx(2 / 3)

    def test_empty_query_set(self):
        with pytest.raises(EmptyQuerySet):
            metrics.mean_average_precision([0.0, 1.0], ["-", "-"])

    def test_query_without_relevant(self):
        # a level with no relevant row runs no query, so it cannot raise NoRelevant
        assert metrics.mean_average_precision([0.0, 4.0], ["low", "high"]) == 1.0
        with pytest.raises(NoRelevant):
            metrics.average_precision([0, 0], 0)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            metrics.mean_average_precision([0.0, 1.0], ["low"])


class TestMacroF1:
    def test_perfect(self):
        labels = ["low", "mid", "high", "low"]
        assert metrics.macro_f1(labels, labels) == 1.0

    def test_hand_computed_seven_ninths(self):
        truth = ["low", "low", "mid", "high"]
        pred = ["low", "mid", "mid", "high"]
        per = metrics.per_class_f1(pred, truth)
        assert per["low"] == pytest.approx(2 / 3)
        assert per["mid"] == pytest.approx(2 / 3)
        assert per["high"] == 1.0
        assert metrics.macro_f1(pred, truth) == pytest.approx(7 / 9)

    def test_disjoint_labels_zero(self):
        assert metrics.macro_f1(["low", "low"], ["high", "mid"]) == 0.0

    def test_relabeling_symmetry(self):
        rng = np.random.default_rng(3)
        labels = list(metrics.RISK_LABELS) if hasattr(metrics, "RISK_LABELS") else ["low", "mid", "high"]
        truth = [labels[i] for i in rng.integers(0, 3, 30)]
        pred = [labels[i] for i in rng.integers(0, 3, 30)]
        swap = {"low": "high", "mid": "mid", "high": "low"}
        assert metrics.macro_f1(pred, truth) == pytest.approx(
            metrics.macro_f1([swap[p] for p in pred], [swap[t] for t in truth])
        )

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            metrics.macro_f1(["low"], ["low", "mid"])
        with pytest.raises(LengthMismatch):
            metrics.accuracy([], [])


def pairwise_auc(scores, labels):
    """Reference: count every positive/negative pair, ties at 1/2."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    greater = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((greater + 0.5 * ties) / (pos.size * neg.size))


class TestRocAuc:
    def test_perfect_separation(self):
        assert metrics.roc_auc([0.0, 0.0, 1.0, 1.0], [0, 0, 1, 1]) == 1.0

    def test_all_ties_half(self):
        assert metrics.roc_auc([0.3, 0.3, 0.3], [0, 1, 0]) == 0.5

    def test_hand_computed_three_quarters(self):
        assert metrics.roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateData):
            metrics.roc_auc([0.1, 0.2], [1, 1])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=40)
        labels = rng.integers(0, 2, 40)
        base = metrics.roc_auc(scores, labels)
        assert metrics.roc_auc(np.exp(scores), labels) == pytest.approx(base)
        assert metrics.roc_auc(3 * scores - 7, labels) == pytest.approx(base)

    def test_oracle_equivalence_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            labels = rng.integers(0, 2, n)
            if len(set(labels)) < 2:
                continue
            scores = np.round(rng.normal(size=n), 1)
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            expected = np.mean(
                [1.0 if p > q else (0.5 if p == q else 0.0) for p in pos for q in neg]
            )
            assert abs(metrics.roc_auc(scores, labels) - expected) < 1e-12

    @given(
        st.lists(
            st.tuples(st.integers(-4, 4), st.integers(0, 1)), min_size=2, max_size=60
        ).filter(lambda pairs: len({label for _, label in pairs}) == 2),
        st.sampled_from([0.1, 0.25, 1.0 / 3.0]),
    )
    def test_rank_form_equals_pairwise_count_exactly(self, pairs, step):
        # a small integer grid scaled by `step` forces many ties
        scores = np.array([k * step for k, _ in pairs])
        labels = np.array([label for _, label in pairs])
        assert metrics.roc_auc(scores, labels) == pairwise_auc(scores, labels)


def make_assignments(rows):
    """Columns from rows of (id, fl, churn, emotion flag, (C, F, V), risk, rank)."""
    ids, fl, churn, emo, triples, risk, rank = zip(*rows)
    C, F, V = (np.array(col) for col in zip(*triples))
    return Assignments(
        ids, np.array(fl), np.array(churn), np.array(emo), C, F, V, np.array(risk), np.array(rank)
    )


T_LOW, T_MID, T_HIGH = (0, 0, 0), (0, 1, 1), (2, 1, 1)
COHORT_ROWS = [
    ("a", 0.9, 0.1, 0, T_LOW, "low", 0.01),
    ("b", 0.8, 0.2, 0, T_LOW, "low", 0.02),
    ("c", 0.4, 0.3, 1, T_MID, "mid", 2.03),
    ("d", 0.3, 0.4, 1, T_MID, "mid", 2.04),
    ("e", 0.2, 0.9, 1, T_HIGH, "high", 4.09),
    ("f", 0.1, 0.8, 1, T_HIGH, "high", 4.08),
]


def cohort_assignments(rows=COHORT_ROWS):
    return make_assignments(rows)


class TestRiskQueries:
    def test_affinity_ordering_per_level(self):
        assigns = cohort_assignments()
        ranks = assigns.rank_score
        # rows a, b lead the low query, e, f the high query and c, d the mid query
        for level, rows in (("low", [0, 1]), ("high", [4, 5]), ("mid", [2, 3])):
            truth = np.full(6, "-", dtype=object)
            truth[rows] = level
            assert metrics.mean_average_precision(ranks, truth) == 1.0
        # c (2.03) is closer to the mid center than d (2.04), so it leads the mid query
        for row, ap in ((2, 1.0), (3, 0.5)):
            truth = np.full(6, "-", dtype=object)
            truth[row] = "mid"
            assert metrics.mean_average_precision(ranks, truth) == ap

    def test_perfect_assignments_reach_map_one(self):
        assigns = cohort_assignments()
        assert metrics.mean_average_precision(assigns.rank_score, assigns.risk) == 1.0

    def test_absent_level_skipped(self):
        assigns = cohort_assignments()
        truth = ["low"] * len(assigns.ids)
        # one query only: the absent mid and high levels would add AP 0 or fail
        assert metrics.mean_average_precision(assigns.rank_score, truth) == 1.0

    def test_matches_per_row_reference_with_ties(self):
        # reference: Python's stable sort over row positions, one AP per present level
        rng = np.random.default_rng(8)
        keys = {"low": lambda r: r, "mid": lambda r: abs(r - 2.0), "high": lambda r: -r}
        for _ in range(300):
            n = int(rng.integers(1, 60))
            ranks = (rng.integers(0, 17, n) / 4.0).tolist()
            truth = [("low", "mid", "high", "-")[i] for i in rng.integers(0, 4, n)]
            aps = []
            for level in ("low", "mid", "high"):
                if level in truth:
                    order = sorted(range(n), key=lambda i: keys[level](ranks[i]))
                    rel = [int(truth[i] == level) for i in order]
                    aps.append(brute_force_ap(rel, sum(rel)))
            if aps:
                assert metrics.mean_average_precision(ranks, truth) == float(np.mean(aps))


class TestCorrelationReport:
    def test_anti_correlated_columns(self):
        assigns = cohort_assignments()
        report = metrics.correlation_report(assigns)
        # fl was built to fall as churn rises
        assert report["fl_score~churn_propensity"] < -0.8
        assert report["churn_propensity~D"] > 0.9

    def test_self_correlation_via_numpy_definition(self):
        col = cohort_assignments().fl_score
        assert np.corrcoef(col, col)[0, 1] == pytest.approx(1.0)
        assert np.corrcoef(col, -col)[0, 1] == pytest.approx(-1.0)

    def test_constant_column_rejected(self):
        assigns = make_assignments([(c, 0.5, 0.5, 0, T_LOW, "low", 0.05) for c in "abc"])
        with pytest.raises(DegenerateColumn):
            metrics.correlation_report(assigns)

    def test_too_few_rows_rejected(self):
        with pytest.raises(DegenerateColumn):
            metrics.correlation_report(cohort_assignments(COHORT_ROWS[:2]))


class TestEvaluateAssignments:
    def test_full_report_on_perfect_cohort(self):
        assigns = cohort_assignments()
        outcomes = np.array([0, 0, 0, 1, 1, 1])
        report = metrics.evaluate_assignments(assigns, assigns.risk, outcomes)
        assert report.map == 1.0
        assert report.macro_f1 == 1.0
        assert report.accuracy == 1.0
        assert report.auc == metrics.roc_auc(assigns.propensity, outcomes)
        assert set(report.per_class_f1) == {"low", "mid", "high"}
        assert report.risk_counts == {"low": 2, "mid": 2, "high": 2}
        # numpy scalars would print as np.float64(...) in the report
        for value in (report.map, report.macro_f1, report.accuracy, report.auc):
            assert type(value) is float
        assert all(type(v) is float for v in report.per_class_f1.values())
        assert all(type(v) is int for v in report.risk_counts.values())

    def test_auc_none_without_outcomes(self):
        assigns = cohort_assignments()
        assert metrics.evaluate_assignments(assigns, assigns.risk).auc is None

    def test_auc_from_known_outcomes_when_one_is_unknown(self):
        assigns = cohort_assignments()
        outcomes = np.array([1, 0, 1, 0, 1, -1])
        report = metrics.evaluate_assignments(assigns, assigns.risk, outcomes)
        known = outcomes >= 0
        assert report.auc == metrics.roc_auc(assigns.propensity[known], outcomes[known])
        assert report.auc == pairwise_auc(assigns.propensity[known], outcomes[known])

    def test_auc_blank_when_known_outcomes_are_one_class(self):
        assigns = cohort_assignments()
        for outcomes in ([1, -1, 1, -1, 1, -1], [0, 0, 0, 0, 0, 0], [-1] * 6):
            assert metrics.evaluate_assignments(assigns, assigns.risk, outcomes).auc is None

    def test_truth_must_align_with_rows(self):
        assigns = cohort_assignments()
        with pytest.raises(LengthMismatch):
            metrics.evaluate_assignments(assigns, assigns.risk[:-1])
        with pytest.raises(LengthMismatch):
            metrics.evaluate_assignments(assigns, assigns.risk, [0, 1, 0])

    def test_serialize_report_round_trips_values(self):
        assigns = cohort_assignments()
        report = metrics.evaluate_assignments(assigns, assigns.risk)
        text = metrics.serialize_report(report)
        fields = dict(line.split("=", 1) for line in text.strip().split("\n"))
        assert float(fields["map"]) == report.map
        assert float(fields["macro_f1"]) == report.macro_f1
        assert fields["auc"] == ""
        assert float(fields["f1_low"]) == report.per_class_f1["low"]
        assert [fields[f"risk_{level}"] for level in ("low", "mid", "high")] == ["2", "2", "2"]
        assert text.endswith("risk_low=2\nrisk_mid=2\nrisk_high=2\n")
