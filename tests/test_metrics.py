"""Tests for the §VI-A.2 metrics (`repro.core.metrics`)."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core.metrics import matcher_prf, prf_from_counts, topk_prf
from repro.oracle import assert_equivalent


class TestCounts:
    def test_perfect(self):
        prf = prf_from_counts(10, 0, 0)
        assert (prf.precision, prf.recall, prf.f1) == (1.0, 1.0, 1.0)

    def test_zero_division_guards(self):
        prf = prf_from_counts(0, 0, 0)
        assert prf.f1 == 0.0

    def test_known_values(self):
        prf = prf_from_counts(6, 2, 4)
        assert prf.precision == pytest.approx(0.75)
        assert prf.recall == pytest.approx(0.6)
        assert prf.f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35)


class TestMatcherPRF:
    def test_threshold(self):
        y = np.array([1, 0, 1, 0])
        p = np.array([0.9, 0.8, 0.4, 0.1])
        prf = matcher_prf(y, p)
        assert (prf.tp, prf.fp, prf.fn) == (1, 1, 1)

    def test_all_negative_prediction(self):
        prf = matcher_prf(np.array([1, 1, 0]), np.array([0.1, 0.2, 0.3]))
        assert prf.recall == 0.0 and prf.precision == 0.0

    def test_custom_threshold(self):
        y = np.array([1, 0])
        p = np.array([0.4, 0.2])
        assert matcher_prf(y, p, threshold=0.3).recall == 1.0


class TestTopkPRF:
    def _frames(self, spark):
        test = spark.createDataFrame(
            pd.DataFrame(
                {
                    "id_a": [0, 1, 2, 3, 4],
                    "id_b": [0, 1, 2, 3, 4],
                    "label": [1, 1, 1, 0, 0],
                }
            )
        )
        # retrieves pairs (0,0) tp, (1,1) tp, (3,3) fp, (9,9) not in test
        neigh = spark.createDataFrame(
            pd.DataFrame({"id_a": [0, 1, 3, 9], "id_b": [0, 1, 3, 9]})
        )
        return test, neigh

    def test_counts(self, spark):
        test, neigh = self._frames(spark)
        prf = topk_prf(neigh, test)
        assert (prf.tp, prf.fp, prf.fn) == (2, 1, 1)

    def test_duplicate_neighbour_rows_ignored(self, spark):
        test, _ = self._frames(spark)
        neigh = spark.createDataFrame(
            pd.DataFrame({"id_a": [0, 0, 0], "id_b": [0, 0, 0]})
        )
        prf = topk_prf(neigh, test)
        assert (prf.tp, prf.fp, prf.fn) == (1, 0, 2)

    def test_oracle_equivalence(self, spark):
        """The tp/fp/fn counting join is relational — verify vs DuckDB."""
        test, neigh = self._frames(spark)
        from pyspark.sql import functions as F

        pred = neigh.dropDuplicates().withColumn("pred", F.lit(1))
        joined = (
            test.join(pred, ["id_a", "id_b"], "left")
            .withColumn("pred", F.coalesce("pred", F.lit(0)))
            .agg(
                F.sum(((F.col("label") == 1) & (F.col("pred") == 1)).cast("int")).alias("tp"),
                F.sum(((F.col("label") == 0) & (F.col("pred") == 1)).cast("int")).alias("fp"),
                F.sum(((F.col("label") == 1) & (F.col("pred") == 0)).cast("int")).alias("fn"),
            )
        )
        sql = """
            SELECT
              CAST(sum(CASE WHEN t.label = 1 AND n.id_a IS NOT NULL THEN 1 ELSE 0 END) AS BIGINT) AS tp,
              CAST(sum(CASE WHEN t.label = 0 AND n.id_a IS NOT NULL THEN 1 ELSE 0 END) AS BIGINT) AS fp,
              CAST(sum(CASE WHEN t.label = 1 AND n.id_a IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS fn
            FROM test t
            LEFT JOIN (SELECT DISTINCT id_a, id_b FROM neigh) n
              ON t.id_a = n.id_a AND t.id_b = n.id_b
        """
        assert_equivalent(joined, sql, test=test, neigh=neigh)


class TestOracle:
    def test_oracle_catches_wrong_result(self, spark):
        from pyspark.sql import functions as F

        t = spark.createDataFrame(pd.DataFrame({"id_a": [1, 2, 3], "id_b": [4, 5, 6]}))
        wrong = t.agg((F.count(F.lit(1)) + 1).alias("n"))
        with pytest.raises(AssertionError):
            assert_equivalent(wrong, "SELECT count(*) AS n FROM t", t=t)
