import numpy as np
import pytest

from tblab.util import csv_table, fmt_float


@pytest.mark.parametrize("v,want", [(3.0, "3"), (-2, "-2"), (0.0, "0"), (-0.0, "0"),
                                    (0.1, "0.1"), (1e15, "1000000000000000.0"),
                                    (np.float64(2.5), "2.5"), (True, "1"),
                                    (float("inf"), "inf"), (-np.inf, "-inf"),
                                    (float("nan"), "nan")])
def test_fmt_float(v, want):
    assert fmt_float(v) == want


def test_csv_table_writes_non_finite_cells():
    assert csv_table(["a", "b"], [(np.inf, (np.nan, -0.0))]) == [["a", "b"], ["inf", "nan;0"]]
