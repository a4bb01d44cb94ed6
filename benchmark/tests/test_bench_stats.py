import pytest

import stats


@pytest.mark.parametrize("n, pct, beyond", [(1000, 99, 10), (999, 99, 9), (20, 50, 10),
                                            (19, 50, 9), (1935, 99, 19)])
def test_samples_beyond_nearest_rank(n, pct, beyond):
    assert stats.samples_beyond(n, pct) == beyond


def test_percentile_needs_ten_samples_beyond():
    assert stats.percentile(list(range(1000)), 99) == 989
    with pytest.raises(ValueError, match="9 beyond"):
        stats.percentile(list(range(999)), 99)
    with pytest.raises(ValueError):
        stats.percentile(list(range(19)), 50)


def test_percentile_ignores_input_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 4
    assert stats.percentile(values, 50) == 3.0
