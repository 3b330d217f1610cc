import numpy as np
import pytest

from pathwise._util import _csv_value


def _csv_value_before(v) -> str:
    """The cell formatter as it was when numpy booleans fell through to
    ``str`` and came out as ``True``/``False``."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


CELLS = [
    True, False, np.True_, np.False_, np.bool_(1),
    0, -3, 2**70, np.int64(7), np.int32(-2), np.uint8(255),
    0.1, -0.0, 1e300, 5e-324, float("nan"), float("inf"), float("-inf"),
    np.float64(0.3), np.float32(0.1), np.float16(2.5),
    "text", "", "a,b", None,
]


@pytest.mark.parametrize("v", CELLS, ids=repr)
def test_csv_value_matches_the_old_formatter_with_lowercase_numpy_booleans(v):
    if isinstance(v, np.bool_):
        assert _csv_value(v) == ("true" if v else "false")
        assert _csv_value(v) == _csv_value_before(bool(v))
    else:
        assert _csv_value(v) == _csv_value_before(v)
