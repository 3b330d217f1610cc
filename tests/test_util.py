import collections
import csv
import io
import itertools
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from pathwise import (
    CellIndicator,
    ParameterError,
    PathSpec,
    SampledPath,
    SpaceGrid,
    berman_ratio_check,
    build_rank_system,
    collision_local_time,
    discrete_local_time,
    discrete_local_time_curves,
    discrete_local_time_point,
    dyadic_hierarchy,
    generate,
    identity_suite,
    increment_power_sums,
    ito_residual,
    lebesgue_hierarchy,
    modified_follmer_integral,
    occupation_check,
    occupation_density_local_time,
    occupation_time_density,
    pth_variation,
    rank_decompositions,
    rank_sum_identity,
    scaling_check,
    simplified_cross_term,
    tanaka_class,
    weighted_occupation_local_time,
    write_path_csv,
)
from pathwise import _util, integrate
from pathwise._util import Table, _csv_value, ipow, least_squares_slope, write_csv
from pathwise.tanaka import tanaka_meyer_report
from pathwise.acceptance import CriterionResult
from pathwise.tanaka import finite_n_report, tanaka_meyer_report
from tests.conftest import level_sum, make_walk, traced_peak


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


# -- the row-at-a-time writer the table writer replaced, as its oracle ---------


def _csv_value_unquoted(v) -> str:
    """The cell formatter as it was before text cells were quoted."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _csv_writer_cell(text: str) -> str:
    """``text`` as ``csv.writer`` (default dialect, QUOTE_MINIMAL) writes
    it in a row of several cells."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[:-len(",\r\n")]


def _quoted_cell(v) -> str:
    return _csv_writer_cell(_csv_value_unquoted(v))


def write_csv_before(fh, fieldnames, rows, cell=_csv_value_unquoted) -> None:
    """The old writer, onto an open handle; ``cell`` formats each cell."""
    fh.write(",".join(fieldnames) + "\n")
    for row in rows:
        fh.write(",".join(cell(v) for v in row) + "\n")


def field_rows_before(self):
    centers = self.grid.centers
    for i, lab in enumerate(self.level_labels):
        for j, t in enumerate(self.checkpoint_times):
            for x, v in zip(centers, self.per_level[i, j]):
                yield lab, t, x, v


def occupation_rows_before(self):
    centers = self.grid.centers
    for j, t in enumerate(self.checkpoint_times):
        for x, v in zip(centers, self.values[j]):
            yield t, x, v


def variation_rows_before(self):
    for i, lab in enumerate(self.level_labels):
        for t, v in zip(self.checkpoint_times, self.per_level[i]):
            yield lab, t, v


def identity_rows_before(self):
    for i, lab in enumerate(self.level_labels):
        yield self.identity, lab, self.lhs[i], self.rhs[i], self.residuals[i], self.exactness


def rank_rows_before(self):
    for i, lab in enumerate(self.level_labels):
        for j, t in enumerate(self.checkpoint_times):
            yield (self.k, lab, t, self.A[i, j], self.B[i, j], self.C[i, j],
                   self.D[i, j], self.residual[i, j])


def follmer_rows_before(self):
    for i, m in enumerate(self.m_schedule):
        for j, lab in enumerate(self.level_labels):
            yield m, lab, self.sums[i, j], self.target, self.abs_err[i, j]


def path_csv_before(path, fh) -> None:
    fh.write("t,value\n")
    for t, v in zip(path.times, path.values):
        fh.write(f"{float(t)!r},{float(v)!r}\n")


def table_rows(table):
    """A table's rows of raw values, built by the definition."""
    cols = [np.ravel(c) if isinstance(c, np.ndarray) and c.ndim else c for c in table.columns]
    per_row = [c for c in cols if isinstance(c, (np.ndarray, list, tuple))]
    n = math.prod(map(len, table.keys)) if table.keys else len(per_row[0])
    keys = itertools.product(*table.keys) if table.keys else itertools.repeat((), n)
    for r, key in enumerate(keys):
        yield key + tuple(c[r] if isinstance(c, (np.ndarray, list, tuple)) else c for c in cols)


def new_text(header, *tables) -> str:
    buf = io.StringIO()
    write_csv(buf, header, *tables)
    return buf.getvalue()


def old_text(header, rows, cell=_csv_value_unquoted) -> str:
    buf = io.StringIO()
    write_csv_before(buf, header, rows, cell)
    return buf.getvalue()


# -- cells ---------------------------------------------------------------------


CELLS = [
    True, False, np.True_, np.False_, np.bool_(1),
    0, -3, 2**70, np.int64(7), np.int32(-2), np.uint8(255),
    0.1, -0.0, 1e300, 5e-324, float("nan"), float("inf"), float("-inf"),
    np.float64(0.3), np.float32(0.1), np.float16(2.5),
    "text", "", "a,b", None,
]


@pytest.mark.parametrize("v", CELLS, ids=repr)
def test_csv_value_matches_the_old_formatter_with_lowercase_numpy_booleans(v):
    # text is quoted as csv.writer quotes it; "a,b" used to come out bare
    if isinstance(v, np.bool_):
        assert _csv_value(v) == ("true" if v else "false")
        assert _csv_value(v) == _csv_value_before(bool(v))
    else:
        assert _csv_value(v) == _csv_writer_cell(_csv_value_before(v))


@pytest.mark.parametrize("text", ['a,b', 'say "hi"', '"', "two\nlines", "cr\rlf", "x, [p0_s7,p0_s8]"])
def test_csv_value_quotes_like_csv_writer(text):
    assert _csv_value(text) == _csv_writer_cell(text)
    assert _csv_value(text).startswith('"')


# -- tables against the old writer --------------------------------------------


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.1]),
)
_PLAIN_TEXT = st.text(st.characters(blacklist_characters=',"\r\n', blacklist_categories=("Cs",)), max_size=6)
_SCALARS = st.one_of(
    _FLOATS,
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.builds(np.bool_, st.booleans()),
    st.builds(np.float32, st.floats(width=32)),
    st.builds(np.float16, st.floats(width=16)),
    st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
    st.builds(np.uint8, st.integers(0, 255)),
    _PLAIN_TEXT,
    st.none(),
)
_DTYPES = st.sampled_from([np.float64, np.float32, np.float16, np.int64, np.int32, np.uint64, np.bool_])


@st.composite
def _array(draw, shape):
    dtype = np.dtype(draw(_DTYPES))
    if dtype.kind == "f":
        elements = st.floats(width=8 * dtype.itemsize, allow_nan=True, allow_infinity=True,
                             allow_subnormal=True)
        return draw(hnp.arrays(dtype, shape, elements=elements))
    return draw(hnp.arrays(dtype, shape))


@st.composite
def _sequence(draw, n):
    """One key axis or per-row column: a numeric array or a list of
    Python and numpy scalars and text."""
    if draw(st.booleans()):
        return draw(_array(n))
    return draw(st.lists(_SCALARS, min_size=n, max_size=n))


@st.composite
def tables(draw, width):
    n_keys = draw(st.integers(0, width))
    lengths = [draw(st.integers(0, 4)) for _ in range(n_keys)]
    keys = [draw(_sequence(n)) for n in lengths]
    n = math.prod(lengths) if keys else draw(st.integers(0, 12))
    columns = []
    for i in range(width - n_keys):
        kind = draw(st.sampled_from(["sequence", "scalar", "shaped"]))
        if kind == "scalar" and (keys or i):
            columns.append(draw(_SCALARS))
        elif kind == "shaped" and keys:
            columns.append(draw(_array(tuple(lengths))))  # read in C order
        else:
            columns.append(draw(_sequence(n)))
    return Table(tuple(keys), tuple(columns))


@st.composite
def table_files(draw):
    width = draw(st.integers(1, 4))
    return tuple(f"c{i}" for i in range(width)), draw(st.lists(tables(width), min_size=1, max_size=3))


@settings(max_examples=200, deadline=None)
@given(table_files(), st.sampled_from([1, 2, 3, _util._CHUNK_ROWS]))
def test_tables_have_the_old_writer_bytes(case, chunk):
    header, tabs = case
    rows = [row for table in tabs for row in table_rows(table)]
    with mock.patch.object(_util, "_CHUNK_ROWS", chunk):
        assert new_text(header, *tabs) == old_text(header, rows)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.text(max_size=8), min_size=2, max_size=2), max_size=6), st.text(max_size=8))
def test_text_cells_round_trip_through_csv_reader(cells, label):
    header = ("key", "i", "a", "b")
    table = Table(((label,), list(range(len(cells)))), ([a for a, _ in cells], [b for _, b in cells]))
    text = new_text(header, table)
    rows = [[label, str(i), a, b] for i, (a, b) in enumerate(cells)]
    assert list(csv.reader(io.StringIO(text, newline=""))) == [list(header)] + rows
    assert text == old_text(header, rows, _quoted_cell)


def test_product_order_is_last_axis_fastest_and_scalars_broadcast():
    table = Table(((1, 2), np.array([0.5, 1.0])), (np.arange(4).reshape(2, 2), "x"))
    assert new_text(("a", "b", "c", "d"), table).splitlines()[1:] == [
        "1,0.5,0,x", "1,1.0,1,x", "2,0.5,2,x", "2,1.0,3,x"]


def test_zero_row_tables_write_only_the_header():
    empty = Table(((), np.array([1.0])), (np.zeros(0),))
    assert new_text(("a", "b", "c"), empty, Table(columns=([], [], []))) == "a,b,c\n"


@pytest.mark.parametrize("table", [
    Table(columns=(np.zeros(2), np.zeros(3))),
    Table(((1, 2),), (np.zeros(3),)),
    Table(((1, 2),), (np.zeros(2), 0.0)),
    Table(columns=(1.0, 2.0)),
])
def test_malformed_tables_are_rejected(table):
    with pytest.raises(ValueError):
        new_text(("a", "b"), table)


def test_writer_holds_a_bounded_number_of_lines(tmp_path):
    # the lines of a 2**16-row path take about 6 MiB as strings; the chunked
    # writer's peak does not grow with the length, so 2**18 rows stay bounded too
    values = np.cumsum(np.random.default_rng(0).standard_normal(2**16 + 1))
    table = Table(columns=(np.linspace(0.0, 1.0, values.size), values))
    _, peak = traced_peak(write_csv, str(tmp_path / "path.csv"), ("t", "value"), table)
    assert peak < 1 << 20
    assert (tmp_path / "path.csv").stat().st_size > 2 << 20


# -- every artifact against the generator it replaced -------------------------


@pytest.fixture(scope="module")
def trio():
    return [generate(PathSpec(kind="fbm", hurst=0.5, n_max=8, seed=s)) for s in (41, 42, 43)]


def test_local_time_tables_have_the_old_bytes(bm_path):
    hier = dyadic_hierarchy(bm_path, 6)
    grid = SpaceGrid.cover([bm_path], 40)
    field = discrete_local_time(bm_path, hier, 2, grid, [0.25, 0.5, 1.0])
    header = ("level", "t", "x", "value")
    assert new_text(header, field.csv_table()) == old_text(header, field_rows_before(field))
    occ = occupation_density_local_time(bm_path, 2, grid, [0.5, 1.0])
    header = ("t", "x", "value")
    assert new_text(header, occ.csv_table()) == old_text(header, occupation_rows_before(occ))


def test_variation_table_has_the_old_bytes(rough_path):
    curve = pth_variation(rough_path, dyadic_hierarchy(rough_path, 9), 4, [0.3, 0.7, 1.0])
    header = ("level", "t", "value")
    assert new_text(header, curve.csv_table()) == old_text(header, variation_rows_before(curve))


def test_identity_tables_have_the_old_cells_quoted(bm_path, rough_path):
    hier = dyadic_hierarchy(bm_path, 6)
    reports = [finite_n_report(bm_path, hier, 2, tanaka_class("abs_pow", 2, a=0.0), 1.0)]
    reports += identity_suite(bm_path, rough_path, hier, 2)
    for rep in reports:
        rep.identity = f"{rep.identity} [p0_s7,p0_s8]"
    header = ("identity", "level", "lhs", "rhs", "residual", "class")
    text = new_text(header, *(rep.csv_table() for rep in reports))
    rows = [row for rep in reports for row in identity_rows_before(rep)]
    assert text == old_text(header, rows, _quoted_cell)
    assert all(len(r) == 6 for r in csv.reader(io.StringIO(text, newline="")))


def test_rank_tables_have_the_old_bytes(trio):
    system = build_rank_system(trio)
    hier = dyadic_hierarchy(trio[0], 5)
    f = tanaka_class("poly", 2, coeffs=[0.0, 1.0])
    decs = rank_decompositions(system, hier, 2, f, [0.5, 1.0])
    header = ("k", "level", "t", "A", "B", "C", "D", "residual")
    rows = [row for dec in decs for row in rank_rows_before(dec)]
    assert new_text(header, *(dec.csv_table() for dec in decs)) == old_text(header, rows)


def test_modified_follmer_table_has_the_old_bytes():
    path = generate(PathSpec(kind="fbm", hurst=0.5, n_max=6, seed=11))
    f = tanaka_class("poly", 2, coeffs=[0.0, 1.0])
    rep = modified_follmer_integral(path, dyadic_hierarchy(path, 3), 2, f, 1.0, m_schedule=(2, 4), cells=32)
    header = ("m", "level", "sum", "target", "abs_err")
    assert new_text(header, rep.csv_table()) == old_text(header, follmer_rows_before(rep))


@pytest.mark.parametrize("values", [[], [1.0, float("nan")], [float("inf"), 2.0, 3.0]], ids=["empty", "nan", "inf"])
def test_median_refuses_what_it_cannot_order(values):
    # a NaN median would make every gate comparison quietly false
    with pytest.raises(ParameterError, match="finite values"):
        _util.median(values)
    assert _util.median([3.0, 1.0, 2.0, 10.0]) == 2.5


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                min_size=1, max_size=40))
def test_median_is_numpys_to_the_bit(values):
    # np.median without the numpy.ma import: the same middle value, or the
    # same mean of two (a sum from +0.0, so -0.0 reads 0.0), and the same
    # overflow to infinity
    with np.errstate(over="ignore"):
        assert repr(_util.median(values)) == repr(float(np.median(values)))


@given(hnp.arrays(st.sampled_from([np.int64, np.float64]), st.integers(0, 30),
                  elements=st.integers(-5, 5)))
def test_unique_sorted_is_numpys_unique(x):
    got, want = _util.unique_sorted(x), np.unique(x)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# -- the config field reader -------------------------------------------------


@pytest.mark.parametrize("value, typ, want", [
    (3, int, 3), (3, float, 3.0), (0.5, float, 0.5), ("x", str, "x"), ([], list, []), ({}, dict, {}),
    ([1, 2.5], [float], [1.0, 2.5]), ([[1]], [list], [[1]]),
])
def test_field_reads_each_type(value, typ, want):
    # repr tells 3 from 3.0, inside lists too
    assert repr(_util.field({"k": value}, "sec", "k", typ)) == repr(want)


@pytest.mark.parametrize("value, typ, need", [
    (True, int, "an integer"),  # a bool is not a number
    (False, float, "a number"),
    (3.0, int, "an integer"),  # an integer must be a JSON integer
    ("3", int, "an integer"),
    (float("nan"), float, "a number"),
    (float("inf"), float, "a number"),
    ("1", float, "a number"),
    (5, str, "a string"),
    ("ab", list, "a list"),
    ([1], dict, "an object"),
    ("ab", [str], "a list of strings"),
    ([1, "2"], [int], "a list of integers"),
    ([1.0, True], [float], "a list of numbers"),
])
def test_field_refuses_other_types_naming_the_dotted_field(value, typ, need):
    with pytest.raises(_util.ConfigError, match=re.escape(f"config field 'a[0].b.k' must be {need}, got {value!r}")):
        _util.field({"k": value}, "a[0].b", "k", typ)


def test_field_defaults_range_checks_and_objects():
    assert _util.field({}, "", "k", int, 7) == 7
    assert _util.field({"k": None}, "", "k", int, None) is None  # null stands for a missing optional field
    with pytest.raises(_util.ConfigError, match=re.escape("config field 'k' must be an integer")):
        _util.field({"k": None}, "", "k", int, 7)
    with pytest.raises(_util.ConfigError, match=re.escape("config field 's.k' is missing")):
        _util.field({}, "s", "k", int)
    with pytest.raises(_util.ConfigError, match=re.escape("config field 's.k' must be odd, got 2")):
        _util.field({"k": 2}, "s", "k", int, ok=lambda k: k % 2, need="odd")
    assert _util.field({"k": 3}, "s", "k", int, ok=lambda k: k % 2, need="odd") == 3
    with pytest.raises(_util.ConfigError, match=re.escape("config field 'paths[1]' must be an object, got 5")):
        _util.field(5, "paths[1]", "k", int)
    with pytest.raises(_util.ConfigError, match="config must be a JSON object, got list"):
        _util.field([], "", "k", int)


def test_criterion_table_has_the_old_bytes():
    rows = [{"name": "x", "ok": np.True_, "n": 3, "err": np.float64(0.1), "note": None},
            {"name": "y", "ok": False, "n": np.int64(-1), "err": float("nan"), "note": 2.5}]
    res = CriterionResult("C0", "t", True, True, ("name", "err", "ok", "n", "note"), rows)
    header = res.fieldnames
    assert new_text(header, res.csv_table()) == old_text(header, ([r[k] for k in header] for r in rows))


def test_path_csv_has_the_old_bytes(bm_path, tmp_path):
    buf, want = io.StringIO(), io.StringIO()
    write_path_csv(bm_path, buf)
    path_csv_before(bm_path, want)
    assert buf.getvalue() == want.getvalue()
    write_path_csv(bm_path, str(tmp_path / "p.csv"))
    assert (tmp_path / "p.csv").read_text() == want.getvalue()


# -- the interval kernel's blocks -----------------------------------------------


def _kernel_outputs(trio, hier):
    """Every array the callers of LevelStack.sums, and the local-time
    field, return for three paths on one hierarchy."""
    path, other = trio[0], trio[1]
    cps = [0.3, 0.6, 1.0]
    out = []
    for p, f in ((2, tanaka_class("abs_pow", 2, a=0.05)),
                 (4, tanaka_class("pos_part_pow", 4, a=-0.1)),
                 (2, tanaka_class("poly", 2, coeffs=[0.0, 0.5, -1.0, 0.3]))):  # a density, no atom
        rep = finite_n_report(path, hier, p, f, 0.7)
        out += [rep.lhs, rep.rhs]
    rep = tanaka_meyer_report(path, hier, 4, 0.1, 0.7)
    out += [rep.lhs, rep.rhs]
    out.append(ito_residual(path, hier, 4, tanaka_class("poly", 4, coeffs=[0.1, 0.0, 1.0, 0.5, -0.2, 0.1]), 0.7).rhs)
    for rep in identity_suite(path, other, hier, 4):
        out += [rep.lhs, rep.rhs, *rep.details.values()]
    rep = scaling_check(path, tanaka_class("poly", 2, coeffs=[0.3, -2.0]), 0.05, hier, 2)
    out += [rep.lhs, rep.rhs]
    out.append(pth_variation(path, hier, 4, cps).per_level)
    out.append(increment_power_sums(path, hier.finest, 1.5, np.array([100, 256]) * path.dt))
    out.append(modified_follmer_integral(path, hier, 2, tanaka_class("abs_pow", 2), 0.7,
                                         m_schedule=(2, 4), cells=32).sums)
    out.append(discrete_local_time_curves(path, hier, 2, 0.05, cps))
    out.append(discrete_local_time(path, hier, 4, SpaceGrid.cover([path], 16), cps).per_level)
    system = build_rank_system(trio)
    col = collision_local_time(system, 1, 3, hier, 2, cps)
    out += [col.local_time_at_zero, col.exact_tie_charge]
    rep = rank_sum_identity(system, hier, 2, x=0.05)
    out += [rep.lhs, rep.rhs]
    f = tanaka_class("x_pow_pm1", 4)
    for dec in rank_decompositions(system, hier, 4, f, cps):
        out += [dec.A, dec.B, dec.C, dec.D, dec.D_plus, dec.D_minus]
    out.append(simplified_cross_term(system, 2, hier, 4, f, cps).simplified)
    # the histograms bin the grid's own level in the same chunks
    grid = SpaceGrid.cover([path], 16)
    out.append(occupation_density_local_time(path, 4, grid, cps).values)
    out.append(occupation_time_density(path, grid, cps).values)
    out.append(weighted_occupation_local_time(path, 0.25, grid, cps).values)
    out.append(berman_ratio_check(path, 2, grid).per_cell_ratio)
    grids = [grid, SpaceGrid.cover([path], 40)]
    for rep in occupation_check(path, 2, tanaka_class("poly", 2, coeffs=[0.0, 0.0, 1.0]), grids, 0.7):
        out += [rep.lhs, rep.rhs]
    return out


@pytest.fixture(scope="module")
def long_trio():
    return [generate(PathSpec(kind="fbm", hurst=0.5, n_max=10, seed=s)) for s in (41, 42, 43)]


@pytest.mark.parametrize("kind", ["dyadic", "lebesgue"])
def test_block_size_changes_no_byte_of_any_kernel_caller(long_trio, kind, monkeypatch):
    # 2**10 steps: under the 128-entry floor of numpy's tree, the finest
    # levels still cut into several nodes
    trio = long_trio
    hier = dyadic_hierarchy(trio[0], 10) if kind == "dyadic" else lebesgue_hierarchy(trio[0], 6)
    assert sum(lev.size - 1 for lev in hier.levels) <= _util._BLOCK_INTERVALS  # one block
    want = _kernel_outputs(trio, hier)
    # three pairs at a time cut the per-cell sums inside runs of pairs too
    monkeypatch.setattr(_util, "_BLOCK_PAIRS", 3)
    for size in (1, 7, 200):
        monkeypatch.setattr(_util, "_BLOCK_INTERVALS", size)
        stack = _util.LevelStack.build(trio[0], hier.levels)
        assert len(stack.blocks) > 1
        # the larger levels are cut into chunks
        assert any(start > 0 for piece in stack._pieces() for _, start, _ in piece)
        # and a whole-level sum at t = 0.7 adds at least one level's sum up
        # from three or more nodes of its tree
        pieces = _util.LevelStack.build(trio[0], hier.levels, [0.7])._pieces()
        nodes = collections.Counter(piece[0][0] for piece in pieces if len(piece) == 1)
        assert max(nodes.values()) >= 3, nodes
        got = _kernel_outputs(trio, hier)
        assert len(got) == len(want)
        for i, (g, w) in enumerate(zip(got, want)):
            g, w = np.asarray(g, dtype=float), np.asarray(w, dtype=float)
            assert g.shape == w.shape and g.tobytes() == w.tobytes(), (size, i)


@pytest.mark.parametrize("size", [1, 1 << 15])
def test_a_sum_of_zeros_reads_positive_zero(size, monkeypatch):
    # checkpoint j reads the segment sums 0..j added in order from +0.0, so
    # a level whose credited terms are all -0.0 reads +0.0, in one piece or
    # cut at the checkpoints.  Numpy's tree cuts no node of 128 or fewer
    # entries, so the walk has 256 steps, the first 200 of them flat
    monkeypatch.setattr(_util, "_BLOCK_INTERVALS", size)
    path = make_walk(np.concatenate([np.zeros(200), np.arange(1.0, 58.0)]))
    cps = np.array([1, 100, 128, 129, 199, 200, 201, 256]) * path.dt
    stack = _util.LevelStack.build(path, [np.arange(257)], cps)
    assert stack.counts.tolist() == [[2, 101, 129, 130, 200, 201, 202, 256]]
    edges = [0, *stack.counts[0].tolist()]
    cut = [[(0, lo, hi)] for lo, hi in zip(edges, edges[1:])]
    assert list(stack._pieces()) == (cut if size == 1 else [[(0, 0, 256)]])
    got = stack.sums(lambda a, b: -(b - a), path.values)
    terms = -np.diff(path.values)
    assert np.signbit(terms[:199]).all()
    assert got.tolist() == [[0.0, 0.0, 0.0, 0.0, -1.0, -2.0, -3.0, -57.0]]
    assert not np.signbit(got[0, :4]).any()


def test_node_sums_added_up_numpys_tree_are_np_sum():
    # np.sum adds a contiguous float64 array pairwise: the whole-level sums
    # of a level cut into pieces rest on this, bit for bit
    rng = np.random.default_rng(7)
    # magnitudes over 30 decades, so the order of the additions shows
    x = rng.standard_normal(4_200_000) * np.exp(rng.uniform(-35.0, 35.0, 4_200_000))
    sequential = 0
    for n in (100, 129, 1000, 4097, 65_543, 1_000_003, 4_200_000):
        # one level of n intervals, as LevelStack.build would cut it
        stack = _util.LevelStack((np.arange(n + 1),), None, None, np.array([[n]]), None, ((0, 1),))
        for leaf in (129, 1000, 1 << 12, 1 << 15):
            with mock.patch.object(_util, "_BLOCK_INTERVALS", leaf):
                nodes = [piece[0][1:] for piece in stack._pieces()]
            assert nodes[0][0] == 0 and nodes[-1][1] == n
            assert all(stop - start <= max(leaf, 128) for start, stop in nodes)
            sums = {node: np.sum(x[slice(*node)]) for node in nodes}
            got = _util._tree(0, n, sums.get)
            assert got.tobytes() == np.sum(x[:n]).tobytes(), (n, leaf)
            sequential += sum(sums.values()) != np.sum(x[:n])
    # adding the node sums in order instead misses some bits
    assert sequential


@pytest.fixture(scope="module")
def path_2_20():
    return generate(PathSpec(kind="fbm", hurst=0.25, n_max=20, seed=1))


@pytest.mark.parametrize("kind", ["dyadic", "lebesgue"])
def test_running_sums_hold_one_chunk_of_a_level(path_2_20, kind):
    # the variation and the local-time field held whole levels: 3.0x and
    # 6.0x the path bytes (dyadic), 2.7x and 6.2x (Lebesgue).  Chunked, they
    # hold one chunk at a time, and the field its ranks of the samples (1x)
    path = path_2_20
    hier = dyadic_hierarchy(path, 20) if kind == "dyadic" else lebesgue_hierarchy(path, 8)
    grid = SpaceGrid.cover([path], 128)
    cps = [0.25, 0.5, 0.75, 1.0]
    _, peak = traced_peak(pth_variation, path, hier, 4, cps)
    assert peak <= 0.5 * path.values.nbytes, peak / path.values.nbytes
    _, peak = traced_peak(discrete_local_time, path, hier, 4, grid, cps)
    assert peak <= 2 * path.values.nbytes, peak / path.values.nbytes


@pytest.mark.parametrize("kind", ["dyadic", "lebesgue"])
def test_whole_level_sums_hold_one_piece_of_a_level(path_2_20, kind):
    # summed over whole levels, finite_n_report held 9.10x (abs_pow, p = 4)
    # and 25.2x (degree-5 poly, p = 2) the path bytes (Lebesgue 8.19x and
    # 22.6x), tanaka_meyer_report 5.00x and identity_suite 19.6x.  Summed
    # piece by piece they read 0.37x and 1.63x (Lebesgue 0.33x and 1.39x),
    # 0.23x and 5.00x: the poly's remainder kept the finest level's masked
    # quadratures (1x) until its last piece, and identity_suite's peak was
    # its band widths (oscillation over whole levels) and the path |X|.
    # Read in blocks, without |X|, identity_suite reads 0.70x.  With every
    # remainder term dense, one piece at a time, the poly reads 0.58x
    # (Lebesgue 0.45x), 0.50x once its Gauss-Legendre rule is cached.  The
    # poly's bound and the last two add 0.12x, 0.27x and 0.3x to what they
    # read
    path = path_2_20
    hier = dyadic_hierarchy(path, 20) if kind == "dyadic" else lebesgue_hierarchy(path, 8)
    jobs = [
        (finite_n_report, (path, hier, 4, tanaka_class("abs_pow", 4, a=0.1), 1.0), 2.0),
        (finite_n_report, (path, hier, 2, tanaka_class("poly", 2, coeffs=[0.1, 0.0, 1.0, 0.5, -0.2, 0.1]), 1.0), 0.7),
    ]
    if kind == "dyadic":
        other = generate(PathSpec(kind="fbm", hurst=0.25, n_max=20, seed=2))
        jobs += [(tanaka_meyer_report, (path, hier, 2, 0.1, 1.0), 0.5), (identity_suite, (path, other, hier, 2), 1.0)]
    for fn, args, bound in jobs:
        _, peak = traced_peak(fn, *args)
        assert peak <= bound * path.values.nbytes, (fn.__name__, peak / path.values.nbytes)


def test_histograms_hold_one_chunk_of_the_path(path_2_20):
    # binned whole, each held the N cell indices and N weights per density:
    # 4.0x the path bytes, 5.0x for the weighted density and the ratio
    # check.  Chunked, they hold the grid level's indices (1x); the weighted
    # density makes each chunk's times, where it gathered path.times (2.03x).
    # occupation_check held the whole level's masses and g(S): 4.13x with a
    # cell indicator, 6.0x with x^2 on six grids; summed piece by piece, its
    # sides read 1.19x and 1.25x.  With the grid level a stride, and the
    # weighted density's grid indices made a piece at a time, they read
    # 0.096x, 0.068x, 0.127x, 0.096x, 0.162x and 0.220x; each bound adds
    # 0.05x to its reading
    path = path_2_20
    grid = SpaceGrid.cover([path], 128)
    cps = [0.25, 0.5, 0.75, 1.0]
    grids = [SpaceGrid.cover([path], cells) for cells in (16, 32, 64, 128, 256, 512)]
    indicator = CellIndicator(grid, [3, 10, 11, 12, 40, 64, 65])
    square = tanaka_class("poly", 4, coeffs=[0.0, 0.0, 1.0])
    for fn, args, bound in (
        (occupation_density_local_time, (path, 4, grid, cps), 0.15),
        (occupation_time_density, (path, grid, cps), 0.12),
        (weighted_occupation_local_time, (path, 0.25, grid, cps), 0.18),
        (berman_ratio_check, (path, 4, grid), 0.15),
        (occupation_check, (path, 4, indicator, [grid], 1.0), 0.21),
        (occupation_check, (path, 4, square, grids, 1.0), 0.27),
    ):
        _, peak = traced_peak(fn, *args)
        assert peak <= bound * path.values.nbytes, (fn.__name__, peak / path.values.nbytes)


# -- the time rule ------------------------------------------------------------


@st.composite
def walk_levels_checkpoints(draw):
    """A random walk, one to three random levels of its grid (each from 0 to
    the last sample) and a checkpoint list that may be unsorted, repeat
    itself, sit on 0 or T, fall between grid times or lie within half a step
    outside [0, T]."""
    n_max = draw(st.integers(1, 7))
    T = draw(st.sampled_from([1.0, 0.7, 3.0]))
    n = 2**n_max + 1
    steps = draw(hnp.arrays(np.int64, n - 1, elements=st.integers(-2, 2)))
    path = SampledPath(T, n_max, np.concatenate([[0.0], np.cumsum(steps)]))
    levels = []
    for _ in range(draw(st.integers(1, 3))):
        interior = draw(st.sets(st.integers(1, n - 2), max_size=n - 2)) if n > 2 else set()
        levels.append(np.array([0, *sorted(interior), n - 1]))
    edges = st.sampled_from([0.0, T, -path.dt / 4, T + path.dt / 4])
    on_grid = st.integers(0, n - 1).map(lambda i: i * path.dt)
    off_grid = st.floats(0.0, 1.0).map(lambda u: u * T)
    checkpoints = draw(st.lists(st.one_of(edges, on_grid, off_grid), min_size=1, max_size=6))
    return path, levels, checkpoints


@settings(max_examples=200, deadline=None)
@given(walk_levels_checkpoints())
def test_level_stack_credits_what_snapping_and_left_endpoint_counts_credit(case):
    path, levels, checkpoints = case
    stack = _util.LevelStack.build(path, levels, checkpoints)
    times, indices = _util.snap_checkpoints(path, checkpoints)
    assert stack.times.tobytes() == times.tobytes()
    assert stack.indices.tolist() == indices.tolist()
    assert stack.counts.shape == stack.ends.shape == (len(levels), len(checkpoints))
    for lev, counts, ends in zip(levels, stack.counts, stack.ends):
        want = _util.left_endpoint_counts(lev, indices)
        assert counts.tolist() == want.tolist()
        assert ends.tolist() == lev[want].tolist()
    # without checkpoints the stack holds the whole path, t = T
    whole = _util.LevelStack.build(path, levels)
    assert whole.times.tolist() == [path.T] and whole.indices.tolist() == [path.n_samples - 1]
    assert whole.counts[:, 0].tolist() == [lev.size - 1 for lev in levels]
    assert whole.ends[:, 0].tolist() == [path.n_samples - 1] * len(levels)


@st.composite
def walk_descriptors_checkpoints(draw):
    """A random walk with ties and repeated values (steps of -2..2 times
    0.3, so sums round), its levels as descriptors (strides of every
    dyadic step, the two-point level among them, and random point sets as
    packed bits), a second value row, and checkpoints at level points or
    anywhere in [0, T]."""
    n_max = draw(st.integers(1, 7))
    n = 2**n_max + 1
    steps = draw(hnp.arrays(np.int64, n - 1, elements=st.integers(-2, 2)))
    path = SampledPath(1.0, n_max, np.concatenate([[0.0], np.cumsum(steps)]) * 0.3)
    levels = [_util.Stride(2**k, n - 1) for k in draw(st.lists(st.integers(0, n_max), min_size=1, max_size=3))]
    for _ in range(draw(st.integers(1, 3))):
        interior = draw(st.sets(st.integers(1, n - 2), max_size=n - 2)) if n > 2 else set()
        mask = np.zeros(n, dtype=bool)
        mask[[0, *interior, n - 1]] = True
        levels.append(mask)
    levels = draw(st.permutations(levels))
    points = sorted(set().union(*(np.flatnonzero(lev).tolist() if isinstance(lev, np.ndarray) else
                                  lev.points().tolist() for lev in levels)))
    at_points = st.sampled_from(points).map(lambda i: i * path.dt)
    checkpoints = draw(st.lists(at_points | st.floats(0.0, 1.0), min_size=1, max_size=5))
    return path, levels, checkpoints


@settings(max_examples=150, deadline=None)
@given(walk_descriptors_checkpoints(), st.sampled_from([1, 2, 5, 1 << 15]), st.sampled_from([8, 16, 1 << 10]))
def test_descriptor_stacks_are_bit_identical_to_index_stacks(case, block, chunk):
    # strides and packed bits gather the same points in the same order as
    # their index arrays, for any cut of the levels into pieces and any
    # chunk of the packed levels' counts
    path, levels, checkpoints = case
    other = path.values[::-1] * 1.7
    both = np.stack([path.values, other])

    def terms(a, b, a2, b2):
        return (b - a) * 0.7, ipow(b2[1] - a2[0], 3), np.abs(b - a2[1])

    def cell_terms(a, b):
        cells = np.floor(a).astype(np.int64) % 4
        return [(None, lambda s, e: (cells[s:e], (b - a)[s:e])),
                (None, lambda s, e: (3 - cells[s:e], ipow(b[s:e], 2)))]

    with mock.patch.object(_util, "_BLOCK_INTERVALS", block), mock.patch.object(_util, "_RANK_CHUNK", chunk), \
            mock.patch.object(_util, "_BLOCK_PAIRS", 3):
        descriptors = [_util.Packed(np.packbits(lev), lev.size - 1) if isinstance(lev, np.ndarray) else lev
                       for lev in levels]
        arrays = [lev.points() for lev in descriptors]
        for lev, mask in zip(arrays, levels):
            if isinstance(mask, np.ndarray):
                assert lev.tolist() == np.flatnonzero(mask).tolist()
        stacks = [_util.LevelStack.build(path, lev, checkpoints) for lev in (descriptors, arrays)]
        assert [type(lev).__name__ for lev in stacks[1].levels] == ["Points"] * len(levels)
        outs = []
        for stack in stacks:
            outs.append([stack.counts, stack.ends, *stack.sums(terms, path.values, both),
                         *stack.cell_sums(4, cell_terms, path.values)])
    for got, want in zip(*outs):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@st.composite
def walk_levels_cut_checkpoints(draw):
    """A random walk with ties and zero steps (steps of -2..2 times 0.3),
    long enough that its finer levels exceed numpy's 128-entry leaves;
    levels as strides, packed bits and index arrays; and checkpoints at
    t = 0, at T, repeated, and at grid indices that are multiples of a
    power of two, where the nodes of a cut level meet.  Half the walks
    have 256 or 512 steps, so a small block cuts their levels."""
    n_max = draw(st.integers(1, 9) | st.integers(8, 9))
    n = 2**n_max + 1
    steps = draw(hnp.arrays(np.int64, n - 1, elements=st.integers(-2, 2)))
    path = SampledPath(1.0, n_max, np.concatenate([[0.0], np.cumsum(steps)]) * 0.3)
    levels = [_util.Stride(2**k, n - 1) for k in draw(st.lists(st.integers(0, n_max), min_size=1, max_size=2))]
    for packed in draw(st.lists(st.booleans(), max_size=2)):
        mask = draw(hnp.arrays(bool, n))
        mask[[0, -1]] = True
        levels.append(_util.Packed(np.packbits(mask), n - 1) if packed else np.flatnonzero(mask))
    levels = draw(st.permutations(levels))
    # a grid index rounded down to a multiple of 2**k
    aligned = st.builds(lambda k, i: (i >> k << k) * path.dt, st.integers(0, n_max), st.integers(0, n - 1))
    checkpoints = draw(st.lists(st.sampled_from([0.0, 1.0]) | aligned, min_size=1, max_size=5))
    return path, levels, draw(st.permutations(checkpoints + checkpoints[:1]))


@settings(max_examples=200, deadline=None)
@given(walk_levels_cut_checkpoints(), st.sampled_from([1, 7, 1 << 15]))
def test_sums_chain_each_segments_np_sum_from_positive_zero(case, block):
    # the one reducer, against a direct loop per level: level i reads at
    # checkpoint j the np.sum of each segment between consecutive counts,
    # added in order from +0.0, whatever the cut of the levels into pieces;
    # at one checkpoint that is the whole level's np.sum, and a sum of
    # zeros reads +0.0 (-(b - a) is -0.0 on a flat step)
    path, levels, checkpoints = case

    def terms(a, b):
        return -(b - a), ipow(b - a, 3) * 0.7, np.abs(b - 0.45)

    with mock.patch.object(_util, "_BLOCK_INTERVALS", block):
        for cps in (checkpoints, checkpoints[:1]):
            stack = _util.LevelStack.build(path, levels, cps)
            got = stack.sums(terms, path.values)
            for i, lev in enumerate(stack.levels):
                pts = lev.points()
                xs = terms(path.values[pts[:-1]], path.values[pts[1:]])
                for g, x in zip(got, xs):
                    want, total = [], 0.0
                    for lo, hi in zip([0, *stack.counts[i]], stack.counts[i]):
                        total = total + np.sum(x[lo:hi])
                        want.append(total)
                    assert g[i].tobytes() == np.array(want).tobytes(), (i, block)
                    if len(cps) == 1:  # np.sum's bytes, but for the sign of a zero
                        assert g[i, 0].tobytes() == (np.sum(x[: stack.counts[i, 0]]) + 0.0).tobytes()
                    zeros = [not np.any(x[:c]) for c in stack.counts[i]]
                    assert not np.signbit(g[i][zeros]).any()


def test_a_nan_checkpoint_is_refused():
    # NaN compares false with both ends of [0, T]; it must not snap to t = 0
    path = generate(PathSpec(kind="bm", n_max=4, seed=1))
    with pytest.raises(ParameterError, match=r"within \[0, T\]"):
        _util.snap_checkpoints(path, [math.nan, 1.0])
    with pytest.raises(ParameterError):
        pth_variation(path, dyadic_hierarchy(path, 4), 2, [math.nan])


# every function that takes one local-time level x, called at x on a
# Brownian path and its hierarchy
_AT_ONE_LEVEL = {
    "discrete_local_time_point": lambda path, hier, x: discrete_local_time_point(path, hier.finest, 2, x, 1.0),
    "discrete_local_time_curves": lambda path, hier, x: discrete_local_time_curves(path, hier, 2, x, [1.0]),
    "rank_sum_identity": lambda path, hier, x: rank_sum_identity(build_rank_system([path, path]), hier, 2, x=x),
    "tanaka_meyer_sum": lambda path, hier, x: level_sum(path, hier.finest, 1.0, integrate._tanaka_meyer_sums, 2, x),
    "tanaka_meyer_report": lambda path, hier, x: tanaka_meyer_report(path, hier, 2, x, 1.0),
    "scaling_check": lambda path, hier, x: scaling_check(path, tanaka_class("poly", 2, coeffs=[0.0, 2.0]), x, hier, 2),
}


@pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", list(_AT_ONE_LEVEL))
def test_a_non_finite_local_time_level_is_refused(name, level):
    # no bracket holds such a level: the sums would read 0 or NaN, and an
    # exact report would fail on them without saying why
    path = generate(PathSpec(kind="bm", n_max=6, seed=3))
    hier = dyadic_hierarchy(path, 4)
    _AT_ONE_LEVEL[name](path, hier, 0.0)
    with pytest.raises(ParameterError, match="local-time level must be finite"):
        _AT_ONE_LEVEL[name](path, hier, level)


def test_the_occupation_floor_reads_the_residual_scale(monkeypatch):
    # occupation_check's accumulation-order floor is 2**-40 of the one
    # residual scale that relative_residual divides by
    import pathwise.tanaka

    assert _util.residual_scale(-3.0, 2.0) == 3.0 and _util.residual_scale(0.5, -0.25) == 1.0
    assert _util.relative_residual(6.0, -3.0, 2.0) == 2.0
    path = generate(PathSpec(kind="bm", n_max=6, seed=3))
    constant = tanaka_class("poly", 2, coeffs=[2.5])
    grid = SpaceGrid.cover([path], 16)
    (rep,) = occupation_check(path, 2, constant, [grid], 1.0)
    assert rep.details["lipschitz"] == 0.0
    assert rep.threshold == 2.0**-40 * max(1.0, abs(rep.lhs[0]), abs(rep.rhs[0]))
    monkeypatch.setattr(pathwise.tanaka, "residual_scale", lambda *m: 2.0**40)
    assert occupation_check(path, 2, constant, [grid], 1.0)[0].threshold == 1.0


# -- integer powers and the least-squares slope -------------------------------

# x**k as Python floats multiply it: square and multiply over the bits of k
_CHAINS = {
    0: lambda v: 1.0,
    1: lambda v: v,
    2: lambda v: v * v,
    3: lambda v: (v * v) * v,
    4: lambda v: (v * v) * (v * v),
    5: lambda v: ((v * v) * (v * v)) * v,
    6: lambda v: ((v * v) * v) * ((v * v) * v),
    7: lambda v: (((v * v) * v) * ((v * v) * v)) * v,
    8: lambda v: ((v * v) * (v * v)) * ((v * v) * (v * v)),
}

_POWER_BASES = np.array([0.0, -0.0, 1.0, -1.0, 0.3, -0.7, 1.5, -2.5, 1e-310, -5e-324, 2.2e-308, 1e300, -1e300,
                         1.7e38, -3e77, 7e-100, math.inf, -math.inf])


@pytest.mark.parametrize("k", range(9))
def test_ipow_is_the_multiplication_chain(k):
    # signed, subnormal and huge bases, whose chains underflow or overflow
    rng = np.random.default_rng(k)
    x = np.concatenate([_POWER_BASES, rng.standard_normal(200) * 10.0 ** rng.integers(-60, 60, 200)])
    want = np.array([_CHAINS[k](v) for v in x.tolist()])
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        got = ipow(x, k)
        assert ipow(x.reshape(2, -1), k).shape == (2, x.size // 2)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    for v in x.tolist():
        assert np.float64(ipow(v, k)).tobytes() == np.float64(_CHAINS[k](v)).tobytes()


def test_ipow_gives_the_bytes_of_the_square_and_first_power():
    x = np.random.default_rng(3).standard_normal(1000)
    assert ipow(x, 1).tobytes() == (x**1).tobytes() and ipow(x, 2).tobytes() == (x**2).tobytes()
    assert ipow(x, 0).tobytes() == (x**0).tobytes()
    assert ipow(x, 1) is not x
    with pytest.raises(ParameterError, match="integer power >= 0"):
        ipow(x, -1)


def test_orders_stop_where_the_factorial_leaves_float64():
    # the Ito residual divides by p!: 170! is a finite float, 171! is not
    assert _util.even_order(_util.MAX_ORDER) == _util.MAX_ORDER == 170
    assert math.isfinite(float(math.factorial(_util.MAX_ORDER)))
    with pytest.raises(OverflowError):
        float(math.factorial(_util.MAX_ORDER + 1))
    for p in (172, 200, 400, 0, 3):
        with pytest.raises(ParameterError, match="even integer from 2 to 170"):
            _util.even_order(p)


@pytest.mark.parametrize("k", range(9))
def test_ipow_holds_no_more_than_the_power_operator(k):
    # one result array, multiplied in place: no temporary beyond what
    # x**k allocates (a second array would add 512 KiB; the Python objects
    # of the loop take a few hundred bytes)
    x = np.random.default_rng(k).standard_normal(1 << 16)
    _, peak = traced_peak(ipow, x, k)
    _, want = traced_peak(np.power, x, k)
    assert peak <= want + 4096


def test_the_closed_form_slope_matches_polyfit():
    rng = np.random.default_rng(5)
    for n in range(2, 40):
        x, y = rng.standard_normal(n) * 3.0, rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
        want = np.polyfit(x, y, 1)[0]
        assert abs(least_squares_slope(x, y) - want) <= 1e-12 * abs(want), n
    # the six log cell widths of C4 against errors on a line, which every
    # step represents exactly
    x = [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0]
    assert least_squares_slope(x, [0.75 * v - 2.5 for v in x]) == 0.75
    assert least_squares_slope([1.0, 2.0], [5.0, 1.0]) == -4.0
    for bad in (([1.0], [2.0]), ([1.0, 1.0], [2.0, 3.0]), ([1.0, 2.0], [1.0]), ([math.nan, 1.0], [0.0, 1.0]),
                ([0.0, 1.0], [-math.inf, 0.0])):
        with pytest.raises(ParameterError, match="slope needs"):
            least_squares_slope(*bad)
