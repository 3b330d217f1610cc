import csv
import io
import itertools
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from pathwise import (
    ParameterError,
    PathSpec,
    SampledPath,
    SpaceGrid,
    build_rank_system,
    collision_local_time,
    discrete_local_time,
    discrete_local_time_curves,
    dyadic_hierarchy,
    generate,
    identity_suite,
    increment_power_sums,
    ito_residual,
    lebesgue_hierarchy,
    modified_follmer_integral,
    occupation_density_local_time,
    pth_variation,
    rank_decomposition,
    rank_sum_identity,
    scaling_check,
    simplified_cross_term,
    tanaka_class,
    write_path_csv,
)
from pathwise import _util
from pathwise._util import Table, _csv_value, write_csv
from pathwise.acceptance import CriterionResult
from pathwise.tanaka import finite_n_report, tanaka_meyer_report


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
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write_csv(str(tmp_path / "path.csv"), ("t", "value"), table)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
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
    decs = [rank_decomposition(system, k, hier, 2, f, [0.5, 1.0]) for k in (1, 2, 3)]
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
    """Every array the callers of LevelStack.evaluate return for three paths
    on one hierarchy."""
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
    system = build_rank_system(trio)
    col = collision_local_time(system, 1, 3, hier, 2, cps)
    out += [col.local_time_at_zero, col.exact_tie_charge]
    rep = rank_sum_identity(system, hier, 2, x=0.05)
    out += [rep.lhs, rep.rhs]
    f = tanaka_class("x_pow_pm1", 4)
    for k in (1, 2, 3):
        dec = rank_decomposition(system, k, hier, 4, f, cps)
        out += [dec.A, dec.B, dec.C, dec.D, dec.D_plus, dec.D_minus]
    out.append(simplified_cross_term(system, 2, hier, 4, f, cps).simplified)
    return out


@pytest.mark.parametrize("kind", ["dyadic", "lebesgue"])
def test_block_size_changes_no_byte_of_any_kernel_caller(trio, kind, monkeypatch):
    hier = dyadic_hierarchy(trio[0], 8) if kind == "dyadic" else lebesgue_hierarchy(trio[0], 6)
    assert sum(lev.size - 1 for lev in hier.levels) <= _util._BLOCK_INTERVALS  # one block
    want = _kernel_outputs(trio, hier)
    for size in (1, 7):
        monkeypatch.setattr(_util, "_BLOCK_INTERVALS", size)
        stack = _util.LevelStack.build(trio[0], hier.levels)
        assert len(stack.blocks) > 1
        got = _kernel_outputs(trio, hier)
        assert len(got) == len(want)
        for i, (g, w) in enumerate(zip(got, want)):
            g, w = np.asarray(g, dtype=float), np.asarray(w, dtype=float)
            assert g.shape == w.shape and g.tobytes() == w.tobytes(), (size, i)


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
