import io
import re
import sys

import pytest
from hypothesis import given, strategies as st

from bibmet.errors import DomainError, ParseError
from bibmet.tables import (
    CAP_MAX,
    COUNT_MAX,
    AuthorshipMatrix,
    ProductivityDistribution,
    YearlySeries,
    normalize_line_ends,
    parse_counts_csv,
)


# ---------------------------------------------------------------------------
# hypothesis strategies

@st.composite
def yearly_series(draw):
    start = draw(st.integers(min_value=1900, max_value=2050))
    papers = draw(st.lists(st.integers(0, 5000), min_size=1, max_size=12))
    return YearlySeries(tuple((start + i, p) for i, p in enumerate(papers)))


@st.composite
def matrices(draw):
    classes = tuple(sorted(draw(
        st.sets(st.integers(1, 40), min_size=1, max_size=8))))
    n_years = draw(st.integers(1, 6))
    start = draw(st.integers(1990, 2040))
    years = tuple(range(start, start + n_years))
    counts = tuple(
        tuple(draw(st.integers(0, 500)) for _ in years) for _ in classes)
    return AuthorshipMatrix(classes, years, counts,
                            collapsed=False, cap=max(2, classes[-1]))


@st.composite
def distributions(draw):
    xs = tuple(sorted(draw(st.sets(st.integers(1, 60), min_size=1, max_size=15))))
    pairs = tuple((x, draw(st.integers(0, 10**6))) for x in xs)
    return ProductivityDistribution(pairs)


# ---------------------------------------------------------------------------
# YearlySeries

def test_yearly_views():
    s = YearlySeries(((2008, 2), (2009, 0), (2010, 3)))
    assert s.years == (2008, 2009, 2010)
    assert s.cumulative == (2, 2, 5)
    assert s.total == 5
    assert s.percentages == (40.0, 0.0, 60.0)
    assert s.count(2009) == 0
    assert list(s) == [(2008, 2), (2009, 0), (2010, 3)]
    with pytest.raises(KeyError):
        s.count(2011)
    assert YearlySeries(((2001, 0), (2002, 0))).percentages == (0.0, 0.0)


def test_yearly_rejects_disorder_and_negatives():
    with pytest.raises(ValueError):
        YearlySeries(((2010, 1), (2009, 1)))
    with pytest.raises(ValueError):
        YearlySeries(((2010, -1),))
    with pytest.raises(ValueError):
        YearlySeries(())


@pytest.mark.parametrize("entries", [((2000, True), (2001, 3)), ((True, 1),)])
def test_yearly_rejects_bool_cells(entries):
    # a bool would be written as "True", which from_csv cannot read back
    with pytest.raises(ValueError, match="^years and counts must be integers$"):
        YearlySeries(entries)


def test_yearly_percentages_sum_to_100(yearly_fixture):
    rounded = [round(p, 2) for p in yearly_fixture.percentages]
    assert abs(sum(rounded) - 100.0) <= 0.05


# ---------------------------------------------------------------------------
# AuthorshipMatrix

def test_matrix_totals_and_slots():
    m = AuthorshipMatrix((1, 3), (2008, 2009), ((2, 1), (1, 0)),
                         collapsed=False, cap=3)
    assert m.year_total(2008) == 3
    assert m.class_total(3) == 1
    assert m.grand_total == 4
    assert m.author_slots(2008) == 2 * 1 + 1 * 3
    assert m.author_slots() == 3 + 3
    assert m.yearly_series().entries == ((2008, 3), (2009, 1))
    with pytest.raises(KeyError):
        m.year_index(2010)


def test_matrix_collapse_folds_top_classes():
    m = AuthorshipMatrix((1, 5, 12), (2000,), ((4,), (2,), (1,)),
                         collapsed=False, cap=12)
    c = m.collapse(5)
    assert c.classes == (1, 2, 3, 4, 5)
    assert c.class_counts(2000) == {1: 4, 2: 0, 3: 0, 4: 0, 5: 3}
    assert c.collapsed and c.cap == 5
    assert c.grand_total == m.grand_total


def test_collapse_cannot_expand_a_collapsed_matrix():
    m = AuthorshipMatrix((1, 5, 12), (2000,), ((4,), (2,), (1,)),
                         collapsed=False, cap=12).collapse(5)
    with pytest.raises(ValueError, match="expand"):
        m.collapse(8)
    assert m.collapse(3).class_counts(2000) == {1: 4, 2: 0, 3: 3}



def test_collapse_cap_is_bounded():
    m = AuthorshipMatrix((1, 5, 12), (2000,), ((4,), (2,), (1,)),
                         collapsed=False, cap=12)
    with pytest.raises(DomainError, match=f"<= {CAP_MAX}"):
        m.collapse(CAP_MAX + 1)
    assert m.collapse(CAP_MAX).classes[-1] == CAP_MAX

def test_matrix_validation():
    with pytest.raises(ValueError):
        AuthorshipMatrix((2, 1), (2000,), ((1,), (1,)))
    with pytest.raises(ValueError):
        AuthorshipMatrix((1,), (2000,), ((1, 2),))
    with pytest.raises(ValueError):
        AuthorshipMatrix((1, 4), (2000,), ((1,), (1,)), collapsed=True, cap=10)
    with pytest.raises(ValueError, match="^one count row per class required$"):
        AuthorshipMatrix((1, 2), (2000,), ((1,),))
    with pytest.raises(ValueError, match="^matrix has no papers in any year$"):
        AuthorshipMatrix((1, 2), (2000, 2001), ((0, 0), (0, 0))).drop_empty_years()


@pytest.mark.parametrize("classes, counts, message", [
    ((1, 2), ((1,), (False,)), "counts must be non-negative integers"),
    ((True, 2), ((1,), (1,)), "author-count classes must be integers >= 1"),
])
def test_matrix_rejects_bool_cells(classes, counts, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        AuthorshipMatrix(classes, (2000,), counts)


@pytest.mark.parametrize("years", [(True, 2010), (2009, 2010.5), (2000, "2001")])
def test_matrix_rejects_years_that_are_not_integers(years):
    # the header would read "True" or "2010.5", which from_csv cannot read back
    with pytest.raises(ValueError, match="^years must be integers$"):
        AuthorshipMatrix((1, 2), years, ((1, 0), (0, 1)))


# ---------------------------------------------------------------------------
# ProductivityDistribution

def test_distribution_totals():
    d = ProductivityDistribution(((1, 3), (2, 1)))
    assert d.total_authors == 4
    assert d.author_slots == 3 + 2
    assert d.xs == (1, 2)
    assert list(d) == [(1, 3), (2, 1)]


def test_distribution_validation():
    with pytest.raises(ValueError):
        ProductivityDistribution(((0, 3),))
    with pytest.raises(ValueError):
        ProductivityDistribution(((2, 1), (1, 1)))
    with pytest.raises(ValueError):
        ProductivityDistribution(())


@pytest.mark.parametrize("pairs", [((1, True), (2, 3)), ((True, 5),)])
def test_distribution_rejects_bool_cells(pairs):
    with pytest.raises(ValueError, match="^x and y must be integers$"):
        ProductivityDistribution(pairs)


# ---------------------------------------------------------------------------
# CSV dialect

def test_parse_yearly_basic():
    text = "# comment\nyear,papers\n2020,0\n"
    s = parse_counts_csv(text, "yearly")
    assert s.entries == ((2020, 0),)


def test_lines_end_only_at_lf_crlf_or_cr():
    # a form feed inside a comment does not start a data row
    text = "year,papers\r\n# note\x0c2001,5\r2000,3\n"
    assert parse_counts_csv(text, "yearly").entries == ((2000, 3),)


def test_parse_yearly_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        parse_counts_csv("bad,header\n2020,1\n", "yearly")
    with pytest.raises(ParseError, match="line 3"):
        parse_counts_csv("year,papers\n2020,1\n2021,x\n", "yearly")
    with pytest.raises(ParseError, match="line 3"):
        parse_counts_csv("year,papers\n2021,1\n2020,2\n", "yearly")
    with pytest.raises(ParseError):
        parse_counts_csv("", "yearly")
    with pytest.raises(ParseError):
        parse_counts_csv("year,papers\n", "yearly")


def test_parse_matrix_with_collapsed_top_class():
    text = "authors,2008,2009\n1,2,3\n10+,1,0\n"
    m = parse_counts_csv(text, "matrix")
    assert m.collapsed and m.cap == 10
    assert m.classes == (1, 10)
    assert m.counts == ((2, 3), (1, 0))


def test_parse_matrix_rejects_mid_table_plus():
    with pytest.raises(ParseError):
        parse_counts_csv("authors,2008\n5+,1\n7,2\n", "matrix")
    with pytest.raises(ParseError):
        parse_counts_csv("authors,2008\n1+,1\n", "matrix")


def test_parse_distribution_strictly_increasing():
    with pytest.raises(ParseError, match="line 3"):
        parse_counts_csv("x,y\n2,5\n2,6\n", "distribution")


def test_unknown_shape_rejected():
    with pytest.raises(ValueError):
        parse_counts_csv("x,y\n1,1\n", "bogus")


@given(yearly_series())
def test_yearly_roundtrip(series):
    assert parse_counts_csv(series.to_csv(), "yearly") == series


@given(matrices())
def test_matrix_roundtrip(matrix):
    assert parse_counts_csv(matrix.to_csv(), "matrix") == matrix


@given(matrices())
def test_collapsed_matrix_roundtrip(matrix):
    collapsed = matrix.collapse(5)
    assert parse_counts_csv(collapsed.to_csv(), "matrix") == collapsed


@given(distributions())
def test_distribution_roundtrip(dist):
    assert parse_counts_csv(dist.to_csv(), "distribution") == dist


def test_csv_output_is_lf_and_ascending(yearly_fixture):
    text = yearly_fixture.to_csv()
    assert "\r" not in text
    years = [int(line.split(",")[0]) for line in text.splitlines()[1:]]
    assert years == sorted(years)


# ---------------------------------------------------------------------------
# where a CSV error is reported

@pytest.mark.parametrize("text, shape, line", [
    # header only: the rule on the whole table is reported at the header
    ("year,papers\n", "yearly", 1),
    ("authors,2008\n", "matrix", 1),
    ("x,y\n", "distribution", 1),
    ("\n# only a header\r\nauthors,2008,2009\r", "matrix", 3),
    ("# only a header\n\nx,y", "distribution", 3),
    ("authors,2009,2008\n1,1,1\n", "matrix", 1),
    ("authors,2008\n1,1\n0,1\n", "matrix", 3),
    ("authors,2008\n2,1\n1,1\n", "matrix", 3),
    ("authors,2008\n1,-1\n", "matrix", 2),
    ("authors,2008\n1+,1\n", "matrix", 2),
    ("x,y\n0,1\n", "distribution", 2),
    ("x,y\n1,-1\n", "distribution", 2),
    ("\n\nyear,papers\n\n2020,-1\n", "yearly", 5),
    ("year,papers\n#c\n", "yearly", 1),
])
def test_csv_error_lines(text, shape, line):
    with pytest.raises(ParseError) as info:
        parse_counts_csv(text, shape)
    assert info.value.line == line


@st.composite
def broken_tables(draw):
    """CSV text of a valid table with one data row broken, and that row's line.

    A ``+`` marker before the last row is reported at the row after it,
    the first row that a collapsed class cannot precede.
    """
    shape = draw(st.sampled_from(["yearly", "matrix", "distribution"]))
    table = draw({"yearly": yearly_series(), "matrix": matrices(),
                  "distribution": distributions()}[shape])
    if shape == "matrix" and draw(st.booleans()):
        table = table.collapse(draw(st.integers(2, 12)))
    header, *rows = table.to_csv().splitlines()
    rows = [row.split(",") for row in rows]
    kinds = ["negative count"]
    if len(rows) > 1:
        kinds += ["key out of order"] + (["early +"] if shape == "matrix" else [])
    kinds += {"matrix": ["class 0"], "distribution": ["x = 0"]}.get(shape, [])
    kind = draw(st.sampled_from(kinds))
    last = len(rows) - 1 if kind == "early +" else len(rows)
    k = draw(st.integers(1 if kind == "key out of order" else 0, last - 1))
    row, reported = rows[k], k
    plus = "+" if row[0].endswith("+") else ""
    if kind == "negative count":
        row[draw(st.integers(1, len(row) - 1))] = str(-draw(st.integers(1, 10**6)))
    elif kind == "key out of order":
        prev = int(rows[k - 1][0])
        row[0] = str(draw(st.integers(max(1, prev - 5), prev))) + plus
    elif kind == "early +":
        row[0] += "+"
        reported = k + 1
    else:
        row[0] = "0" + plus

    junk = st.lists(st.sampled_from(["", "  ", "# note", " #1,2"]), max_size=2)
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    text, line = "", None
    for i, cells in enumerate([header.split(",")] + rows):
        for note in draw(junk):
            text += note + draw(ends)
        if i - 1 == reported:
            line = len(normalize_line_ends(text).split("\n"))
        text += ",".join(cells) + draw(ends)
    return shape, text, line


@given(broken_tables())
def test_csv_error_is_reported_at_the_broken_row(case):
    shape, text, line = case
    with pytest.raises(ParseError) as info:
        parse_counts_csv(text, shape)
    assert info.value.line == line


@given(broken_tables(), st.sampled_from([1, 3, 16]))
def test_csv_read_in_chunks_reports_the_broken_row(case, size):
    shape, text, line = case
    # chunks that end at a line end, as the CLI reads a file
    fh = io.StringIO(normalize_line_ends(text))
    chunks = iter(lambda: fh.read(size) + fh.readline(), "")
    table = {"yearly": YearlySeries, "matrix": AuthorshipMatrix,
             "distribution": ProductivityDistribution}[shape]
    with pytest.raises(ParseError) as info:
        table.from_csv(chunks)
    assert info.value.line == line


@given(matrices())
def test_matrix_read_in_chunks_equals_the_matrix_read_whole(matrix):
    text = matrix.to_csv()
    chunks = [line + "\n" for line in text.splitlines()]
    assert AuthorshipMatrix.from_csv(chunks) == AuthorshipMatrix.from_csv(text) == matrix


@pytest.mark.parametrize("text, shape, message", [
    (f"year,papers\n2001,1\n2002,{COUNT_MAX + 1}\n", "yearly", "paper count for 2002"),
    (f"authors,2001,2002\n1,1,{COUNT_MAX + 1}\n", "matrix", "counts must be <="),
    (f"authors,2001\n1,1\n{COUNT_MAX + 1},1\n", "matrix", "classes must be <="),
    (f"x,y\n1,1\n2,{10**400}\n", "distribution", "y must be <="),
])
def test_counts_above_count_max_are_rejected_at_their_row(text, shape, message):
    with pytest.raises(ParseError, match=message) as info:
        parse_counts_csv(text, shape)
    assert info.value.line == len(text.splitlines())
    at_max = text.replace(str(COUNT_MAX + 1), str(COUNT_MAX)).replace(str(10**400), str(COUNT_MAX))
    parse_counts_csv(at_max, shape)


def test_years_and_x_have_no_bound():
    assert parse_counts_csv(f"x,y\n{10**400},1\n", "distribution").xs == (10**400,)
    assert parse_counts_csv(f"year,papers\n{10**400},1\n", "yearly").years == (10**400,)


@pytest.mark.parametrize("cell", ["1_0", "+2", "٣", "1 0", "0x10", "--1", "-", "1-", "", "1.0"])
def test_a_cell_is_ascii_digits_after_an_optional_minus(cell):
    with pytest.raises(ParseError, match=f"line 2: x is not an integer: {re.escape(repr(cell))}"):
        parse_counts_csv(f"x,y\n{cell},1\n", "distribution")
    with pytest.raises(ParseError, match="line 1: header year is not an integer"):
        parse_counts_csv(f"authors,{cell}\n1,1\n", "matrix")


def test_a_minus_zero_and_spaces_around_a_cell_are_read():
    assert parse_counts_csv("year,papers\n -3 , -0\n", "yearly").entries == ((-3, 0),)


def test_a_long_cell_gets_a_short_message():
    digits = sys.get_int_max_str_digits()
    with pytest.raises(ParseError) as info:
        parse_counts_csv(f"x,y\n1,1\n1{'0' * digits},1\n", "distribution")
    assert str(info.value) == f"line 3: x has more than {digits} digits"
    with pytest.raises(ParseError) as info:
        parse_counts_csv(f"x,y\n1,{'z' * 5000}\n", "distribution")
    assert str(info.value) == f"line 2: y is not an integer: {'z' * 40!r}..."
    with pytest.raises(ParseError) as info:
        parse_counts_csv(f"x,{'y' * 5000}\n", "distribution")
    assert len(str(info.value)) < 100
