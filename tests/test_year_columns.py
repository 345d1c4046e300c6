"""The per-year loops over an authorship matrix read its year columns in order.

``year_index`` searches the years for one year, so a loop over all years
that called it (through ``year_total``, ``class_counts(year)`` or
``author_slots(year)``) would take time quadratic in the matrix's years.
With ``year_index`` made to raise, every per-year result must stay the
same.
"""

import pytest

from bibmet import fixtures
from bibmet.collab import PARTITIONS, authorship_pattern_report, coauthorship_index
from bibmet.errors import DomainError
from bibmet.tables import AuthorshipMatrix

# a gap year (2003) with no papers, and a class (4) with none either
GAPPY = AuthorshipMatrix((1, 2, 4, 7), (2001, 2002, 2003, 2005),
                         ((3, 0, 0, 2), (1, 4, 0, 0), (0, 0, 0, 0), (2, 1, 0, 5)))
MATRICES = [fixtures.authorship_matrix(), fixtures.collaboration_matrix(), GAPPY]


def per_year_results(matrix):
    dense = matrix.drop_empty_years()
    return (matrix.yearly_series(), dense,
            [coauthorship_index(dense, partition) for partition in PARTITIONS.values()],
            [authorship_pattern_report(matrix, partition) for partition in PARTITIONS.values()])


@pytest.mark.filterwarnings("ignore:CAI class")
@pytest.mark.parametrize("matrix", MATRICES, ids=["authorship", "collapsed", "gappy"])
def test_per_year_loops_do_not_search_for_their_year(monkeypatch, matrix):
    expected = per_year_results(matrix)

    def search(self, year):
        raise AssertionError(f"searched for year {year}")

    monkeypatch.setattr(AuthorshipMatrix, "year_index", search)
    assert per_year_results(matrix) == expected


def test_a_year_without_papers_is_named_without_a_search(monkeypatch):
    monkeypatch.setattr(AuthorshipMatrix, "year_index", None)
    with pytest.raises(DomainError, match="year 2003 has no papers"):
        coauthorship_index(GAPPY)
