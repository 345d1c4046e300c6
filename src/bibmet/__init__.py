"""bibmet: bibliometric growth, collaboration and author-productivity analysis.

The toolkit ingests Web-of-Science-style tagged exports or CSV count
tables and computes yearly growth statistics (growth ratios, relative
growth rate, doubling time), collaboration indices (CI, DC, CAI, CC,
MCC) and Lotka's-law author-productivity fits with Kolmogorov-Smirnov
goodness-of-fit checks.
"""

from .collab import (
    MULTI_VS_SINGLE,
    TEAM_SIZE_CLASSES,
    CollabReport,
    CollabRow,
    authorship_pattern_report,
    average_authors_per_paper,
    coauthorship_index,
    collaborative_coefficient,
    collaborative_index,
    degree_of_collaboration,
    modified_cc,
)
from .corpus import (
    Corpus,
    PublicationRecord,
    build_authorship_matrix,
    build_yearly_series,
)
from .errors import BibmetError, DomainError, EmptyCorpusError, ParseError
from .growth import (
    GrowthReport,
    block_means,
    build_growth_report,
    doubling_time,
    growth_ratio_series,
    relative_growth_rate,
)
from .lotka import (
    KSReport,
    LotkaFit,
    expected_frequencies,
    fit_lotka_least_squares,
    ks_critical_value,
    ks_test,
    lotka_constant,
    productivity_distribution,
)
from .synth import (
    CorpusSpec,
    PowerLawSpec,
    sample_corpus,
    sample_productivity,
)
from .tables import (
    AuthorshipMatrix,
    ProductivityDistribution,
    YearlySeries,
    parse_counts_csv,
)
from .wos import WosParseResult, parse_wos_export, parse_wos_file, write_wos_export

__version__ = "0.1.0"

__all__ = [
    "AuthorshipMatrix",
    "BibmetError",
    "CollabReport",
    "CollabRow",
    "Corpus",
    "CorpusSpec",
    "DomainError",
    "EmptyCorpusError",
    "GrowthReport",
    "KSReport",
    "LotkaFit",
    "MULTI_VS_SINGLE",
    "ParseError",
    "PowerLawSpec",
    "ProductivityDistribution",
    "PublicationRecord",
    "TEAM_SIZE_CLASSES",
    "WosParseResult",
    "YearlySeries",
    "authorship_pattern_report",
    "average_authors_per_paper",
    "block_means",
    "build_authorship_matrix",
    "build_growth_report",
    "build_yearly_series",
    "coauthorship_index",
    "collaborative_coefficient",
    "collaborative_index",
    "degree_of_collaboration",
    "doubling_time",
    "expected_frequencies",
    "fit_lotka_least_squares",
    "growth_ratio_series",
    "ks_critical_value",
    "ks_test",
    "lotka_constant",
    "modified_cc",
    "parse_counts_csv",
    "parse_wos_export",
    "parse_wos_file",
    "productivity_distribution",
    "relative_growth_rate",
    "sample_corpus",
    "sample_productivity",
    "write_wos_export",
]
