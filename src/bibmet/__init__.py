"""bibmet: bibliometric growth, collaboration and author-productivity analysis.

The toolkit ingests Web-of-Science-style tagged exports or CSV count
tables and computes yearly growth statistics (growth ratios, relative
growth rate, doubling time), collaboration indices (CI, DC, CAI, CC,
MCC) and Lotka's-law author-productivity fits with Kolmogorov-Smirnov
goodness-of-fit checks.

``import bibmet`` runs none of its modules: a public name imports the
module that defines it on first use (PEP 562), and so does a module name.
"""

import importlib

__version__ = "0.1.0"

# each module of the package -> the public names it defines
_EXPORTS = {
    "collab": ("MULTI_VS_SINGLE", "TEAM_SIZE_CLASSES", "CollabReport", "CollabRow",
               "authorship_pattern_report", "coauthorship_index", "collaborative_coefficient",
               "collaborative_index", "degree_of_collaboration", "modified_cc"),
    "corpus": ("Corpus", "PublicationRecord", "build_authorship_matrix", "build_yearly_series"),
    "errors": ("BibmetError", "DomainError", "EmptyCorpusError", "ParseError"),
    "growth": ("GrowthReport", "block_means", "build_growth_report", "doubling_time",
               "growth_ratio_series", "relative_growth_rate"),
    "lotka": ("KSReport", "LotkaFit", "expected_frequencies", "fit_lotka_least_squares",
              "ks_critical_value", "ks_test", "lotka_constant", "productivity_distribution"),
    "synth": ("CorpusSpec", "PowerLawSpec", "sample_corpus", "sample_productivity"),
    "tables": ("AuthorshipMatrix", "ProductivityDistribution", "YearlySeries",
               "parse_counts_csv"),
    "wos": ("WosParseResult", "parse_wos_export", "parse_wos_file", "write_wos_export"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    """Import the module that defines ``name`` and bind the name here for the next lookup."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
