"""Deterministic synthetic corpora and productivity distributions.

Generators exist to property-test the estimators: sample a distribution
from a known power law and check that the fit recovers the exponent, or
sample a corpus with known authorship-class probabilities and check the
downstream metrics.  Randomness comes from numpy's PCG64
(``numpy.random.default_rng``); the generator algorithm is part of the
contract, so a given seed produces byte-identical output on every
platform and release.  numpy is imported inside the two samplers only,
so that importing bibmet, and every run that samples nothing, skips it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .corpus import YEAR_MAX, YEAR_MIN, Corpus, PublicationRecord
from .errors import DomainError
from .tables import ProductivityDistribution

#: Largest ``x_max`` of a power-law spec: sampling allocates that many weights.
X_MAX_LIMIT = 10**6
#: Largest ``author_pool`` of a corpus spec.
AUTHOR_POOL_LIMIT = 10**6
#: Largest number of author names a corpus spec can ask for: its papers
#: times its largest team size.  ``synth --emit wos`` holds every name in
#: memory, in the export text.
AUTHOR_SLOTS_LIMIT = 5 * 10**6


@dataclass(frozen=True)
class PowerLawSpec:
    """Target power law for productivity sampling."""

    n0: float
    total_authors: int
    x_max: int
    seed: int

    def __post_init__(self):
        if not math.isfinite(self.n0):
            raise DomainError(f"power-law exponent n0 must be finite, got {self.n0}")
        if self.n0 <= 1:
            raise DomainError(f"power-law exponent must be > 1, got {self.n0}")
        if self.x_max < 2:
            raise DomainError("x_max must be >= 2")
        if self.x_max > X_MAX_LIMIT:
            raise DomainError(f"x_max must be <= {X_MAX_LIMIT}")
        if not 1 <= self.total_authors < 2 ** 63:  # numpy's multinomial takes an int64
            raise DomainError("total_authors must be >= 1 and < 2**63")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise DomainError("seed must fit in 64 bits")


@dataclass(frozen=True)
class CorpusSpec:
    """Shape of a synthetic corpus: per-year paper counts and team-size mix."""

    start_year: int
    papers_per_year: tuple[int, ...]
    author_count_dist: tuple[tuple[int, float], ...]
    seed: int
    author_pool: int = 10000

    def __post_init__(self):
        if not 0 <= self.seed < 2 ** 64:
            raise DomainError("seed must fit in 64 bits")
        if self.author_pool > AUTHOR_POOL_LIMIT:
            raise DomainError(f"author_pool must be <= {AUTHOR_POOL_LIMIT}")
        papers = sum(p for p in self.papers_per_year if p > 0)
        largest = max((j for j, _ in self.author_count_dist), default=0)
        if papers * largest > AUTHOR_SLOTS_LIMIT:
            raise DomainError(f"papers times the largest team size must be <= "
                              f"{AUTHOR_SLOTS_LIMIT}, got {papers} x {largest}")


def sample_productivity(spec: PowerLawSpec) -> ProductivityDistribution:
    """Draw authors with productivity x proportional to x^(-n0), x in [1, x_max].

    The counts are a multinomial draw, so they sum to ``total_authors``
    exactly; zero-count productivities are omitted from the result.
    """
    import numpy as np

    xs = np.arange(1, spec.x_max + 1)
    weights = xs.astype(float) ** (-spec.n0)
    probs = weights / weights.sum()
    rng = np.random.default_rng(spec.seed)
    counts = rng.multinomial(spec.total_authors, probs)
    pairs = tuple((int(x), int(y)) for x, y in zip(xs, counts) if y > 0)
    return ProductivityDistribution(pairs)


def sample_corpus(years: Sequence[int], papers_per_year: Sequence[int],
                  author_count_dist: Mapping[int, float], seed: int,
                  author_pool: int = 10000) -> Corpus:
    """Build a deterministic synthetic corpus of the papers :func:`sample_papers` draws."""
    papers = sample_papers(years, papers_per_year, author_count_dist, seed, author_pool)
    return Corpus(tuple(PublicationRecord(*paper) for paper in papers),
                  provenance=f"synthetic seed={seed}")


def sample_papers(years: Sequence[int], papers_per_year: Sequence[int],
                  author_count_dist: Mapping[int, float], seed: int,
                  author_pool: int = 10000) -> Iterator[tuple[str, int, tuple[str, ...]]]:
    """Yield deterministic synthetic papers as ``(id, year, authors)``.

    Each paper's author count is drawn from ``author_count_dist`` (class
    probabilities must sum to 1 within 1e-9) and its authors are distinct
    names drawn from a pool of ``author_pool`` synthetic names.
    """
    years = list(years)
    if not years:
        raise DomainError("cannot sample an empty corpus: no years given")
    if len(years) != len(papers_per_year):
        raise DomainError("papers_per_year must align with years")
    if not YEAR_MIN <= min(years) <= max(years) <= YEAR_MAX:
        raise DomainError(f"years must lie in [{YEAR_MIN}, {YEAR_MAX}], "
                          f"got {min(years)} to {max(years)}")
    classes = sorted(author_count_dist)
    if not classes or any(j < 1 for j in classes):
        raise DomainError("author-count classes must be integers >= 1")
    probs = [author_count_dist[j] for j in classes]
    if any(p < 0 for p in probs):
        raise DomainError("class probabilities must be non-negative")
    if not abs(sum(probs) - 1.0) <= 1e-9:  # NaN fails too
        raise DomainError(f"class probabilities sum to {sum(probs)}, expected 1")
    if author_pool < max(classes):
        raise DomainError("author pool smaller than the largest team size")

    import numpy as np

    rng = np.random.default_rng(seed)
    serial = 0
    for year, paper_count in zip(years, papers_per_year):
        if paper_count < 0:
            raise DomainError("paper counts must be non-negative")
        team_sizes = rng.choice(classes, size=paper_count, p=probs)
        for size in team_sizes:
            serial += 1
            members = rng.choice(author_pool, size=int(size), replace=False)
            authors = tuple(f"Author-{int(k):05d}" for k in members)
            yield f"SYN{serial:06d}", int(year), authors
    if not serial:
        raise DomainError("cannot sample an empty corpus: zero papers requested")


def sample_spec_papers(spec: CorpusSpec) -> Iterator[tuple[str, int, tuple[str, ...]]]:
    """The papers :func:`sample_papers` draws for a corpus spec."""
    years = range(spec.start_year, spec.start_year + len(spec.papers_per_year))
    return sample_papers(years, spec.papers_per_year, dict(spec.author_count_dist),
                         spec.seed, author_pool=spec.author_pool)


def spec_from_json(text: str) -> PowerLawSpec | CorpusSpec:
    """Load a generator spec from JSON.

    ``{"kind": "productivity", "n0": 2.0, "total_authors": 1000,
    "x_max": 50, "seed": 7}`` or ``{"kind": "corpus", "start_year": 2008,
    "papers_per_year": [...], "author_count_dist": {"1": 0.1, ...},
    "seed": 7}``.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid generator spec JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise DomainError(f"generator spec must be a JSON object, got {type(payload).__name__}")

    def field(name, convert, default=None):
        if name not in payload and default is None:
            raise DomainError(f"generator spec missing field: {name!r}")
        try:
            return convert(payload.get(name, default))
        except (AttributeError, OverflowError, TypeError, ValueError) as exc:
            raise DomainError(f"generator spec field {name!r}: {exc}") from exc

    kind = payload.get("kind")
    if kind == "productivity":
        return PowerLawSpec(
            n0=field("n0", float),
            total_authors=field("total_authors", int),
            x_max=field("x_max", int),
            seed=field("seed", int),
        )
    if kind == "corpus":
        dist = field("author_count_dist",
                     lambda d: {int(j): float(p) for j, p in d.items()})
        return CorpusSpec(
            start_year=field("start_year", int),
            papers_per_year=field("papers_per_year", lambda ps: tuple(int(p) for p in ps)),
            author_count_dist=tuple(sorted(dist.items())),
            seed=field("seed", int),
            author_pool=field("author_pool", int, 10000),
        )
    raise DomainError(f"unknown generator kind {kind!r}; "
                      "expected 'productivity' or 'corpus'")
