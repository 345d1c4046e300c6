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
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .corpus import Corpus, PublicationRecord
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
        if self.n0 <= 1:
            raise DomainError(f"power-law exponent must be > 1, got {self.n0}")
        if self.x_max < 2:
            raise DomainError("x_max must be >= 2")
        if self.x_max > X_MAX_LIMIT:
            raise DomainError(f"x_max must be <= {X_MAX_LIMIT}")
        if self.total_authors < 1:
            raise DomainError("total_authors must be >= 1")
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
    classes = sorted(author_count_dist)
    if not classes or any(j < 1 for j in classes):
        raise DomainError("author-count classes must be integers >= 1")
    probs = [author_count_dist[j] for j in classes]
    if any(p < 0 for p in probs):
        raise DomainError("class probabilities must be non-negative")
    if abs(sum(probs) - 1.0) > 1e-9:
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
    kind = payload.get("kind")
    try:
        if kind == "productivity":
            return PowerLawSpec(
                n0=float(payload["n0"]),
                total_authors=int(payload["total_authors"]),
                x_max=int(payload["x_max"]),
                seed=int(payload["seed"]),
            )
        if kind == "corpus":
            dist = {int(j): float(p)
                    for j, p in payload["author_count_dist"].items()}
            return CorpusSpec(
                start_year=int(payload["start_year"]),
                papers_per_year=tuple(int(p) for p in payload["papers_per_year"]),
                author_count_dist=tuple(sorted(dist.items())),
                seed=int(payload["seed"]),
                author_pool=int(payload.get("author_pool", 10000)),
            )
    except KeyError as exc:
        raise DomainError(f"generator spec missing field: {exc}") from exc
    raise DomainError(f"unknown generator kind {kind!r}; "
                      "expected 'productivity' or 'corpus'")
