import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from pytest import approx

import bibmet

from bibmet.cli import main
from bibmet.collab import collaborative_coefficient, degree_of_collaboration
from bibmet.corpus import build_authorship_matrix, build_yearly_series
from bibmet.errors import DomainError
from bibmet.lotka import fit_lotka_least_squares, productivity_distribution
from bibmet.synth import (
    AUTHOR_POOL_LIMIT,
    AUTHOR_SLOTS_LIMIT,
    X_MAX_LIMIT,
    CorpusSpec,
    PowerLawSpec,
    sample_corpus,
    sample_spec_papers,
    sample_productivity,
    spec_from_json,
)
from bibmet.wos import parse_wos_export, write_wos_export

TABLE_COUNTS = (331, 477, 487, 583, 769, 862, 1026, 1125, 1332, 1494)


def test_importing_the_cli_leaves_numpy_unloaded():
    # only the samplers import numpy, so a run that samples nothing skips it
    env = dict(os.environ, PYTHONPATH=str(Path(bibmet.__file__).parents[1]))
    code = "import sys, bibmet.cli; print(sorted(m for m in sys.modules if m.startswith('numpy')))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_same_seed_is_byte_identical():
    spec = PowerLawSpec(n0=2.0, total_authors=5000, x_max=40, seed=123)
    a = sample_productivity(spec).to_csv()
    b = sample_productivity(spec).to_csv()
    assert a == b


def test_different_seeds_differ():
    a = sample_productivity(PowerLawSpec(2.0, 5000, 40, seed=1))
    b = sample_productivity(PowerLawSpec(2.0, 5000, 40, seed=2))
    assert a != b


def test_counts_sum_to_total():
    d = sample_productivity(PowerLawSpec(2.0, 7777, 30, seed=9))
    assert d.total_authors == 7777


def test_single_author_sample():
    d = sample_productivity(PowerLawSpec(2.0, 1, 10, seed=5))
    assert len(d.pairs) == 1
    assert d.pairs[0][1] == 1


def test_huge_exponent_concentrates_at_one_and_fit_fails():
    d = sample_productivity(PowerLawSpec(20.0, 100000, 50, seed=3))
    assert d.pairs == ((1, 100000),)
    with pytest.raises(DomainError, match="singular"):
        fit_lotka_least_squares(d)


def test_recovery_within_tolerance():
    spec = PowerLawSpec(n0=2.0, total_authors=10 ** 6, x_max=50, seed=20080101)
    fit = fit_lotka_least_squares(sample_productivity(spec))
    assert 1.95 <= fit.n <= 2.05


def test_spec_validation():
    with pytest.raises(DomainError):
        PowerLawSpec(1.0, 100, 10, 0)
    with pytest.raises(DomainError):
        PowerLawSpec(2.0, 100, 1, 0)
    with pytest.raises(DomainError):
        PowerLawSpec(2.0, 0, 10, 0)
    with pytest.raises(DomainError, match="total_authors must be >= 1 and < 2"):
        PowerLawSpec(2.0, 2 ** 63, 10, 0)
    with pytest.raises(DomainError, match="seed must fit in 64 bits"):
        CorpusSpec(2010, (3,), ((1, 1.0),), seed=-1)
    for n0 in (float("nan"), float("inf")):
        with pytest.raises(DomainError, match="n0 must be finite"):
            PowerLawSpec(n0, 100, 10, 0)


def test_x_max_above_limit_is_rejected():
    with pytest.raises(DomainError, match=f"x_max must be <= {X_MAX_LIMIT}"):
        PowerLawSpec(2.0, 100, X_MAX_LIMIT + 1, 0)


def test_x_max_at_limit_constructs():
    # construction only: sampling would allocate X_MAX_LIMIT weights
    assert PowerLawSpec(2.0, 100, X_MAX_LIMIT, 0).x_max == X_MAX_LIMIT


# corpus specs are constructed only here, never sampled: sampling at the
# limits builds millions of names

def test_corpus_spec_author_pool_above_limit_is_rejected():
    with pytest.raises(DomainError, match=f"author_pool must be <= {AUTHOR_POOL_LIMIT}"):
        CorpusSpec(2000, (10,), ((1, 1.0),), 0, author_pool=AUTHOR_POOL_LIMIT + 1)


def test_corpus_spec_author_slots_above_limit_are_rejected():
    with pytest.raises(DomainError, match=f"must be <= {AUTHOR_SLOTS_LIMIT}, got "
                                          f"{AUTHOR_SLOTS_LIMIT + 1} x 1"):
        CorpusSpec(2000, (AUTHOR_SLOTS_LIMIT + 1,), ((1, 1.0),), 0)
    with pytest.raises(DomainError, match="largest team size"):
        CorpusSpec(2000, (AUTHOR_SLOTS_LIMIT // 50, 1), ((1, 0.99), (50, 0.01)), 0)
    with pytest.raises(DomainError, match="largest team size"):
        # a negative year does not offset the papers of the others
        CorpusSpec(2000, (AUTHOR_SLOTS_LIMIT + 1, -AUTHOR_SLOTS_LIMIT), ((1, 1.0),), 0)


def test_corpus_spec_at_the_limits_constructs():
    assert CorpusSpec(2000, (AUTHOR_SLOTS_LIMIT,), ((1, 1.0),), 0,
                      author_pool=AUTHOR_POOL_LIMIT).author_pool == AUTHOR_POOL_LIMIT
    # the benchmark's shape: 100 000 papers, teams of up to 50 from 300 000 names
    spec = CorpusSpec(2008, (10_000,) * 10, ((1, 0.5), (50, 0.5)), 0, author_pool=300_000)
    assert sum(spec.papers_per_year) * 50 <= AUTHOR_SLOTS_LIMIT


# ---------------------------------------------------------------------------
# corpus sampling

def test_all_two_author_papers_pin_dc_and_cc():
    corpus = sample_corpus(range(2000, 2003), (40, 40, 40), {2: 1.0}, seed=11)
    matrix = build_authorship_matrix(corpus, cap=10, collapse=True)
    counts = matrix.class_counts()
    assert degree_of_collaboration(counts) == 1.0
    assert collaborative_coefficient(counts) == approx(0.5)


def test_yearly_counts_reproduced_exactly():
    corpus = sample_corpus(range(2008, 2018), TABLE_COUNTS,
                           {1: 0.2, 2: 0.5, 3: 0.3}, seed=77)
    series = build_yearly_series(corpus)
    assert series.papers == TABLE_COUNTS


def test_class_frequencies_within_binomial_noise():
    probs = {1: 0.1, 2: 0.3, 3: 0.6}
    n = 20000
    corpus = sample_corpus([2015], [n], probs, seed=4)
    counts = build_authorship_matrix(corpus, cap=5).class_counts()
    for j, p in probs.items():
        sigma = (n * p * (1 - p)) ** 0.5
        assert abs(counts[j] - n * p) < 5 * sigma


def test_empty_years_rejected():
    with pytest.raises(DomainError, match="empty"):
        sample_corpus([], [], {1: 1.0}, seed=0)


def test_bad_probabilities_rejected():
    with pytest.raises(DomainError):
        sample_corpus([2000], [5], {1: 0.5, 2: 0.6}, seed=0)
    with pytest.raises(DomainError):
        sample_corpus([2000], [5], {0: 1.0}, seed=0)


def test_corpus_sampling_deterministic():
    a = sample_corpus(range(2000, 2002), (5, 5), {1: 0.5, 3: 0.5}, seed=42)
    b = sample_corpus(range(2000, 2002), (5, 5), {1: 0.5, 3: 0.5}, seed=42)
    assert a.records == b.records
    assert write_wos_export(a) == write_wos_export(b)


def test_synthetic_corpus_exercises_real_parser():
    corpus = sample_corpus(range(2000, 2003), (8, 9, 10), {1: 0.4, 4: 0.6}, seed=6)
    text = write_wos_export(corpus)
    parsed = parse_wos_export(text)
    assert parsed.skipped == 0
    assert parsed.corpus.records == corpus.records


def test_spec_from_json_productivity():
    spec = spec_from_json('{"kind": "productivity", "n0": 2.5, '
                          '"total_authors": 10, "x_max": 5, "seed": 1}')
    assert isinstance(spec, PowerLawSpec)
    assert spec.n0 == 2.5


def test_spec_from_json_corpus():
    spec = spec_from_json('{"kind": "corpus", "start_year": 2008, '
                          '"papers_per_year": [3, 4], '
                          '"author_count_dist": {"1": 0.5, "2": 0.5}, "seed": 9}')
    assert isinstance(spec, CorpusSpec)
    papers = list(sample_spec_papers(spec))
    assert len(papers) == 7
    assert {year for _, year, _ in papers} == {2008, 2009}


def test_spec_from_json_errors():
    with pytest.raises(DomainError):
        spec_from_json("not json")
    with pytest.raises(DomainError):
        spec_from_json('{"kind": "nonsense"}')
    with pytest.raises(DomainError):
        spec_from_json('{"kind": "productivity", "n0": 2.0}')


# ---------------------------------------------------------------------------
# synth streams papers into the sinks that sample_corpus's records reach

SYNTH_SPECS = {
    "mixed-classes": {"start_year": 2010, "papers_per_year": [6, 9, 12],
                      "author_count_dist": {"1": 0.2, "2": 0.3, "5": 0.3, "12": 0.2},
                      "author_pool": 60, "seed": 3},
    "zero-paper-year": {"start_year": 2000, "papers_per_year": [4, 0, 5],
                        "author_count_dist": {"1": 0.5, "3": 0.5}, "seed": 8},
    "one-paper": {"start_year": 2021, "papers_per_year": [1],
                  "author_count_dist": {"2": 1.0}, "seed": 1},
}


@pytest.mark.parametrize("name", sorted(SYNTH_SPECS))
def test_synth_output_equals_the_sampled_corpus_tables(capsys, tmp_path, name):
    spec = SYNTH_SPECS[name]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "corpus", **spec}), encoding="utf-8")
    start, per_year = spec["start_year"], spec["papers_per_year"]
    corpus = sample_corpus(range(start, start + len(per_year)), per_year,
                           {int(j): p for j, p in spec["author_count_dist"].items()},
                           spec["seed"], author_pool=spec.get("author_pool", 10000))
    expected = {
        (): write_wos_export(corpus),
        ("--emit", "wos"): write_wos_export(corpus),
        ("--emit", "yearly"): build_yearly_series(corpus).to_csv(),
        ("--emit", "matrix"): build_authorship_matrix(corpus).to_csv(),
        ("--emit", "matrix", "--no-collapse"):
            build_authorship_matrix(corpus, collapse=False).to_csv(),
        ("--emit", "matrix", "--cap", "3"): build_authorship_matrix(corpus, cap=3).to_csv(),
        ("--emit", "distribution"): productivity_distribution(corpus).to_csv(),
    }
    for flags, text in expected.items():
        assert main(["synth", "--spec", str(path), *flags]) == 0
        assert capsys.readouterr() == (text, "")


@pytest.mark.parametrize("args, message", [
    (([], [], {1: 1.0}, 0), "cannot sample an empty corpus: no years given"),
    (([2000], [1, 2], {1: 1.0}, 0), "papers_per_year must align with years"),
    (([2000], [1], {}, 0), "author-count classes must be integers >= 1"),
    (([2000], [1], {0: 1.0}, 0), "author-count classes must be integers >= 1"),
    (([2000], [1], {1: 1.5, 2: -0.5}, 0), "class probabilities must be non-negative"),
    (([2000], [1], {1: 0.5, 2: 0.25}, 0), "class probabilities sum to 0.75, expected 1"),
    (([2000], [1], {3: 1.0}, 0, 2), "author pool smaller than the largest team size"),
    (([2000, 2001], [1, -1], {1: 1.0}, 0), "paper counts must be non-negative"),
    (([2000, 2001], [0, 0], {1: 1.0}, 0), "cannot sample an empty corpus: zero papers requested"),
    (([2000], [1], {1: float("nan")}, 0), "class probabilities sum to nan, expected 1"),
    (([999, 1000], [1, 1], {1: 1.0}, 0), "years must lie in [1000, 3000], got 999 to 1000"),
    (([3000, 3001], [1, 1], {1: 1.0}, 0), "years must lie in [1000, 3000], got 3000 to 3001"),
])
def test_sample_corpus_errors(args, message):
    with pytest.raises(DomainError) as raised:
        sample_corpus(*args)
    assert str(raised.value) == message
