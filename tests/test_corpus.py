"""The committed output corpus: every run's md5 is unchanged, and independent of the hash seed."""

import importlib.util
import json
import pathlib
import sys

from btfas import c4free_fas, p4_census

ROOT = pathlib.Path(__file__).parents[1]
SPEC = importlib.util.spec_from_file_location("corpus", ROOT / "tools" / "corpus.py")
corpus = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(corpus)

EXPECTED = json.loads(corpus.CORPUS.read_text(encoding="utf-8"))


def test_the_first_difference_names_the_run():
    expected = {"a": "1", "b": "2", "c": "3"}
    assert corpus.first_difference(dict(expected), expected) is None
    assert corpus.first_difference({"a": "1", "b": "9", "c": "8"}, expected) == "b: 9 != 2"
    assert corpus.first_difference({"a": "1", "c": "3"}, expected) == "b: None != 2"
    assert corpus.first_difference({**expected, "d": "4"}, expected) == "d: not in the corpus"


def test_the_corpus_is_unchanged():
    assert len(EXPECTED) > 700
    assert corpus.first_difference(corpus.compute(), EXPECTED) is None


def test_the_corpus_does_not_depend_on_the_hash_seed():
    """Two interpreters with different string hashes give the same md5 for every run: no output
    depends on set order."""
    first, second = (corpus.under(sys.executable, seed) for seed in ("0", "4242"))
    assert corpus.first_difference(first, second) is None
    assert corpus.first_difference(first, EXPECTED) is None


def test_the_corpus_censuses_rows_on_both_sides_of_the_multiply_cut(monkeypatch):
    """Both ways ``census`` repeats a mask run: rows of at most ``MULTIPLY_MAX_STRIDE`` bytes
    multiply, wider ones repeat bytes, so the corpus pins both."""
    strides = []

    def census(rows, ps, qs):
        strides.append(qs.bit_length() // 8 + 1)
        return real(rows, ps, qs)

    real = c4free_fas.census
    monkeypatch.setattr(c4free_fas, "census", census)
    for _, graph in corpus._c4free_instances():
        c4free_fas.fas_c4free(graph)
    assert min(strides) <= p4_census.MULTIPLY_MAX_STRIDE < max(strides)
