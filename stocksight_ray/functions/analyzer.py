"""Index/query analyzer — from-scratch English analysis chain.

Replaces the Lucene ``"english"`` analyzer the reference invokes through its
ES mapping (/root/reference/sentiment.py:785-788, 828-831):

    standard tokenizer → english possessive filter ('s) → lowercase →
    english stop filter → Porter stemmer

``english_analyzer`` is THE single code path used both index-side and
query-side (and by the test oracle), which is what makes BM25 rank-identity
well-defined (SURVEY.md §2.3 T2).

``basic_analyzer`` (lowercase alpha runs, no stop/stem) exists for
SQL-oracle-checkable pipelines: DuckDB can replicate it exactly with
regexp_split_to_array + lower().

The Porter stemmer implements the classic published algorithm
(M.F. Porter, "An algorithm for suffix stripping", Program 14(3), 1980).
"""

from __future__ import annotations

import re
from typing import List

from .stopwords import LUCENE_ENGLISH_STOPWORDS

# ---------------------------------------------------------------------------
# Porter stemmer (classic 1980 algorithm)
# ---------------------------------------------------------------------------

_VOWELS = "aeiou"


def _is_cons(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_cons(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """m in [C](VC)^m[V]."""
    m = 0
    prev_cons = None
    for i in range(len(stem)):
        c = _is_cons(stem, i)
        if prev_cons is False and c:
            m += 1  # V→C transition closes a VC
        prev_cons = c
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_cons(stem, i) for i in range(len(stem)))


def _ends_double_cons(stem: str) -> bool:
    return (
        len(stem) >= 2
        and stem[-1] == stem[-2]
        and _is_cons(stem, len(stem) - 1)
    )


def _ends_cvc(stem: str) -> bool:
    if len(stem) < 3:
        return False
    if not (_is_cons(stem, len(stem) - 3) and not _is_cons(stem, len(stem) - 2) and _is_cons(stem, len(stem) - 1)):
        return False
    return stem[-1] not in "wxy"


_STEP2 = [
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
]

_STEP3 = [
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
]

_STEP4 = [
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
]


def porter_stem(word: str) -> str:
    if len(word) <= 2:
        return word
    w = word

    # Step 1a
    if w.endswith("sses"):
        w = w[:-2]
    elif w.endswith("ies"):
        w = w[:-2]
    elif w.endswith("ss"):
        pass
    elif w.endswith("s"):
        w = w[:-1]

    # Step 1b
    flag_1b = False
    if w.endswith("eed"):
        if _measure(w[:-3]) > 0:
            w = w[:-1]
    elif w.endswith("ed"):
        if _has_vowel(w[:-2]):
            w = w[:-2]
            flag_1b = True
    elif w.endswith("ing"):
        if _has_vowel(w[:-3]):
            w = w[:-3]
            flag_1b = True
    if flag_1b:
        if w.endswith(("at", "bl", "iz")):
            w += "e"
        elif _ends_double_cons(w) and not w.endswith(("l", "s", "z")):
            w = w[:-1]
        elif _measure(w) == 1 and _ends_cvc(w):
            w += "e"

    # Step 1c
    if w.endswith("y") and _has_vowel(w[:-1]):
        w = w[:-1] + "i"

    # Step 2
    for suf, rep in _STEP2:
        if w.endswith(suf):
            stem = w[: -len(suf)]
            if _measure(stem) > 0:
                w = stem + rep
            break

    # Step 3
    for suf, rep in _STEP3:
        if w.endswith(suf):
            stem = w[: -len(suf)]
            if _measure(stem) > 0:
                w = stem + rep
            break

    # Step 4
    for suf in _STEP4:
        if w.endswith(suf):
            stem = w[: -len(suf)]
            if _measure(stem) > 1:
                if suf == "ion" and not stem.endswith(("s", "t")):
                    break
                w = stem
            break

    # Step 5a
    if w.endswith("e"):
        stem = w[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            w = stem

    # Step 5b
    if _measure(w) > 1 and _ends_double_cons(w) and w.endswith("l"):
        w = w[:-1]

    return w


# ---------------------------------------------------------------------------
# Analyzers
# ---------------------------------------------------------------------------

# Standard-tokenizer stand-in: alphanumeric runs with internal apostrophes.
_STD_TOKEN_RE = re.compile(r"[A-Za-z0-9]+(?:'[A-Za-z0-9]+)*")
_BASIC_TOKEN_RE = re.compile(r"[a-z]+")


def _std_tokens(text: str) -> List[str]:
    """Standard-tokenizer surface tokens.  Curly apostrophes (U+2019,
    pervasive in real web text) are normalized to ASCII first so
    possessives strip instead of splitting into junk 's' tokens."""
    if "\u2019" in text:
        text = text.replace("\u2019", "'")
    return _STD_TOKEN_RE.findall(text)


def _english_term(tok: str):
    """One surface token → its index term, or None when it is a stopword
    (possessive strip → lowercase → stop filter → Porter stem)."""
    if tok.endswith("'s") or tok.endswith("'S"):
        tok = tok[:-2]
    tok = tok.lower()
    if not tok or tok in LUCENE_ENGLISH_STOPWORDS:
        return None
    return porter_stem(tok)


def english_analyzer(text: str) -> List[str]:
    """Index terms for one text. Single shared path, index- and query-side."""
    out: List[str] = []
    for tok in _std_tokens(text):
        t = _english_term(tok)
        if t is not None:
            out.append(t)
    return out


def basic_analyzer(text: str) -> List[str]:
    """Lowercase alpha runs — exactly replicable in ANSI SQL / DuckDB:
    ``unnest(regexp_split_to_array(lower(text), '[^a-z]+'))`` minus empties."""
    return _BASIC_TOKEN_RE.findall(text.lower())


_MISS = object()


def make_cached_english_analyzer(max_cache: int = 1_000_000):
    """english_analyzer with a per-instance raw-token → term memo.

    Identical output to english_analyzer (the same tokenizer and per-token
    chain, shared code), but each distinct surface token is analyzed once —
    with a Zipfian vocabulary the hit rate is ~99%.  Intended as per-object
    state (one cache per actor or serving engine, built in __init__), NOT
    a module-level global."""
    cache: dict = {}

    def analyze(text: str):
        out = []
        for tok in _std_tokens(text):
            r = cache.get(tok, _MISS)
            if r is _MISS:
                r = _english_term(tok)
                if len(cache) < max_cache:
                    cache[tok] = r
            if r is not None:
                out.append(r)
        return out

    return analyze


def make_cached_analyzer(name: str):
    if name == "english":
        return make_cached_english_analyzer()
    return ANALYZERS[name]


ANALYZERS = {"english": english_analyzer, "basic": basic_analyzer}
