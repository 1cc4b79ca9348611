"""Analyzer (T2) goldens: Porter stemmer against the published vocabulary,
english analyzer chain, basic analyzer SQL-parity contract."""

import duckdb

from stocksight_ray.functions.analyzer import (
    basic_analyzer,
    english_analyzer,
    porter_stem,
)

# (word, stem) pairs from M.F. Porter's published examples.
PORTER_CASES = [
    ("caresses", "caress"), ("ponies", "poni"), ("ties", "ti"),
    ("caress", "caress"), ("cats", "cat"), ("feed", "feed"),
    ("agreed", "agre"), ("plastered", "plaster"), ("bled", "bled"),
    ("motoring", "motor"), ("sing", "sing"), ("conflated", "conflat"),
    ("troubled", "troubl"), ("sized", "size"), ("hopping", "hop"),
    ("tanned", "tan"), ("falling", "fall"), ("hissing", "hiss"),
    ("fizzed", "fizz"), ("failing", "fail"), ("filing", "file"),
    ("happy", "happi"), ("sky", "sky"), ("relational", "relat"),
    ("conditional", "condit"), ("rational", "ration"), ("valenci", "valenc"),
    ("hesitanci", "hesit"), ("digitizer", "digit"), ("conformabli", "conform"),
    ("radicalli", "radic"), ("differentli", "differ"), ("vileli", "vile"),
    ("analogousli", "analog"), ("vietnamization", "vietnam"),
    ("predication", "predic"), ("operator", "oper"), ("feudalism", "feudal"),
    ("decisiveness", "decis"), ("hopefulness", "hope"),
    ("callousness", "callous"), ("formaliti", "formal"),
    ("sensitiviti", "sensit"), ("sensibiliti", "sensibl"),
    ("triplicate", "triplic"), ("formative", "form"), ("formalize", "formal"),
    ("electriciti", "electr"), ("electrical", "electr"), ("hopeful", "hope"),
    ("goodness", "good"), ("revival", "reviv"), ("allowance", "allow"),
    ("inference", "infer"), ("airliner", "airlin"), ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"), ("defensible", "defens"), ("irritant", "irrit"),
    ("replacement", "replac"), ("adjustment", "adjust"),
    ("dependent", "depend"), ("adoption", "adopt"), ("communism", "commun"),
    ("activate", "activ"), ("angulariti", "angular"),
    ("homologous", "homolog"), ("effective", "effect"),
    ("bowdlerize", "bowdler"), ("probate", "probat"), ("rate", "rate"),
    ("cease", "ceas"), ("controll", "control"), ("roll", "roll"),
]


def test_porter_published_vocabulary():
    for word, want in PORTER_CASES:
        assert porter_stem(word) == want, word


def test_english_analyzer_chain():
    assert english_analyzer("The Investor's markets were falling!") == [
        "investor", "market", "were", "fall",
    ]
    # stopwords removed, possessive stripped before stemming
    assert english_analyzer("that company's earnings") == ["compani", "earn"]
    assert english_analyzer("") == []


def test_index_and_query_side_identical():
    texts = ["Running runners ran", "Connection connected connecting"]
    for t in texts:
        assert english_analyzer(t) == english_analyzer(t)


def test_basic_analyzer_matches_duckdb_semantics():
    texts = [
        "Markets Fall 3% on Fears",
        "hello-world  FOO_bar",
        "",
        "123 456",
    ]
    con = duckdb.connect()
    for t in texts:
        sql = con.execute(
            "SELECT list_filter(regexp_split_to_array(lower(?), '[^a-z]+'), x -> x <> '')",
            [t],
        ).fetchone()[0]
        assert basic_analyzer(t) == sql, t


def test_curly_apostrophe_possessive():
    from stocksight_ray.functions.analyzer import english_analyzer

    assert english_analyzer("the investor’s gains") == english_analyzer(
        "the investor's gains"
    )
    assert "s" not in english_analyzer("the investor’s gains")


_WORDS = ["Apple", "apple", "the", "The", "investor", "company", "markets",
          "were", "falling", "2021", "3rd", "x9", "willing", "a", "S", "s"]


def test_cached_analyzer_equals_uncached():
    """The memoized analyzer (index build, serving engines) must produce
    exactly english_analyzer's terms — curly and straight possessives,
    stopwords, digits and punctuation included — on fresh and on cached
    tokens alike."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from stocksight_ray.functions.analyzer import make_cached_english_analyzer

    assert make_cached_english_analyzer()("Apple’s") == ["appl"]
    cached = make_cached_english_analyzer()
    piece = st.one_of(
        st.sampled_from(_WORDS),
        st.sampled_from(["’s", "'s", "'S", "’", "'", " ", "-", ".",
                         "!", "  ", "\n"]),
        st.text(alphabet="abcXYZ019'’ ", max_size=6),
    )

    @given(st.lists(piece, max_size=25).map("".join))
    @settings(max_examples=300, deadline=None)
    def check(text):
        assert cached(text) == english_analyzer(text)
        assert cached(text) == english_analyzer(text)  # memo-hit path

    check()
