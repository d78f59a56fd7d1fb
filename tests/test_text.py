"""Markup cleanup, sentence segmentation and tokenization."""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from bimine import text
from bimine.text import clean_markup, segment_sentences, tokenize
from oracles import reference_clean_markup, reference_segment_sentences

_MARKUP_PIECES = st.sampled_from(
    [
        "<table>", "<TABLE class='wide'>", "<Table\nborder=1>", "<ref name=x>", "<REF>",
        "<references/>", "<References >", "<figure", "<Figure id=\"f\">", "<gallery>",
        "<GaLLeRy mode=packed>", "<tables>", "<refx>", "</table>", "</TaBle >", "</table\n>",
        "</ref>", "</Ref  >", "</references>", "</figure>", "</GALLERY>", "</gallery x>",
        "<b>", "</b>", "<a href='x'>", "<br/>", "<", ">", "</", "&lt;table&gt;", "&amp;lt;",
        "&amp;", "text", "Word", " ", "  ", "\n", "\t", "é", "ı", "ſ", "\u212a", "İ",
    ]
)
_SENTENCE_PIECES = st.sampled_from(
    [
        "Mr", "mr", "MRS", "Dr", "Prof", "St", "etc", "Fig", "fig", "No", "vol", "ie",
        "A", "B", "x", "Q", "Smith", "went", "home", "1990", "3", "20", "ab1", "Xprof", "prof9",
        "É", "é", "Øst", "ß", "Ärzte", "İ", "\u212a", "ǅ",
        ".", "..", "...", "!", "?", "!?", "?.", ".!", ". ", "! ", "? ",
        " ", "  ", "\n", "\t", "\n\n",
    ]
)


class TestCleanMarkup:
    def test_removes_simple_tags(self):
        assert clean_markup("<b>Hello</b> world") == "Hello world"

    def test_decodes_ampersand_entity(self):
        assert clean_markup("a &amp; b") == "a & b"

    def test_drops_table_content_entirely(self):
        assert clean_markup("x <table><tr><td>1</td></tr></table> y") == "x y"

    def test_drops_other_noise_containers(self):
        assert clean_markup("a <ref name='x'>cite</ref> b") == "a b"
        assert clean_markup("a <gallery>img1 img2</gallery> b") == "a b"
        assert clean_markup("a <FIGURE>cap</FIGURE> b") == "a b"

    def test_decodes_all_five_entities(self):
        assert clean_markup("&quot;x&apos;s&quot; 1 &lt; 2 &gt; 0") == "\"x's\" 1 < 2 > 0"

    def test_encoded_markup_is_still_markup(self):
        assert clean_markup("&lt;b&gt;bold&lt;/b&gt; text") == "bold text"

    def test_unclosed_tag_stripped_to_end_of_line(self):
        assert clean_markup("keep <broken tag attr\nnext line") == "keep next line"

    def test_unclosed_tag_stripped_to_next_closing_bracket(self):
        assert clean_markup("a <foo <b>kept</b>") == "a kept"

    def test_collapses_whitespace(self):
        assert clean_markup("a\t\t b\n\n c") == "a b c"

    def test_comparison_signs_survive(self):
        assert clean_markup("3 < 4 and x<3") == "3 < 4 and x<3"

    @settings(max_examples=300)
    @given(st.text(max_size=200))
    def test_idempotent(self, raw):
        once = clean_markup(raw)
        assert clean_markup(once) == once

    @settings(max_examples=300)
    @given(st.text(max_size=200))
    def test_no_tag_openers_survive(self, raw):
        cleaned = clean_markup(raw)
        assert re.search(r"<[A-Za-z/]", cleaned) is None

    @settings(max_examples=500)
    @given(st.lists(_MARKUP_PIECES, max_size=40).map("".join) | st.text(max_size=200))
    def test_equals_regex_oracle(self, raw):
        assert clean_markup(raw) == reference_clean_markup(raw)

    def test_unclosed_noise_openings_are_not_rescanned(self, monkeypatch):
        class CountingMatch:
            calls = 0

            def match(self, string, pos):
                CountingMatch.calls += 1
                return noise.match(string, pos)

        noise = text._NOISE_RE
        monkeypatch.setattr(text, "_NOISE_RE", CountingMatch())
        raw = "<table>x " * 500 + "<Ref>y</ref> " + "<figure x " * 500
        assert clean_markup(raw) == reference_clean_markup(raw)
        # One failed match for "table", whose openings never close; one
        # match from "<Ref>" through "</ref>"; none for the "<figure"
        # openings, after which no ">" remains.
        assert CountingMatch.calls == 2


class TestSegmentSentences:
    def test_splits_on_period_before_uppercase(self):
        assert segment_sentences("A b. C d.") == ["A b.", "C d."]

    def test_empty_text(self):
        assert segment_sentences("") == []

    def test_abbreviations_and_initials_do_not_split(self):
        assert segment_sentences("Mr. A. Smith went. He left.") == [
            "Mr. A. Smith went.",
            "He left.",
        ]

    def test_no_terminator_yields_one_sentence(self):
        assert segment_sentences("no punctuation here") == ["no punctuation here"]

    def test_question_and_exclamation(self):
        assert segment_sentences("Really? Yes! Fine.") == ["Really?", "Yes!", "Fine."]

    def test_lowercase_after_period_does_not_split(self):
        assert segment_sentences("see fig. 3 vs. shown. next words") == [
            "see fig. 3 vs. shown. next words"
        ]

    def test_word_before_a_final_newline_is_guarded(self):
        assert segment_sentences("Mr\n. Smith went. Xprof\n. He left.") == [
            "Mr\n. Smith went.",
            "Xprof\n.",
            "He left.",
        ]

    def test_non_ascii_letters_are_not_word_characters(self):
        # "Ædr." ends in the guarded "dr" and "ÉA." in the initial "A".
        assert segment_sentences("Ædr. Smith went. The ÉA. Jones left. Next.") == [
            "Ædr. Smith went.",
            "The ÉA. Jones left.",
            "Next.",
        ]

    @settings(max_examples=500)
    @given(st.lists(_SENTENCE_PIECES, max_size=60).map("".join) | st.text(max_size=200))
    def test_equals_regex_oracle(self, raw):
        assert segment_sentences(raw) == reference_segment_sentences(raw)

    def test_guard_sees_a_bounded_window(self, monkeypatch):
        guard = text._guarded_abbreviation
        windows = []

        def spy(window):
            windows.append(window)
            return guard(window)

        monkeypatch.setattr(text, "_guarded_abbreviation", spy)
        raw = "Mr. Smith went to the marketplace. " * 300
        assert segment_sentences(raw) == reference_segment_sentences(raw)
        assert len(windows) == 599  # every period but the last
        assert max(map(len, windows)) == text._GUARD_WINDOW

    def test_digit_starts_a_sentence(self):
        assert segment_sentences("It was 1990. 20 years passed.") == [
            "It was 1990.",
            "20 years passed.",
        ]


class TestTokenize:
    def test_lowercases_and_strips_punctuation(self):
        assert tokenize("Hello, World!") == ["hello", "world"]

    def test_drops_pure_punctuation(self):
        assert tokenize("a ... b") == ["a", "b"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("...") == []

    def test_keeps_inner_punctuation(self):
        assert tokenize("don't stop-motion") == ["don't", "stop-motion"]
