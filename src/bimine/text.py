"""Text normalization shared by every stage of the mining pipeline.

Three operations live here: markup cleanup for raw article text, a
rule-based sentence segmenter, and the single tokenizer that the corpus
statistics, the translation lexicon and the classifier features all use.
Keeping one tokenizer avoids skew between modules that must agree on
what a "token" is.
"""

from __future__ import annotations

import re
import string

# Containers whose whole content is dropped as noise (tables, reference
# blocks, figures and image galleries carry no running text).
_NOISE_TAGS = ("table", "ref", "references", "figure", "gallery")

_ENTITY_MAP = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}
_ENTITY_RE = re.compile(r"&(amp|lt|gt|quot|apos);")
_NOISE_RE = re.compile(
    r"<(" + "|".join(_NOISE_TAGS) + r")\b[^>]*>.*?</\1\s*>",
    re.IGNORECASE | re.DOTALL,
)
# The part of ``_NOISE_RE`` before the opening's ``[^>]*>``; it captures
# the same tag text wherever both can match.
_NOISE_OPEN_RE = re.compile(r"<(" + "|".join(_NOISE_TAGS) + r")\b", re.IGNORECASE)
_TAG_RE = re.compile(r"</?[a-zA-Z][^>]*>")
# A tag that never closes is stripped up to the end of its line.
_UNCLOSED_TAG_RE = re.compile(r"<[/a-zA-Z][^>\n]*")

# Titles and similar short forms whose trailing period is not a sentence
# boundary.  Single capital letters (initials) are guarded separately.
_ABBREVIATIONS = frozenset(
    ["mr", "mrs", "ms", "dr", "prof", "st", "jr", "sr", "vs", "etc", "eg", "ie", "vol", "no", "fig"]
)

_BOUNDARY_RE = re.compile(r"[.!?]\s+(?=[A-Z0-9])")
_WORD_CHARS = frozenset(string.ascii_letters + string.digits)
# Enough text before a period to hold the longest guarded word, one
# more character to tell a longer word apart, and one trailing newline
# (see _guarded_abbreviation).
_GUARD_WINDOW = max(map(len, _ABBREVIATIONS)) + 2

_PUNCT = string.punctuation


def clean_markup(raw: str) -> str:
    """Strip markup from ``raw`` and normalize whitespace.

    Entity references for the five common escapes are decoded first (to a
    fixpoint, so no encoded markup survives), then noise containers are
    dropped with their content, remaining well-formed tags are removed,
    and unclosed tags are stripped to the end of their line.  The result
    is idempotent: cleaning cleaned text changes nothing.
    """
    text = raw
    while True:
        decoded = _ENTITY_RE.sub(lambda m: _ENTITY_MAP[m.group(1)], text)
        if decoded == text:
            break
        text = decoded
    text = _drop_noise(text)
    # Every tag ends in ">", so none starts after the last one; leaving
    # that tail out keeps each failed attempt from rescanning it.
    head = text.rfind(">") + 1
    text = _TAG_RE.sub(" ", text[:head]) + text[head:]
    text = _UNCLOSED_TAG_RE.sub(" ", text)
    # ``str.split()`` splits at the characters that ``re`` matches as
    # ``\s``, so this is ``re.sub(r"\s+", " ", text).strip()``.
    return " ".join(text.split())


def _drop_noise(text: str) -> str:
    """``_NOISE_RE.sub(" ", text)`` in time linear in ``len(text)``.

    The regex alone rescans to the end of the text for every opening
    that has no closing tag.  Here each opening is matched only while a
    close may still follow it: once an opening of some tag text finds
    no close, no later opening of that same text can (its close would
    have to lie beyond the first one's ``>``), and no opening can match
    at all past the last ``>``.  Matches, and so the output, are those
    of the plain substitution.
    """
    last_gt = text.rfind(">")
    unclosed: set[str] = set()
    pieces: list[str] = []
    done = pos = 0
    while (opening := _NOISE_OPEN_RE.search(text, pos)) is not None:
        if opening.end() > last_gt:
            break
        tag = opening.group(1)
        match = None if tag in unclosed else _NOISE_RE.match(text, opening.start())
        if match is None:
            unclosed.add(tag)
            pos = opening.start() + 1
            continue
        pieces += (text[done : match.start()], " ")
        done = pos = match.end()
    pieces.append(text[done:])
    return "".join(pieces)


def _guarded_abbreviation(window: str) -> bool:
    """True if the text before a period, of which ``window`` is the last
    ``_GUARD_WINDOW`` characters at most, ends in a word whose period is
    not a boundary.

    The word is the run of ASCII letters and digits at the end, or just
    before one final newline (where a regex ``$`` also matches).  A run
    longer than any guarded word may be cut by the window, but it is
    not guarded either way.
    """
    if window.endswith("\n"):
        window = window[:-1]
    start = len(window)
    while start and window[start - 1] in _WORD_CHARS:
        start -= 1
    word = window[start:]
    if len(word) == 1:
        return word.isupper()  # an initial, e.g. the "A." in "A. Smith"
    return word.lower() in _ABBREVIATIONS


def segment_sentences(text: str) -> list[str]:
    """Split cleaned text into sentences.

    A boundary is sentence-final punctuation followed by whitespace and
    an uppercase letter or digit.  Periods after initials ("A.") or
    common abbreviations ("Mr.") do not split.  Text without any
    boundary comes back as a single sentence; empty text yields nothing.
    """
    sentences: list[str] = []
    start = 0
    for m in _BOUNDARY_RE.finditer(text):
        end = m.start()
        if text[end] == "." and _guarded_abbreviation(text[max(0, end - _GUARD_WINDOW) : end]):
            continue
        piece = text[start : end + 1].strip()
        if piece:
            sentences.append(piece)
        start = m.end()
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip surrounding punctuation."""
    tokens = []
    for raw in text.lower().split():
        token = raw.strip(_PUNCT)
        if token:
            tokens.append(token)
    return tokens
