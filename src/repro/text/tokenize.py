"""Cell cleaning, label normalization and tokenization.

Web table cells arrive as raw HTML-extracted strings.  Before any similarity
computation the pipeline normalizes them: Unicode accents are folded to
ASCII, bracketed qualifiers (``"London (Ontario)"``) are kept but the
brackets themselves are treated as separators, punctuation is dropped and
whitespace collapsed.
"""

from __future__ import annotations

import re
import sys
import unicodedata

_WHITESPACE = re.compile(r"\s+")
_PUNCTUATION = re.compile(r"[^\w\s]")
_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")


def _fold_ascii(text: str) -> str:
    """Fold accented characters to their ASCII base character.

    NFKD maps every ASCII code point to itself, so ASCII text, the
    common case, is returned as it is.
    """
    if text.isascii():
        return text
    decomposed = unicodedata.normalize("NFKD", text)
    return decomposed.encode("ascii", "ignore").decode("ascii")


def clean_cell(raw: str | None) -> str:
    """Clean a raw table cell: fold accents, trim, collapse whitespace.

    Returns an empty string for ``None`` or whitespace-only cells so that
    callers can treat "no value" uniformly.
    """
    if raw is None:
        return ""
    text = _fold_ascii(str(raw))
    text = _WHITESPACE.sub(" ", text)
    return text.strip()


def normalize_label(raw: str | None) -> str:
    """Normalize an entity label for indexing and comparison.

    Lower-cases, folds accents, removes punctuation and collapses
    whitespace.  This is the canonical form used by the label index, the
    blocking component and the LABEL similarity metrics.
    """
    text = clean_cell(raw).lower()
    text = _PUNCTUATION.sub(" ", text)
    return _WHITESPACE.sub(" ", text).strip()


def tokenize(raw: str | None) -> list[str]:
    """Split a string into lower-case alphanumeric tokens.

    Used to build bag-of-words vectors and Monge-Elkan token lists.  Empty
    input yields an empty list.

    Tokens are interned: the vocabulary of a corpus is small relative to
    the token *occurrences*, and every downstream structure (term-vector
    sets, inverted-index postings, Monge-Elkan memo keys) keys on these
    strings, so sharing one object per distinct token makes those hash
    lookups pointer-fast and deduplicates the storage.
    """
    if raw is None:
        return []
    text = _fold_ascii(str(raw)).lower()
    return [sys.intern(token) for token in _TOKEN_SPLIT.split(text) if token]
