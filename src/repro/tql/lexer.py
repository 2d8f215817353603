"""TQL tokenizer.

Tokens: case-insensitive keywords, integer literals, and the punctuation
``( ) [ , = *``.  The right bracket of half-open ranges is the ``)`` token
(the syntax mirrors the library's interval notation literally).
"""

from __future__ import annotations

import re
from typing import Iterator, List, NamedTuple

from repro.errors import QueryError

KEYWORDS = {
    "SELECT", "WHERE", "AND", "KEY", "TIME", "IN", "DURING", "AT",
    "SNAPSHOT", "HISTORY", "OF", "VALUE",
    "SUM", "COUNT", "AVG", "MIN", "MAX", "TIMELINE",
    "INSERT", "DELETE", "EXPLAIN", "LOAD",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<NUMBER>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<WORD>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<SYM>[()\[\],=*])
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    """One lexed token: ``kind`` is a keyword name, ``INT``, or a symbol."""

    kind: str
    text: str
    position: int


class TQLLexError(QueryError):
    """Unlexable input (reported with the offending position)."""

    code = "SYNTAX"


def tokenize(text: str) -> List[Token]:
    """Lex ``text`` into tokens, dropping whitespace."""
    tokens: List[Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise TQLLexError(
                f"cannot read TQL at position {position}: "
                f"{text[position:position + 12]!r}"
            )
        position = match.end()
        if match.lastgroup == "WS":
            continue
        raw = match.group()
        if match.lastgroup == "NUMBER":
            tokens.append(Token("NUMBER", raw, match.start()))
        elif match.lastgroup == "WORD":
            upper = raw.upper()
            if upper not in KEYWORDS:
                raise TQLLexError(
                    f"unknown word {raw!r} at position {match.start()}"
                )
            tokens.append(Token(upper, raw, match.start()))
        else:
            tokens.append(Token(raw, raw, match.start()))
    tokens.append(Token("EOF", "", len(text)))
    return tokens


def token_stream(text: str) -> Iterator[Token]:
    """Convenience iterator over :func:`tokenize`."""
    return iter(tokenize(text))
