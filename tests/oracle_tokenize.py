"""The `.rcat` tokenizer as a character loop, an oracle for `dsl._tokenize`.

It advances one character per step and tries the punctuation in a fixed
order, longest first.  Its tokens and errors are the specification the
compiled-pattern tokenizer of the library must reproduce.
"""

from __future__ import annotations

import string

from relcat.dsl import ParseError, Token

_PUNCT = ("->", "==", "=", ":", ";", ".", "*", "(", ")", "{", "}", ",")
_IDENT_START = set(string.ascii_letters + "_")
_IDENT_CONT = set(string.ascii_letters + string.digits + "_")
# ASCII only: `str.isdigit` also accepts superscripts and other scripts'
# digits, which `int` then refuses or reads as decimals
_DIGITS = set(string.digits)


def _tokenize(text: str) -> list[Token]:
    out = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line, col, i = line + 1, 1, i + 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in _IDENT_START:
            start = i
            while i < n and text[i] in _IDENT_CONT:
                i += 1
            out.append(Token("IDENT", text[start:i], line, col))
            col += i - start
            continue
        if ch in _DIGITS:
            start = i
            while i < n and text[i] in _DIGITS:
                i += 1
            out.append(Token("INT", text[start:i], line, col))
            col += i - start
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                out.append(Token("PUNCT", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    out.append(Token("EOF", "", line, col))
    return out
