"""The `.rcat` tokenizer against the character loop in oracle_tokenize.py.

Each example is random text over the grammar's characters and keywords,
with carriage returns, tabs, comments, a superscript two, an
Arabic-Indic three and non-ASCII letters mixed in.  Both tokenizers must
give the same tokens, or the same error at the same position.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_tokenize as oracle
from relcat.dsl import ParseError, _tokenize

PIECES = (
    *"abzAZ_09 \t\r\n#=-><:;.*(){},!@",
    "->", "==", "=>", "-", "set", "def", "check", "id", "x1", "_k9", "007",
    "# a comment -> == é\n", "# trailing comment",
    "²", "٣", "é", "ß", "λ", "Ω", " ",
)


def _outcome(tokenize, text: str):
    try:
        return [tuple(tok) for tok in tokenize(text)]
    except ParseError as exc:
        return (str(exc), exc.line, exc.col)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=40).map("".join))
def test_tokens_match_the_character_loop(text):
    assert _outcome(_tokenize, text) == _outcome(oracle._tokenize, text)


def test_comment_at_end_of_file_places_eof_at_its_start():
    assert _tokenize("set A = 2 # done")[-1] == ("EOF", "", 1, 11)
    assert _tokenize("x\t\r# c\n")[-1] == ("EOF", "", 2, 1)
