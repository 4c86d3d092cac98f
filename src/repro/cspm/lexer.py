"""Lexer for the machine-readable CSP dialect (CSPm).

Covers the subset of CSPm the paper relies on (Table I plus the declaration
forms appearing in the generated model of Fig. 3): channel / datatype /
nametype declarations, process equations, the operators of Table I, set and
enumerated-channel-set syntax, ``assert`` statements and comments.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Dict, List, NamedTuple, Optional, Tuple


class CspmSyntaxError(SyntaxError):
    """A lexing or parsing error, carrying source position."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__("{} (line {}, column {})".format(message, line, column))
        self.line = line
        self.column = column


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


KEYWORDS = frozenset(
    {
        "channel",
        "datatype",
        "nametype",
        "assert",
        "if",
        "then",
        "else",
        "let",
        "within",
        "STOP",
        "SKIP",
        "true",
        "false",
        "not",
        "and",
        "or",
        "union",
        "inter",
        "diff",
        "Events",
    }
)

# longest-match-first multi-character operators
_OPERATORS = [
    ("[T=", "TRACE_REFINES"),
    ("[F=", "FAILURES_REFINES"),
    ("[FD=", "FD_REFINES"),
    ("|~|", "INTERNAL_CHOICE"),
    ("|||", "INTERLEAVE"),
    ("[|", "LPAR_SYNC"),
    ("|]", "RPAR_SYNC"),
    ("{|", "LENUM"),
    ("|}", "RENUM"),
    ("[[", "LRENAME"),
    ("]]", "RRENAME"),
    ("/\\", "INTERRUPT"),
    ("<-", "LARROW"),
    ("->", "ARROW"),
    ("[]", "EXTERNAL_CHOICE"),
    ("==", "EQ"),
    ("!=", "NEQ"),
    ("<=", "LE"),
    (">=", "GE"),
    ("..", "DOTDOT"),
    (":[", "LPROP"),
    ("&&", "BOOL_AND"),
    ("||", "BOOL_OR"),
    ("@@", "ATAT"),
    ("=", "EQUALS"),
    ("(", "LPAREN"),
    (")", "RPAREN"),
    ("{", "LBRACE"),
    ("}", "RBRACE"),
    ("[", "LBRACKET"),
    ("]", "RBRACKET"),
    ("<", "LT"),
    (">", "GT"),
    (",", "COMMA"),
    (";", "SEMI"),
    (":", "COLON"),
    ("?", "QUERY"),
    ("!", "BANG"),
    (".", "DOT"),
    ("\\", "HIDE"),
    ("|", "BAR"),
    ("+", "PLUS"),
    ("-", "MINUS"),
    ("*", "STAR"),
    ("/", "SLASH"),
    ("%", "PERCENT"),
    ("&", "GUARD"),
    ("@", "AT"),
    ("_", "UNDERSCORE"),
]


#: one token, after any whitespace, closed block comments and ``--``
#: comments that a newline ends, which the leading group skips.  The token
#: is group 1: a name, an ASCII integer literal, the end of the source (with
#: a ``--`` comment that runs to it), a ``{-`` that no ``-}`` closes (it
#: must win over the ``{`` operator, and takes the rest of the source, so
#: no later ``{-`` is searched for a close again), an operator (longest
#: first), or any other character.  A name continues with ``str.isalnum`` characters, ``_``
#: and ``'`` (``\w`` is ``isalnum`` or ``_``); it must start with a letter
#: or ``_``, which :func:`lex` checks, because ``[^\W\d]`` also admits
#: non-letters such as ``²``.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|\{-.*?-\}|--[^\n]*(?=\n))*"
    r"([^\W\d][\w']*|[0-9]+|(?:--[^\n]*)?\Z|\{-.*|"
    + "|".join(re.escape(symbol) for symbol, _ in _OPERATORS)
    + r"|.)",
    re.DOTALL,
)

#: the kind of every token text that has one fixed kind: an operator's
#: name, a keyword's own text, ``UNDERSCORE`` for the wildcard ``_``
_FIXED_KINDS: Dict[str, str] = dict(_OPERATORS)
_FIXED_KINDS.update((keyword, keyword) for keyword in KEYWORDS)


class _Kinds(dict):
    """Token text -> kind, learning each name and literal on first sight."""

    __slots__ = ()

    def __missing__(self, text: str) -> str:
        first = text[:1]
        if "0" <= first <= "9":
            kind = "NUMBER"
        elif first.isalpha() or first == "_":
            kind = "IDENT"
        elif not first or first == "-":
            kind = "EOF"  # the end, or a ``--`` comment that runs to it
        elif text.startswith("{-"):
            kind = "OPEN_COMMENT"
        else:
            kind = "BAD"
        self[text] = kind
        return kind


class TokenStream:
    """A lexed source: parallel lists of token kinds and texts, then EOF.

    A keyword's kind is its own text (``"channel"``, ``"if"``); every other
    kind is a name such as ``IDENT``, ``NUMBER`` or ``ARROW``.  The EOF
    token's text is empty.  Start offsets, and line and column from them,
    are computed only when asked for: for an error, or for
    :func:`tokenize`.
    """

    __slots__ = ("source", "kinds", "texts", "_starts", "_newlines")

    def __init__(self, source: str, kinds: List[str], texts: List[str]) -> None:
        self.source = source
        self.kinds = kinds
        self.texts = texts
        self._starts: Optional[List[int]] = None
        self._newlines: List[int] = []

    def position(self, index: int) -> Tuple[int, int]:
        """The 1-based line and column at which token *index* starts."""
        if self._starts is None:
            # the same scan as :func:`lex`, so the matches line up
            self._starts = [match.start(1) for match in _TOKEN.finditer(self.source)]
            self._newlines = [
                match.start() for match in re.finditer("\n", self.source)
            ]
        offset = self._starts[index]
        line = bisect_left(self._newlines, offset)
        line_start = self._newlines[line - 1] + 1 if line else 0
        return line + 1, offset - line_start + 1

    def error(self, message: str, index: int) -> CspmSyntaxError:
        """A :class:`CspmSyntaxError` located at token *index*."""
        return CspmSyntaxError(message, *self.position(index))


def lex(source: str) -> TokenStream:
    """Lex CSPm source into a :class:`TokenStream` ending with EOF.

    Raises :class:`CspmSyntaxError` at the first character that cannot start
    a token and at a ``{-`` that no ``-}`` closes.  Both ``--`` line
    comments and ``{- -}`` block comments are stripped; a ``--`` comment
    that ends the source puts EOF at its start.  Integer literals are ASCII
    ``0-9`` only.
    """
    texts = _TOKEN.findall(source)
    kinds = list(map(_Kinds(_FIXED_KINDS).__getitem__, texts))
    end = kinds.index("EOF")
    del kinds[end + 1 :], texts[end + 1 :]
    texts[end] = ""
    stream = TokenStream(source, kinds, texts)
    if "BAD" in kinds or "OPEN_COMMENT" in kinds:
        index = min(
            kinds.index(kind) for kind in ("BAD", "OPEN_COMMENT") if kind in kinds
        )
        if kinds[index] == "OPEN_COMMENT":
            raise stream.error("unterminated block comment", index)
        message = "unexpected character {!r}".format(texts[index][0])
        raise stream.error(message, index)
    return stream


def tokenize(source: str) -> List[Token]:
    """Tokenise CSPm source into a list of :class:`Token` ending with EOF.

    The tokens of :func:`lex`, each with its line and column; a keyword's
    kind is ``KEYWORD``.  Raises :class:`CspmSyntaxError` as :func:`lex`
    does.
    """
    stream = lex(source)
    return [
        Token("KEYWORD" if kind in KEYWORDS else kind, text, *stream.position(index))
        for index, (kind, text) in enumerate(zip(stream.kinds, stream.texts))
    ]
