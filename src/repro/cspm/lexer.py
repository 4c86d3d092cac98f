"""Lexer for the machine-readable CSP dialect (CSPm).

Covers the subset of CSPm the paper relies on (Table I plus the declaration
forms appearing in the generated model of Fig. 3): channel / datatype /
nametype declarations, process equations, the operators of Table I, set and
enumerated-channel-set syntax, ``assert`` statements and comments.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple


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


#: every token class, tried in this order at each position.  Whitespace,
#: closed block comments and ``--`` comments are skipped; a ``{-`` that no
#: ``-}`` closes is an error at its start.  A name continues with
#: ``str.isalnum`` characters, ``_`` and ``'`` (``\w`` is ``isalnum`` or
#: ``_``); it must start with a letter or ``_``, which ``tokenize`` checks,
#: because ``[^\W\d]`` also admits non-letters such as ``²``.  Operators
#: go longest first.
_TOKEN = re.compile(
    r"(?P<SKIP>[ \t\r\n]+|\{-.*?-\})"
    r"|(?P<COMMENT>--[^\n]*)"
    r"|(?P<OPEN_COMMENT>\{-)"
    r"|(?P<NUMBER>[0-9]+)"
    r"|(?P<NAME>[^\W\d][\w']*)"
    r"|(?P<OPERATOR>" + "|".join(re.escape(symbol) for symbol, _ in _OPERATORS)
    + r")|(?P<BAD>.)",
    re.DOTALL,
)
_OPERATOR_KINDS = dict(_OPERATORS)


def tokenize(source: str) -> List[Token]:
    """Tokenise CSPm source into a list of tokens ending with EOF.

    Raises :class:`CspmSyntaxError` on any character that cannot start a
    token.  Both ``--`` line comments and ``{- -}`` block comments are
    stripped; a ``--`` comment that ends the source puts EOF at its start.
    Integer literals are ASCII ``0-9`` only.
    """
    tokens: List[Token] = []
    line, line_start, end = 1, 0, len(source)
    for match in _TOKEN.finditer(source):
        kind, text, start = match.lastgroup, match.group(), match.start()
        if kind == "SKIP":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rfind("\n") + 1
            continue
        column = start - line_start + 1
        if kind == "COMMENT":
            if match.end() == end:
                end = start
            continue
        if kind == "NAME":
            if not (text[0].isalpha() or text[0] == "_"):
                kind, text = "BAD", text[0]
            elif text == "_":
                kind = "UNDERSCORE"  # the wildcard, not an identifier
            else:
                kind = "KEYWORD" if text in KEYWORDS else "IDENT"
        elif kind == "OPERATOR":
            kind = _OPERATOR_KINDS[text]
        if kind == "BAD":
            message = "unexpected character {!r}".format(text)
            raise CspmSyntaxError(message, line, column)
        if kind == "OPEN_COMMENT":
            raise CspmSyntaxError("unterminated block comment", line, column)
        tokens.append(Token(kind, text, line, column))
    tokens.append(Token("EOF", "", line, end - line_start + 1))
    return tokens
