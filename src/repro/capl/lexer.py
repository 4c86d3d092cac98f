"""Lexer for CAPL, Vector's C-based ECU programming language.

CAPL (Communication Access Programming Language, paper Sec. IV-B1) is C with
event procedures (``on message`` / ``on timer`` / ``on start`` / ``on key``)
and messaging builtins.  The token set is therefore C's, plus a few CAPL
keywords.  Hex literals (CAN identifiers are conventionally written ``0x101``)
and character literals (key events) are supported.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional


class CaplSyntaxError(SyntaxError):
    """Lexing or parsing error with source position."""

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
        # blocks and event procedures
        "includes",
        "variables",
        "on",
        "start",
        "preStart",
        "stopMeasurement",
        "message",
        "timer",
        "key",
        "errorFrame",
        "busOff",
        # types
        "void",
        "int",
        "long",
        "int64",
        "byte",
        "word",
        "dword",
        "qword",
        "float",
        "double",
        "char",
        "msTimer",
        "sTimer",
        # control flow
        "if",
        "else",
        "for",
        "while",
        "do",
        "switch",
        "case",
        "default",
        "break",
        "continue",
        "return",
        # misc
        "this",
        "const",
    }
)

_OPERATORS = [
    ("<<=", "SHL_ASSIGN"),
    (">>=", "SHR_ASSIGN"),
    ("++", "INCREMENT"),
    ("--", "DECREMENT"),
    ("+=", "PLUS_ASSIGN"),
    ("-=", "MINUS_ASSIGN"),
    ("*=", "STAR_ASSIGN"),
    ("/=", "SLASH_ASSIGN"),
    ("%=", "PERCENT_ASSIGN"),
    ("&=", "AND_ASSIGN"),
    ("|=", "OR_ASSIGN"),
    ("^=", "XOR_ASSIGN"),
    ("==", "EQ"),
    ("!=", "NEQ"),
    ("<=", "LE"),
    (">=", "GE"),
    ("&&", "LAND"),
    ("||", "LOR"),
    ("<<", "SHL"),
    (">>", "SHR"),
    ("{", "LBRACE"),
    ("}", "RBRACE"),
    ("(", "LPAREN"),
    (")", "RPAREN"),
    ("[", "LBRACKET"),
    ("]", "RBRACKET"),
    (";", "SEMI"),
    (",", "COMMA"),
    (".", "DOT"),
    ("=", "ASSIGN"),
    ("<", "LT"),
    (">", "GT"),
    ("+", "PLUS"),
    ("-", "MINUS"),
    ("*", "STAR"),
    ("/", "SLASH"),
    ("%", "PERCENT"),
    ("!", "NOT"),
    ("&", "AMP"),
    ("|", "PIPE"),
    ("^", "CARET"),
    ("~", "TILDE"),
    ("?", "QUESTION"),
    (":", "COLON"),
    ("#", "HASH"),
]


def tokenize(source: str) -> List[Token]:
    """Tokenise CAPL source; strips ``//``, ``/* */`` and ``/*@!...*/`` pragmas."""
    tokens: List[Token] = []
    line = 1
    column = 1
    index = 0
    length = len(source)

    def error(message: str) -> CaplSyntaxError:
        return CaplSyntaxError(message, line, column)

    def advance_over(text: str) -> None:
        nonlocal line, column
        newlines = text.count("\n")
        if newlines:
            line += newlines
            column = len(text) - text.rfind("\n")
        else:
            column += len(text)

    while index < length:
        char = source[index]
        if char == "\n":
            index += 1
            line += 1
            column = 1
            continue
        if char in " \t\r":
            index += 1
            column += 1
            continue
        if source.startswith("//", index):
            end = source.find("\n", index)
            if end == -1:
                break
            column += end - index
            index = end
            continue
        if source.startswith("/*", index):
            end = source.find("*/", index + 2)
            if end == -1:
                raise error("unterminated block comment")
            advance_over(source[index : end + 2])
            index = end + 2
            continue
        if char == '"':
            end = index + 1
            while end < length and source[end] != '"':
                if source[end] == "\\":
                    end += 1
                end += 1
            if end >= length:
                raise error("unterminated string literal")
            text = source[index : end + 1]
            tokens.append(Token("STRING", text, line, column))
            advance_over(text)
            index = end + 1
            continue
        if char == "'":
            end = index + 1
            while end < length and source[end] != "'":
                if source[end] == "\\":
                    end += 1
                end += 1
            if end >= length:
                raise error("unterminated character literal")
            text = source[index : end + 1]
            tokens.append(Token("CHAR", text, line, column))
            advance_over(text)
            index = end + 1
            continue
        # ASCII only: str.isdigit() also accepts digits such as '²'
        if "0" <= char <= "9":
            start = index
            if source.startswith("0x", index) or source.startswith("0X", index):
                index += 2
                while index < length and source[index] in "0123456789abcdefABCDEF":
                    index += 1
            else:
                while index < length and source[index] in "0123456789.":
                    index += 1
            text = source[start:index]
            tokens.append(Token("NUMBER", text, line, column))
            column += len(text)
            continue
        if char.isalpha() or char == "_":
            start = index
            while index < length and (source[index].isalnum() or source[index] == "_"):
                index += 1
            text = source[start:index]
            kind = "KEYWORD" if text in KEYWORDS else "IDENT"
            tokens.append(Token(kind, text, line, column))
            column += len(text)
            continue
        matched: Optional[Token] = None
        for symbol, kind in _OPERATORS:
            if source.startswith(symbol, index):
                matched = Token(kind, symbol, line, column)
                break
        if matched is None:
            raise error("unexpected character {!r}".format(char))
        tokens.append(matched)
        index += len(matched.text)
        column += len(matched.text)
    tokens.append(Token("EOF", "", line, column))
    return tokens


def parse_number(text: str) -> int:
    """Decode a CAPL numeric literal (decimal, hex, or float)."""
    if text.lower().startswith("0x"):
        return int(text, 16)
    if "." in text:
        return float(text)  # type: ignore[return-value]
    return int(text)


def parse_string(text: str) -> str:
    """Strip quotes and decode escapes of a string literal token."""
    body = text[1:-1]
    return (
        body.replace("\\n", "\n")
        .replace("\\t", "\t")
        .replace('\\"', '"')
        .replace("\\'", "'")
        .replace("\\\\", "\\")
    )
