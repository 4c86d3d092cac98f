"""Unit tests for the CSPm lexer."""

import pathlib
import random
from typing import List, Optional

import pytest

from repro.cspm import CspmSyntaxError, load, tokenize
from repro.cspm.lexer import _OPERATORS, KEYWORDS, Token

ROOT = pathlib.Path(__file__).parents[2]


def kinds(source):
    return [t.kind for t in tokenize(source)[:-1]]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]


class TestTokens:
    def test_channel_declaration(self):
        assert kinds("channel send, rec : msgs") == [
            "KEYWORD",
            "IDENT",
            "COMMA",
            "IDENT",
            "COLON",
            "IDENT",
        ]

    def test_table1_operators(self):
        """Every operator of the paper's Table I lexes."""
        assert kinds("->") == ["ARROW"]
        assert kinds("?x") == ["QUERY", "IDENT"]
        assert kinds("!x") == ["BANG", "IDENT"]
        assert kinds(";") == ["SEMI"]
        assert kinds("[]") == ["EXTERNAL_CHOICE"]
        assert kinds("|~|") == ["INTERNAL_CHOICE"]
        assert kinds("|||") == ["INTERLEAVE"]
        assert kinds("[| |]") == ["LPAR_SYNC", "RPAR_SYNC"]

    def test_refinement_operators(self):
        assert kinds("[T=") == ["TRACE_REFINES"]
        assert kinds("[F=") == ["FAILURES_REFINES"]
        assert kinds("[FD=") == ["FD_REFINES"]

    def test_enumerated_set_brackets(self):
        assert kinds("{| send |}") == ["LENUM", "IDENT", "RENUM"]

    def test_renaming_brackets(self):
        assert kinds("[[ a <- b ]]") == ["LRENAME", "IDENT", "LARROW", "IDENT", "RRENAME"]

    def test_longest_match_priority(self):
        # '[]' must not lex as two brackets, '|||' not as '||' + '|'
        assert kinds("P[]Q") == ["IDENT", "EXTERNAL_CHOICE", "IDENT"]
        assert kinds("P|||Q") == ["IDENT", "INTERLEAVE", "IDENT"]

    def test_numbers(self):
        tokens = tokenize("42 007")
        assert tokens[0].text == "42" and tokens[1].text == "007"

    def test_keywords_vs_identifiers(self):
        tokens = tokenize("channel chan datatype data")
        assert [t.kind for t in tokens[:-1]] == ["KEYWORD", "IDENT", "KEYWORD", "IDENT"]

    def test_prime_in_identifier(self):
        assert texts("P' Q''") == ["P'", "Q''"]


class TestCommentsAndErrors:
    def test_line_comment_stripped(self):
        assert kinds("P -- comment\n= STOP") == ["IDENT", "EQUALS", "KEYWORD"]

    def test_block_comment_stripped(self):
        assert kinds("P {- multi\nline -} = STOP") == ["IDENT", "EQUALS", "KEYWORD"]

    def test_unterminated_block_comment(self):
        with pytest.raises(CspmSyntaxError):
            tokenize("{- never ends")

    def test_unexpected_character(self):
        with pytest.raises(CspmSyntaxError, match="line 2"):
            tokenize("P = STOP\n€")

    def test_positions_tracked(self):
        tokens = tokenize("P =\n  STOP")
        assert tokens[0].line == 1 and tokens[0].column == 1
        assert tokens[2].line == 2 and tokens[2].column == 3

    def test_eof_token_present(self):
        assert tokenize("")[-1].kind == "EOF"


class TestLiterals:
    def test_non_ascii_letters_form_identifiers(self):
        model = load("channel c : {0..1}\n\u00e9t\u00e9 = c!1 -> STOP\n")
        assert "\u00e9t\u00e9" in model.env

    def test_non_ascii_digit_is_a_located_error(self):
        # str.isdigit() accepts '\u00b2'; an integer literal is ASCII 0-9 only
        with pytest.raises(CspmSyntaxError) as raised:
            load("channel c : {0..1}\nP = c!\u00b2\n")
        assert str(raised.value) == (
            "unexpected character '\u00b2' (line 2, column 7)"
        )
        with pytest.raises(CspmSyntaxError, match="column 8"):
            tokenize("P = c!1\u00b2")
        # a decimal digit of another script is no literal either
        with pytest.raises(CspmSyntaxError, match="'\u0663' .line 1, column 7"):
            tokenize("P = c!\u0663")

    def test_non_ascii_digit_continues_an_identifier(self):
        assert texts("x\u00b2 y\u0663") == ["x\u00b2", "y\u0663"]

    def test_trailing_line_comment_puts_eof_at_its_start(self):
        tokens = tokenize("P = STOP\n  -- no newline")
        assert tokens[-1] == Token("EOF", "", 2, 3)
        assert tokenize("P -- end\n")[-1] == Token("EOF", "", 2, 1)

    def test_unterminated_block_comment_is_reported_at_its_start(self):
        with pytest.raises(CspmSyntaxError) as raised:
            tokenize("P = STOP\n  {- open -} Q {- never\nends")
        assert (raised.value.line, raised.value.column) == (2, 16)

    def test_block_comment_keeps_columns(self):
        tokens = tokenize("{- a\nbc -}P {--}Q")
        assert tokens[0] == Token("IDENT", "P", 2, 6)
        assert tokens[1] == Token("IDENT", "Q", 2, 12)


# -- the character loop the regex lexer replaced, kept as its reference ------


def loop_tokenize(source: str) -> List[Token]:
    """Tokenise CSPm source into a list of tokens ending with EOF.

    Raises :class:`CspmSyntaxError` on any character that cannot start a
    token.  Both ``--`` line comments and ``{- -}`` block comments are
    stripped.
    """
    tokens: List[Token] = []
    line = 1
    column = 1
    index = 0
    length = len(source)

    def error(message: str) -> CspmSyntaxError:
        return CspmSyntaxError(message, line, column)

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
        if source.startswith("--", index):
            end = source.find("\n", index)
            if end == -1:
                break
            column += end - index
            index = end
            continue
        if source.startswith("{-", index):
            end = source.find("-}", index + 2)
            if end == -1:
                raise error("unterminated block comment")
            skipped = source[index : end + 2]
            newlines = skipped.count("\n")
            if newlines:
                line += newlines
                column = len(skipped) - skipped.rfind("\n")
            else:
                column += len(skipped)
            index = end + 2
            continue
        if char.isdigit():
            start = index
            while index < length and source[index].isdigit():
                index += 1
            text = source[start:index]
            tokens.append(Token("NUMBER", text, line, column))
            column += len(text)
            continue
        if char.isalpha() or char == "_":
            start = index
            while index < length and (source[index].isalnum() or source[index] in "_'"):
                index += 1
            text = source[start:index]
            kind = "KEYWORD" if text in KEYWORDS else "IDENT"
            # a lone underscore is the wildcard token, not an identifier
            if text == "_":
                kind = "UNDERSCORE"
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


# -- differential: regex lexer against the loop ------------------------------


def _corpus():
    """The CSPm the toolchain produces, one (name, text) per source."""
    from repro.candb import parse_dbc_file
    from repro.candb.cspm_export import export_database
    from repro.csp.events import Channel
    from repro.csp.process import Environment
    from repro.cspm.emitter import emit_process
    from repro.security import IntruderBuilder
    from repro.translator import ModelExtractor

    sources = [("sp02", (ROOT / "examples" / "sp02.csp").read_text("utf-8"))]
    programs = sorted((ROOT / "src" / "repro" / "ota" / "data").glob("*.can"))
    programs += sorted((ROOT / "tests" / "learn" / "corpus").glob("*.can"))
    for path in programs:
        result = ModelExtractor().extract(path.read_text("utf-8"), "ECU")
        sources.append((path.name, result.script_text))
    database = parse_dbc_file(str(ROOT / "src/repro/ota/data/ota_update.dbc"))
    sources.append(("ota_update.dbc", export_database(database)))
    payloads = ["m1", "m2", "m3"]
    legit, fake = Channel("legit", payloads), Channel("fake", payloads)
    env = Environment()
    entry = IntruderBuilder([legit], [fake], payloads).build(env)
    channels = {"legit": legit, "fake": fake}
    intruder = ["datatype P = m1 | m2 | m3", "channel legit, fake : P"]
    intruder += [
        "{} = {}".format(name, emit_process(env.resolve(name), channels))
        for name in env.names()
    ]
    intruder.append("assert {} :[deadlock free]".format(entry.name))
    sources.append(("intruder", "\n".join(intruder) + "\n"))
    return sources


CORPUS = _corpus()

#: letters of several categories (Ll, Lu, Lo, Lt, Lm), non-ASCII
#: characters ``str.isalnum`` accepts that are not letters (No, Nd, Nl)
#: and a combining mark (Mn) that neither accepts
NON_ASCII = "\u00e9\u00df\u03a9\u4e2d\u01c5\u02b0\u00b2\u0663\u00bd\u216b\uff10\u0301"


def _outcome(lexer, source):
    try:
        return lexer(source)
    except CspmSyntaxError as error:
        return str(error)


def _offset(source, line, column):
    lines = source.split("\n")
    return sum(len(text) + 1 for text in lines[: line - 1]) + column - 1


def _assert_agrees(source):
    expected = _outcome(loop_tokenize, source)
    actual = _outcome(tokenize, source)
    if actual == expected:
        return
    # the one documented change: the loop took any str.isdigit() character
    # into an integer literal, the regex lexer rejects a non-ASCII digit
    with pytest.raises(CspmSyntaxError) as raised:
        tokenize(source)
    at = _offset(source, raised.value.line, raised.value.column)
    digit = source[at]
    assert digit.isdigit() and not digit.isascii(), (source, expected, actual)
    assert actual.startswith("unexpected character {!r}".format(digit))
    assert tokenize(source[:at])[:-1] == loop_tokenize(source[:at])[:-1]
    last = loop_tokenize(source[: at + 1])[-2]
    assert last.kind == "NUMBER" and last.text.endswith(digit), (source, last)


def _mutants(text, rng):
    def insert(piece):
        at = rng.randrange(len(text) + 1)
        return text[:at] + piece + text[at:]

    for _ in range(4):
        yield text[: rng.randrange(len(text) + 1)]
    for piece in ("{-", "--", "-}", "\t", "\r"):
        yield insert(piece)
        yield insert(piece)
    for char in NON_ASCII:
        yield insert(char)
        yield insert("1" + char)
    for symbol, _ in _OPERATORS:
        yield insert(symbol)


@pytest.mark.parametrize("name,text", CORPUS, ids=[name for name, _ in CORPUS])
def test_regex_lexer_agrees_with_the_loop(name, text, repro_seed):
    assert tokenize(text) == loop_tokenize(text)
    rng = random.Random("{}:{}".format(repro_seed, name))
    for mutant in _mutants(text, rng):
        _assert_agrees(mutant)


def test_every_operator_lexes_alone_and_adjacent():
    for symbol, _ in _OPERATORS:
        for source in (symbol, "a" + symbol + "b", symbol + symbol, " 1" + symbol):
            _assert_agrees(source)
