"""Differential: the token-list parser against the frozen reference parser.

Every source of the lexer's corpus (sp02, every extracted CAPL program, the
dbc export, an intruder script) and seeded mutants of each -- a truncation,
a deletion of 1-7 characters, or an inserted operator or keyword -- must
give an equal AST, or a ``CspmSyntaxError`` with an equal message, line and
column, from :func:`repro.cspm.parse` and from the parser the rewrite
replaced (``reference_parser``).  ``tokenize`` must agree with the
reference lexer the same way.
"""

import random

import pytest

from repro.cspm import CspmSyntaxError, parse, tokenize
from repro.cspm.lexer import _OPERATORS, KEYWORDS

from . import reference_parser as reference
from .test_lexer import CORPUS

#: mutants drawn per corpus source: 5,400 over the corpus's 12 sources
MUTANTS_PER_SOURCE = 450

#: what an insertion mutant inserts
PIECES = [symbol for symbol, _ in _OPERATORS] + sorted(KEYWORDS)


def _mutants(text, rng):
    for _ in range(MUTANTS_PER_SOURCE):
        shape = rng.randrange(3)
        if shape == 0:
            yield text[: rng.randrange(len(text) + 1)]
        elif shape == 1:
            at = rng.randrange(len(text))
            yield text[:at] + text[at + rng.randint(1, 7) :]
        else:
            at = rng.randrange(len(text) + 1)
            pad = rng.choice(("", " "))
            yield text[:at] + pad + rng.choice(PIECES) + pad + text[at:]


def _outcome(function, source):
    try:
        return function(source)
    except CspmSyntaxError as error:
        return (str(error), error.line, error.column)


def _assert_agrees(source):
    assert _outcome(tokenize, source) == _outcome(reference.tokenize, source), source
    assert _outcome(parse, source) == _outcome(reference.parse, source), source


@pytest.mark.parametrize("name,text", CORPUS, ids=[name for name, _ in CORPUS])
def test_parser_agrees_with_the_reference(name, text, repro_seed):
    assert parse(text) == reference.parse(text)
    rng = random.Random("{}:parser:{}".format(repro_seed, name))
    for mutant in _mutants(text, rng):
        _assert_agrees(mutant)


@pytest.mark.parametrize(
    "source",
    [
        "P = a -> b -> STOP [] c.1 -> P",
        "P = Q \\ {| a |} [] R",  # hiding's set operand ends the chain
        "P = Q [ {| a |} || {| b |} ] R ; S /\\ T",
        "P = Q [ a ] R",  # a failed alphabetised parallel ends the chain
        "P = x == 1 & a -> P |~| [] y : {0..2} @ b!y -> P",
        "P = c?x:{1, 2}!x.(x + 1) -> P [[ c <- d ]]",
        "P(n) = if n > 0 and not n == 3 then c!n -> P(n - 1) else SKIP",
        "assert P [T= Q \\ diff(Events, {a.B})\nassert not P :[deadlock free [F]]",
        "P = let Q = a -> Q within Q ||| R",
        "P = c.x",
        "P = c!",
        "P = f(x) -> STOP",
    ],
)
def test_operator_shapes_agree(source):
    _assert_agrees(source)
