"""Recursive-descent parser for the supported CSPm subset.

Operator precedence follows the FDR manual, from loosest to tightest:

    hiding  <  parallel ([|A|], |||, alphabetised)  <  |~|  <  []
            <  ;  <  /\\  <  guard &  <  prefix ->  <  renaming/application

The binary process operators are read by one precedence-climbing loop.  The
parser reads the lexer's parallel kind and text lists by index, and its hot
paths compare kinds inline.  Two one-token lookaheads keep it from doing
work it would undo:

* communication prefixes (``send!reqSw -> P``, ``rec?x -> P``) are told from
  value expressions by backtracking, but only an identifier followed by
  ``!``, ``?``, ``.`` or ``->`` is tried as a communication: the parser
  reads the fields, and if no ``->`` follows them it re-reads the tokens as a
  value expression;
* an identifier that no application, renaming, dot or binary value operator
  follows is a :class:`Name` at once.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .ast_nodes import (
    AlphaParallelExpr,
    Apply,
    AssertDecl,
    BinOp,
    BoolLit,
    ChannelDecl,
    CommField,
    DatatypeDecl,
    Decl,
    DottedExpr,
    EnumSet,
    EventsSet,
    Expr,
    ExternalChoiceExpr,
    GuardExpr,
    HideExpr,
    InterruptExpr,
    IfExpr,
    InterleaveExpr,
    InternalChoiceExpr,
    LetExpr,
    Name,
    NametypeDecl,
    Number,
    ParallelExpr,
    PrefixExpr,
    ProcessDef,
    RenameExpr,
    ReplicatedOp,
    Script,
    SeqExpr,
    SetLit,
    SetRange,
    Skip,
    Stop,
    UnaryOp,
)
from .lexer import CspmSyntaxError, TokenStream, lex

#: how tightly each binary process operator binds, loosest first
_PROCESS_LEVELS = {
    "HIDE": 0,
    "LPAR_SYNC": 1,
    "INTERLEAVE": 1,
    "LBRACKET": 1,
    "INTERNAL_CHOICE": 2,
    "EXTERNAL_CHOICE": 3,
    "SEMI": 4,
    "INTERRUPT": 5,
}

#: the tokens after which an identifier may begin a communication prefix
_COMMUNICATION_FOLLOWS = frozenset({"BANG", "QUERY", "DOT", "ARROW"})

#: the tokens after which an identifier is more than a bare value name
_VALUE_FOLLOWS = frozenset(
    {
        "LPAREN",
        "LRENAME",
        "DOT",
        "STAR",
        "SLASH",
        "PERCENT",
        "PLUS",
        "MINUS",
        "EQ",
        "NEQ",
        "LT",
        "GT",
        "LE",
        "GE",
        "and",
        "BOOL_AND",
        "or",
        "BOOL_OR",
    }
)

_REPLICATED = {"EXTERNAL_CHOICE": "[]", "INTERNAL_CHOICE": "|~|", "INTERLEAVE": "|||"}

_REFINEMENTS = {"TRACE_REFINES": "T", "FAILURES_REFINES": "F", "FD_REFINES": "FD"}

_PROPERTIES = ("deadlock free", "divergence free", "deterministic")

_COMPARISONS = {"EQ": "==", "NEQ": "!=", "LT": "<", "GT": ">", "LE": "<=", "GE": ">="}

_ADDITIVE = {"PLUS": "+", "MINUS": "-"}

_MULTIPLICATIVE = {"STAR": "*", "SLASH": "/", "PERCENT": "%"}

_SET_OPERATIONS = ("union", "inter", "diff")


class Parser:
    """A backtracking recursive-descent parser over a :class:`TokenStream`."""

    def __init__(self, tokens: TokenStream) -> None:
        self._tokens = tokens
        self._kinds = tokens.kinds
        self._texts = tokens.texts
        self._pos = 0

    # -- token plumbing -----------------------------------------------------

    def _error(self, message: str) -> CspmSyntaxError:
        text = self._texts[self._pos]
        return self._tokens.error(
            "{} (found {!r})".format(message, text or "<eof>"), self._pos
        )

    def _accept(self, kind: str) -> bool:
        if self._kinds[self._pos] == kind:
            self._pos += 1
            return True
        return False

    def _expect(self, kind: str) -> str:
        """Consume a token of *kind* and return its text."""
        pos = self._pos
        if self._kinds[pos] != kind:
            raise self._error("expected {!r}".format(kind))
        self._pos = pos + 1
        return self._texts[pos]

    def _number(self) -> Number:
        """The NUMBER token as a literal; past Python's digit limit, a located error."""
        pos = self._pos
        text = self._texts[pos]
        self._pos = pos + 1
        try:
            return Number(int(text))
        except ValueError:
            raise self._tokens.error(
                "integer literal of {} digits is too long".format(len(text)), pos
            ) from None

    # -- top level -----------------------------------------------------------

    def parse_script(self) -> Script:
        script = Script()
        kinds = self._kinds
        while kinds[self._pos] != "EOF":
            script.declarations.append(self.parse_declaration())
        return script

    def parse_declaration(self) -> Decl:
        kind = self._kinds[self._pos]
        if kind == "channel":
            return self._parse_channel_decl()
        if kind == "datatype":
            return self._parse_datatype_decl()
        if kind == "nametype":
            return self._parse_nametype_decl()
        if kind == "assert":
            return self._parse_assert_decl()
        return self._parse_process_def()

    def _parse_channel_decl(self) -> ChannelDecl:
        self._pos += 1
        names = [self._expect("IDENT")]
        while self._accept("COMMA"):
            names.append(self._expect("IDENT"))
        field_types: List[Expr] = []
        if self._accept("COLON"):
            field_types.append(self._parse_type_atom())
            while self._accept("DOT"):
                field_types.append(self._parse_type_atom())
        return ChannelDecl(tuple(names), tuple(field_types))

    def _parse_type_atom(self) -> Expr:
        """A channel field type: a named type or an inline set."""
        if self._kinds[self._pos] == "LBRACE":
            return self._parse_set()
        return Name(self._expect("IDENT"))

    def _parse_datatype_decl(self) -> DatatypeDecl:
        self._pos += 1
        name = self._expect("IDENT")
        self._expect("EQUALS")
        constructors = [self._expect("IDENT")]
        while self._accept("BAR"):
            constructors.append(self._expect("IDENT"))
        return DatatypeDecl(name, tuple(constructors))

    def _parse_nametype_decl(self) -> NametypeDecl:
        self._pos += 1
        name = self._expect("IDENT")
        self._expect("EQUALS")
        return NametypeDecl(name, self._parse_set_expr())

    def _parse_assert_decl(self) -> AssertDecl:
        self._pos += 1
        negated = self._accept("not")
        left = self.parse_process()
        kind = self._kinds[self._pos]
        if kind in _REFINEMENTS:
            self._pos += 1
            return AssertDecl(_REFINEMENTS[kind], left, self.parse_process(), negated)
        if kind == "LPROP":
            self._pos += 1
            words = [self._expect("IDENT")]
            while self._kinds[self._pos] == "IDENT":
                words.append(self._expect("IDENT"))
            prop = " ".join(words)
            # optional model annotation like [F] / [FD]
            if self._accept("LBRACKET"):
                self._expect("IDENT")
                self._expect("RBRACKET")
            self._expect("RBRACKET")
            if prop not in _PROPERTIES:
                raise self._error("unknown assertion property {!r}".format(prop))
            return AssertDecl(prop, left, None, negated)
        raise self._error("expected a refinement operator or ':[' in assert")

    def _parse_process_def(self) -> ProcessDef:
        name = self._expect("IDENT")
        params: List[str] = []
        if self._accept("LPAREN"):
            if self._kinds[self._pos] != "RPAREN":
                params.append(self._expect("IDENT"))
                while self._accept("COMMA"):
                    params.append(self._expect("IDENT"))
            self._expect("RPAREN")
        self._expect("EQUALS")
        body = self.parse_process()
        return ProcessDef(name, tuple(params), body)

    # -- process expressions ---------------------------------------------------

    def parse_process(self) -> Expr:
        return self._parse_operators(0)

    def _parse_operators(self, loosest: int) -> Expr:
        """Operands joined by binary process operators of level *loosest* or tighter.

        A right operand is read one level tighter than its operator, which
        makes every operator left-associative.  Once one has been applied,
        only an operator that binds no tighter may follow, as in a cascade of
        one loop per level: hiding's right side is a set, not a process, so
        ``P \\ A [] Q`` stops after ``A``.
        """
        left = self._parse_prefixish()
        kinds = self._kinds
        tightest = 5
        while True:
            kind = kinds[self._pos]
            level = _PROCESS_LEVELS.get(kind)
            if level is None or level < loosest or level > tightest:
                return left
            if kind == "LBRACKET":
                alphabets = self._parse_alphabets()
                if alphabets is None:
                    return left
                left = AlphaParallelExpr(
                    left, alphabets[0], alphabets[1], self._parse_operators(2)
                )
                tightest = level
                continue
            self._pos += 1
            if kind == "EXTERNAL_CHOICE":
                left = ExternalChoiceExpr(left, self._parse_operators(4))
            elif kind == "HIDE":
                left = HideExpr(left, self._parse_set_expr())
            elif kind == "INTERNAL_CHOICE":
                left = InternalChoiceExpr(left, self._parse_operators(3))
            elif kind == "LPAR_SYNC":
                sync = self._parse_set_expr()
                self._expect("RPAR_SYNC")
                left = ParallelExpr(left, sync, self._parse_operators(2))
            elif kind == "INTERLEAVE":
                left = InterleaveExpr(left, self._parse_operators(2))
            elif kind == "SEMI":
                left = SeqExpr(left, self._parse_operators(5))
            else:
                left = InterruptExpr(left, self._parse_prefixish())
            tightest = level

    def _parse_alphabets(self) -> Optional[Tuple[Expr, Expr]]:
        """``[A || B]`` of an alphabetised parallel, or None (position kept).

        ``[`` begins nothing else in process position, so a failure ends the
        operator chain rather than raising.
        """
        mark = self._pos
        self._pos += 1
        try:
            left = self._parse_set_expr()
            self._expect("BOOL_OR")
            right = self._parse_set_expr()
            self._expect("RBRACKET")
        except CspmSyntaxError:
            self._pos = mark
            return None
        return left, right

    def _parse_prefixish(self) -> Expr:
        pos = self._pos
        kinds = self._kinds
        kind = kinds[pos]
        if kind == "IDENT":
            if kinds[pos + 1] in _COMMUNICATION_FOLLOWS:
                prefix = self._parse_prefix()
                if prefix is not None:
                    return prefix
        elif kind == "if":
            return self._parse_if()
        elif kind == "let":
            return self._parse_let()
        elif kind in _REPLICATED:
            replicated = self._parse_replicated()
            if replicated is not None:
                return replicated
        expr = self.parse_expr()
        if kinds[self._pos] == "GUARD":
            self._pos += 1
            return GuardExpr(expr, self._parse_prefixish())
        return expr

    def _parse_if(self) -> Expr:
        self._pos += 1
        condition = self.parse_expr()
        self._expect("then")
        then_branch = self.parse_process()
        self._expect("else")
        else_branch = self.parse_process()
        return IfExpr(condition, then_branch, else_branch)

    def _parse_let(self) -> Expr:
        self._pos += 1
        definitions: List[ProcessDef] = []
        while self._kinds[self._pos] != "within":
            definitions.append(self._parse_process_def())
        self._pos += 1
        return LetExpr(tuple(definitions), self.parse_process())

    def _parse_replicated(self) -> Optional[Expr]:
        """``[] x : S @ P`` and the |~| / ||| variants, or None (position kept)."""
        kinds = self._kinds
        mark = self._pos
        if kinds[mark + 1] != "IDENT" or kinds[mark + 2] != "COLON":
            return None
        variable = self._texts[mark + 1]
        self._pos = mark + 3
        domain = self._parse_set_expr()
        self._expect("AT")
        body = self._parse_prefixish()
        return ReplicatedOp(_REPLICATED[kinds[mark]], variable, domain, body)

    def _parse_prefix(self) -> Optional[Expr]:
        """``channel<fields> -> continuation``, or None (position kept).

        Called at an identifier that ``!``, ``?``, ``.`` or ``->`` follows;
        when no ``->`` follows the fields, the tokens are a value expression.
        """
        kinds = self._kinds
        mark = self._pos
        channel = self._texts[mark]
        self._pos = mark + 1
        fields: List[CommField] = []
        while True:
            kind = kinds[self._pos]
            if kind == "DOT":
                self._pos += 1
                fields.append(CommField(".", expr=self._parse_comm_atom()))
            elif kind == "BANG":
                self._pos += 1
                fields.append(CommField("!", expr=self._parse_comm_atom()))
            elif kind == "QUERY":
                self._pos += 1
                if self._accept("UNDERSCORE"):
                    var = "_"
                else:
                    var = self._expect("IDENT")
                restriction: Optional[Expr] = None
                if self._accept("COLON"):
                    restriction = self._parse_set_expr()
                fields.append(CommField("?", var=var, restriction=restriction))
            else:
                break
        if kind != "ARROW":
            self._pos = mark
            return None
        self._pos += 1
        return PrefixExpr(channel, tuple(fields), self._parse_prefixish())

    def _parse_comm_atom(self) -> Expr:
        """A single communication field value: name, number, or parenthesised expr."""
        pos = self._pos
        kind = self._kinds[pos]
        if kind == "IDENT":
            self._pos = pos + 1
            return Name(self._texts[pos])
        if kind == "NUMBER":
            return self._number()
        if kind == "true" or kind == "false":
            self._pos = pos + 1
            return BoolLit(kind == "true")
        if kind == "LPAREN":
            self._pos = pos + 1
            expr = self.parse_expr()
            self._expect("RPAREN")
            return expr
        raise self._error("expected a communication field value")

    # -- value expressions -----------------------------------------------------

    def parse_expr(self) -> Expr:
        pos = self._pos
        kinds = self._kinds
        if kinds[pos] == "IDENT" and kinds[pos + 1] not in _VALUE_FOLLOWS:
            self._pos = pos + 1
            return Name(self._texts[pos])
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        kinds = self._kinds
        while kinds[self._pos] in ("or", "BOOL_OR"):
            self._pos += 1
            left = BinOp("or", left, self._parse_and())
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        kinds = self._kinds
        while kinds[self._pos] in ("and", "BOOL_AND"):
            self._pos += 1
            left = BinOp("and", left, self._parse_not())
        return left

    def _parse_not(self) -> Expr:
        if self._accept("not"):
            return UnaryOp("not", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Expr:
        left = self._parse_additive()
        op = _COMPARISONS.get(self._kinds[self._pos])
        if op is not None:
            self._pos += 1
            return BinOp(op, left, self._parse_additive())
        return left

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        kinds = self._kinds
        while kinds[self._pos] in _ADDITIVE:
            op = _ADDITIVE[kinds[self._pos]]
            self._pos += 1
            left = BinOp(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_value_atom()
        kinds = self._kinds
        while kinds[self._pos] in _MULTIPLICATIVE:
            op = _MULTIPLICATIVE[kinds[self._pos]]
            self._pos += 1
            left = BinOp(op, left, self._parse_value_atom())
        return left

    def _parse_value_atom(self) -> Expr:
        pos = self._pos
        kinds = self._kinds
        kind = kinds[pos]
        if kind == "IDENT":
            self._pos = pos + 1
            expr = self._parse_postfix(Name(self._texts[pos]))
            # dotted value such as  send.reqSw  used in renaming pairs / sets
            if kinds[self._pos] == "DOT":
                parts: List[Expr] = [expr]
                while self._accept("DOT"):
                    parts.append(self._parse_comm_atom())
                return DottedExpr(tuple(parts))
            return expr
        if kind == "NUMBER":
            return self._number()
        if kind == "MINUS":
            self._pos = pos + 1
            return UnaryOp("-", self._parse_value_atom())
        if kind == "true" or kind == "false":
            self._pos = pos + 1
            return BoolLit(kind == "true")
        if kind == "STOP":
            self._pos = pos + 1
            return Stop()
        if kind == "SKIP":
            self._pos = pos + 1
            return Skip()
        if kind == "Events":
            self._pos = pos + 1
            return EventsSet()
        if kind in _SET_OPERATIONS:
            return self._parse_set_operation()
        if kind == "LBRACE" or kind == "LENUM":
            return self._parse_set()
        if kind == "LPAREN":
            self._pos = pos + 1
            expr = self.parse_process()
            self._expect("RPAREN")
            return self._parse_postfix(expr)
        raise self._error("expected an expression")

    def _parse_postfix(self, expr: Expr) -> Expr:
        """Application ``P(args)`` and renaming ``P[[ .. ]]`` suffixes."""
        kinds = self._kinds
        while True:
            kind = kinds[self._pos]
            if kind == "LPAREN":
                self._pos += 1
                args: List[Expr] = []
                if kinds[self._pos] != "RPAREN":
                    args.append(self.parse_expr())
                    while self._accept("COMMA"):
                        args.append(self.parse_expr())
                self._expect("RPAREN")
                expr = Apply(expr, tuple(args))
            elif kind == "LRENAME":
                self._pos += 1
                pairs: List[Tuple[Expr, Expr]] = [self._parse_rename_pair()]
                while self._accept("COMMA"):
                    pairs.append(self._parse_rename_pair())
                self._expect("RRENAME")
                expr = RenameExpr(expr, tuple(pairs))
            else:
                return expr

    def _parse_rename_pair(self) -> Tuple[Expr, Expr]:
        old = self._parse_event_expr()
        self._expect("LARROW")
        return old, self._parse_event_expr()

    def _parse_event_expr(self) -> Expr:
        """A dotted event literal used in renamings and set literals."""
        first = self._parse_comm_atom()
        if self._kinds[self._pos] != "DOT":
            return first
        parts = [first]
        while self._accept("DOT"):
            parts.append(self._parse_comm_atom())
        return DottedExpr(tuple(parts))

    # -- set expressions --------------------------------------------------------

    def _parse_set_expr(self) -> Expr:
        """Sets in sync/hide positions: literals, names, Events, union(...)"""
        pos = self._pos
        kind = self._kinds[pos]
        if kind == "LBRACE" or kind == "LENUM":
            return self._parse_set()
        if kind == "IDENT":
            self._pos = pos + 1
            return Name(self._texts[pos])
        if kind == "Events":
            self._pos = pos + 1
            return EventsSet()
        if kind in _SET_OPERATIONS:
            return self._parse_set_operation()
        raise self._error("expected a set expression")

    def _parse_set_operation(self) -> Expr:
        """``union(A, B)``, ``inter(A, B)`` or ``diff(A, B)``."""
        keyword = self._texts[self._pos]
        self._pos += 1
        self._expect("LPAREN")
        left = self._parse_set_expr()
        self._expect("COMMA")
        right = self._parse_set_expr()
        self._expect("RPAREN")
        return BinOp(keyword, left, right)

    def _parse_set(self) -> Expr:
        if self._accept("LENUM"):
            members: List[Expr] = []
            if self._kinds[self._pos] != "RENUM":
                members.append(self._parse_event_expr())
                while self._accept("COMMA"):
                    members.append(self._parse_event_expr())
            self._expect("RENUM")
            return EnumSet(tuple(members))
        self._expect("LBRACE")
        if self._accept("RBRACE"):
            return SetLit(())
        first = self.parse_expr()
        if self._accept("DOTDOT"):
            high = self.parse_expr()
            self._expect("RBRACE")
            return SetRange(first, high)
        elements = [first]
        while self._accept("COMMA"):
            elements.append(self._parse_event_expr())
        self._expect("RBRACE")
        return SetLit(tuple(elements))


#: the message of the error raised when nesting exhausts the Python stack
_TOO_DEEP = "expression nested too deeply"


def parse(source: str) -> Script:
    """Parse CSPm source text into a :class:`Script`.

    Nesting deeper than the interpreter's recursion limit raises a
    :class:`CspmSyntaxError` at the token the parser had reached.
    """
    parser = Parser(lex(source))
    try:
        return parser.parse_script()
    except RecursionError:
        raise parser._error(_TOO_DEEP) from None


def parse_expression(source: str) -> Expr:
    """Parse a single process/value expression (testing convenience)."""
    parser = Parser(lex(source))
    try:
        expr = parser.parse_process()
    except RecursionError:
        raise parser._error(_TOO_DEEP) from None
    parser._expect("EOF")
    return expr
