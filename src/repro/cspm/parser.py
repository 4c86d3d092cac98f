"""Recursive-descent parser for the supported CSPm subset.

Operator precedence follows the FDR manual, from loosest to tightest:

    hiding  <  parallel ([|A|], |||, alphabetised)  <  |~|  <  []
            <  ;  <  guard &  <  prefix ->  <  renaming/application

Communication prefixes (``send!reqSw -> P``, ``rec?x -> P``) are
disambiguated from value expressions by backtracking: the parser first tries
to read a communication followed by ``->``; if that fails it re-reads the
tokens as a value expression.
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
from .lexer import CspmSyntaxError, Token, tokenize


class Parser:
    """A backtracking recursive-descent parser over the token list."""

    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token plumbing -----------------------------------------------------

    @property
    def current(self) -> Token:
        return self._tokens[self._pos]

    def _error(self, message: str) -> CspmSyntaxError:
        token = self.current
        return CspmSyntaxError(
            "{} (found {!r})".format(message, token.text or "<eof>"),
            token.line,
            token.column,
        )

    def _number(self) -> Number:
        """A NUMBER token as a literal; past Python's digit limit, a located error."""
        token = self.expect("NUMBER")
        try:
            return Number(int(token.text))
        except ValueError:
            raise CspmSyntaxError(
                "integer literal of {} digits is too long".format(len(token.text)),
                token.line,
                token.column,
            ) from None

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        token = self.current
        return token.kind == kind and (text is None or token.text == text)

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self.at(kind, text):
            token = self.current
            self._pos += 1
            return token
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self.accept(kind, text)
        if token is None:
            want = text or kind
            raise self._error("expected {!r}".format(want))
        return token

    def mark(self) -> int:
        return self._pos

    def reset(self, mark: int) -> None:
        self._pos = mark

    # -- top level -----------------------------------------------------------

    def parse_script(self) -> Script:
        script = Script()
        while not self.at("EOF"):
            script.declarations.append(self.parse_declaration())
        return script

    def parse_declaration(self) -> Decl:
        if self.at("KEYWORD", "channel"):
            return self._parse_channel_decl()
        if self.at("KEYWORD", "datatype"):
            return self._parse_datatype_decl()
        if self.at("KEYWORD", "nametype"):
            return self._parse_nametype_decl()
        if self.at("KEYWORD", "assert"):
            return self._parse_assert_decl()
        return self._parse_process_def()

    def _parse_channel_decl(self) -> ChannelDecl:
        self.expect("KEYWORD", "channel")
        names = [self.expect("IDENT").text]
        while self.accept("COMMA"):
            names.append(self.expect("IDENT").text)
        field_types: List[Expr] = []
        if self.accept("COLON"):
            field_types.append(self._parse_type_atom())
            while self.accept("DOT"):
                field_types.append(self._parse_type_atom())
        return ChannelDecl(tuple(names), tuple(field_types))

    def _parse_type_atom(self) -> Expr:
        """A channel field type: a named type or an inline set."""
        if self.at("LBRACE"):
            return self._parse_set()
        return Name(self.expect("IDENT").text)

    def _parse_datatype_decl(self) -> DatatypeDecl:
        self.expect("KEYWORD", "datatype")
        name = self.expect("IDENT").text
        self.expect("EQUALS")
        constructors = [self.expect("IDENT").text]
        while self.accept("BAR"):
            constructors.append(self.expect("IDENT").text)
        return DatatypeDecl(name, tuple(constructors))

    def _parse_nametype_decl(self) -> NametypeDecl:
        self.expect("KEYWORD", "nametype")
        name = self.expect("IDENT").text
        self.expect("EQUALS")
        return NametypeDecl(name, self._parse_set_expr())

    def _parse_assert_decl(self) -> AssertDecl:
        self.expect("KEYWORD", "assert")
        negated = bool(self.accept("KEYWORD", "not"))
        left = self.parse_process()
        if self.accept("TRACE_REFINES"):
            return AssertDecl("T", left, self.parse_process(), negated)
        if self.accept("FAILURES_REFINES"):
            return AssertDecl("F", left, self.parse_process(), negated)
        if self.accept("FD_REFINES"):
            return AssertDecl("FD", left, self.parse_process(), negated)
        if self.accept("LPROP"):
            words = [self.expect("IDENT").text]
            while self.at("IDENT"):
                words.append(self.expect("IDENT").text)
            prop = " ".join(words)
            # optional model annotation like [F] / [FD]
            if self.accept("LBRACKET"):
                self.expect("IDENT")
                self.expect("RBRACKET")
            self.expect("RBRACKET")
            if prop not in ("deadlock free", "divergence free", "deterministic"):
                raise self._error("unknown assertion property {!r}".format(prop))
            return AssertDecl(prop, left, None, negated)
        raise self._error("expected a refinement operator or ':[' in assert")

    def _parse_process_def(self) -> ProcessDef:
        name = self.expect("IDENT").text
        params: List[str] = []
        if self.accept("LPAREN"):
            if not self.at("RPAREN"):
                params.append(self.expect("IDENT").text)
                while self.accept("COMMA"):
                    params.append(self.expect("IDENT").text)
            self.expect("RPAREN")
        self.expect("EQUALS")
        body = self.parse_process()
        return ProcessDef(name, tuple(params), body)

    # -- process expressions, loosest binding first ---------------------------

    def parse_process(self) -> Expr:
        return self._parse_hide()

    def _parse_hide(self) -> Expr:
        left = self._parse_parallel()
        while self.accept("HIDE"):
            left = HideExpr(left, self._parse_set_expr())
        return left

    def _parse_parallel(self) -> Expr:
        left = self._parse_internal_choice()
        while True:
            if self.accept("LPAR_SYNC"):
                sync = self._parse_set_expr()
                self.expect("RPAR_SYNC")
                right = self._parse_internal_choice()
                left = ParallelExpr(left, sync, right)
            elif self.accept("INTERLEAVE"):
                right = self._parse_internal_choice()
                left = InterleaveExpr(left, right)
            elif self.at("LBRACKET"):
                # alphabetised parallel  P [A || B] Q  -- needs backtracking
                # because '[' also begins nothing else in process position
                mark = self.mark()
                self.expect("LBRACKET")
                try:
                    lalpha = self._parse_set_expr()
                    self.expect("BOOL_OR")
                    ralpha = self._parse_set_expr()
                    self.expect("RBRACKET")
                except CspmSyntaxError:
                    self.reset(mark)
                    break
                right = self._parse_internal_choice()
                left = AlphaParallelExpr(left, lalpha, ralpha, right)
            else:
                break
        return left

    def _parse_internal_choice(self) -> Expr:
        left = self._parse_external_choice()
        while self.accept("INTERNAL_CHOICE"):
            left = InternalChoiceExpr(left, self._parse_external_choice())
        return left

    def _parse_external_choice(self) -> Expr:
        left = self._parse_seq()
        while self.accept("EXTERNAL_CHOICE"):
            left = ExternalChoiceExpr(left, self._parse_seq())
        return left

    def _parse_seq(self) -> Expr:
        left = self._parse_interrupt()
        while self.accept("SEMI"):
            left = SeqExpr(left, self._parse_interrupt())
        return left

    def _parse_interrupt(self) -> Expr:
        left = self._parse_prefixish()
        while self.accept("INTERRUPT"):
            left = InterruptExpr(left, self._parse_prefixish())
        return left

    def _parse_prefixish(self) -> Expr:
        if self.at("KEYWORD", "if"):
            return self._parse_if()
        if self.at("KEYWORD", "let"):
            return self._parse_let()
        replicated = self._try_parse_replicated()
        if replicated is not None:
            return replicated
        communication = self._try_parse_prefix()
        if communication is not None:
            return communication
        expr = self.parse_expr()
        if self.accept("GUARD"):
            return GuardExpr(expr, self._parse_prefixish())
        return expr

    def _parse_if(self) -> Expr:
        self.expect("KEYWORD", "if")
        condition = self.parse_expr()
        self.expect("KEYWORD", "then")
        then_branch = self.parse_process()
        self.expect("KEYWORD", "else")
        else_branch = self.parse_process()
        return IfExpr(condition, then_branch, else_branch)

    def _parse_let(self) -> Expr:
        self.expect("KEYWORD", "let")
        definitions: List[ProcessDef] = []
        while not self.at("KEYWORD", "within"):
            definitions.append(self._parse_process_def())
        self.expect("KEYWORD", "within")
        return LetExpr(tuple(definitions), self.parse_process())

    def _try_parse_replicated(self) -> Optional[Expr]:
        """``[] x : S @ P`` and the |~| / ||| variants."""
        op_map = {
            "EXTERNAL_CHOICE": "[]",
            "INTERNAL_CHOICE": "|~|",
            "INTERLEAVE": "|||",
        }
        if self.current.kind not in op_map:
            return None
        mark = self.mark()
        kind = self.current.kind
        self._pos += 1
        if not self.at("IDENT"):
            self.reset(mark)
            return None
        variable = self.expect("IDENT").text
        if not self.accept("COLON"):
            self.reset(mark)
            return None
        domain = self._parse_set_expr()
        self.expect("AT")
        body = self._parse_prefixish()
        return ReplicatedOp(op_map[kind], variable, domain, body)

    def _try_parse_prefix(self) -> Optional[Expr]:
        """Backtracking attempt at ``channel<fields> -> continuation``."""
        if not self.at("IDENT"):
            return None
        mark = self.mark()
        channel = self.expect("IDENT").text
        fields: List[CommField] = []
        while True:
            if self.accept("BANG"):
                fields.append(CommField("!", expr=self._parse_comm_atom()))
            elif self.accept("QUERY"):
                if self.accept("UNDERSCORE"):
                    var = "_"
                else:
                    var = self.expect("IDENT").text
                restriction: Optional[Expr] = None
                if self.accept("COLON"):
                    restriction = self._parse_set_expr()
                fields.append(CommField("?", var=var, restriction=restriction))
            elif self.accept("DOT"):
                fields.append(CommField(".", expr=self._parse_comm_atom()))
            else:
                break
        if not self.accept("ARROW"):
            self.reset(mark)
            return None
        continuation = self._parse_prefixish()
        return PrefixExpr(channel, tuple(fields), continuation)

    def _parse_comm_atom(self) -> Expr:
        """A single communication field value: name, number, or parenthesised expr."""
        if self.at("IDENT"):
            return Name(self.expect("IDENT").text)
        if self.at("NUMBER"):
            return self._number()
        if self.accept("KEYWORD", "true"):
            return BoolLit(True)
        if self.accept("KEYWORD", "false"):
            return BoolLit(False)
        if self.accept("LPAREN"):
            expr = self.parse_expr()
            self.expect("RPAREN")
            return expr
        raise self._error("expected a communication field value")

    # -- value expressions -----------------------------------------------------

    def parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self.accept("KEYWORD", "or") or self.accept("BOOL_OR"):
            left = BinOp("or", left, self._parse_and())
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        while self.accept("KEYWORD", "and") or self.accept("BOOL_AND"):
            left = BinOp("and", left, self._parse_not())
        return left

    def _parse_not(self) -> Expr:
        if self.accept("KEYWORD", "not"):
            return UnaryOp("not", self._parse_not())
        return self._parse_comparison()

    _COMPARISONS = {
        "EQ": "==",
        "NEQ": "!=",
        "LT": "<",
        "GT": ">",
        "LE": "<=",
        "GE": ">=",
    }

    def _parse_comparison(self) -> Expr:
        left = self._parse_additive()
        if self.current.kind in self._COMPARISONS:
            op = self._COMPARISONS[self.current.kind]
            self._pos += 1
            return BinOp(op, left, self._parse_additive())
        return left

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while True:
            if self.accept("PLUS"):
                left = BinOp("+", left, self._parse_multiplicative())
            elif self.accept("MINUS"):
                left = BinOp("-", left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_value_atom()
        while True:
            if self.accept("STAR"):
                left = BinOp("*", left, self._parse_value_atom())
            elif self.accept("SLASH"):
                left = BinOp("/", left, self._parse_value_atom())
            elif self.accept("PERCENT"):
                left = BinOp("%", left, self._parse_value_atom())
            else:
                return left

    def _parse_value_atom(self) -> Expr:
        if self.accept("MINUS"):
            return UnaryOp("-", self._parse_value_atom())
        if self.at("NUMBER"):
            return self._number()
        if self.accept("KEYWORD", "true"):
            return BoolLit(True)
        if self.accept("KEYWORD", "false"):
            return BoolLit(False)
        if self.accept("KEYWORD", "STOP"):
            return Stop()
        if self.accept("KEYWORD", "SKIP"):
            return Skip()
        if self.accept("KEYWORD", "Events"):
            return EventsSet()
        for keyword in ("union", "inter", "diff"):
            if self.at("KEYWORD", keyword):
                self._pos += 1
                self.expect("LPAREN")
                left = self._parse_set_expr()
                self.expect("COMMA")
                right = self._parse_set_expr()
                self.expect("RPAREN")
                return BinOp(keyword, left, right)
        if self.at("LBRACE") or self.at("LENUM"):
            return self._parse_set()
        if self.accept("LPAREN"):
            expr = self.parse_process()
            self.expect("RPAREN")
            return self._parse_postfix(expr)
        if self.at("IDENT"):
            name = Name(self.expect("IDENT").text)
            expr = self._parse_postfix(name)
            # dotted value such as  send.reqSw  used in renaming pairs / sets
            if self.at("DOT"):
                parts: List[Expr] = [expr]
                while self.accept("DOT"):
                    parts.append(self._parse_comm_atom())
                return DottedExpr(tuple(parts))
            return expr
        raise self._error("expected an expression")

    def _parse_postfix(self, expr: Expr) -> Expr:
        """Application ``P(args)`` and renaming ``P[[ .. ]]`` suffixes."""
        while True:
            if self.accept("LPAREN"):
                args: List[Expr] = []
                if not self.at("RPAREN"):
                    args.append(self.parse_expr())
                    while self.accept("COMMA"):
                        args.append(self.parse_expr())
                self.expect("RPAREN")
                expr = Apply(expr, tuple(args))
            elif self.accept("LRENAME"):
                pairs: List[Tuple[Expr, Expr]] = []
                old = self._parse_event_expr()
                self.expect("LARROW")
                new = self._parse_event_expr()
                pairs.append((old, new))
                while self.accept("COMMA"):
                    old = self._parse_event_expr()
                    self.expect("LARROW")
                    new = self._parse_event_expr()
                    pairs.append((old, new))
                self.expect("RRENAME")
                expr = RenameExpr(expr, tuple(pairs))
            else:
                return expr

    def _parse_event_expr(self) -> Expr:
        """A dotted event literal used in renamings and set literals."""
        first = self._parse_comm_atom()
        if not self.at("DOT"):
            return first
        parts = [first]
        while self.accept("DOT"):
            parts.append(self._parse_comm_atom())
        return DottedExpr(tuple(parts))

    # -- set expressions --------------------------------------------------------

    def _parse_set_expr(self) -> Expr:
        """Sets in sync/hide positions: literals, names, Events, union(...)"""
        if self.at("LBRACE") or self.at("LENUM"):
            return self._parse_set()
        if self.accept("KEYWORD", "Events"):
            return EventsSet()
        for keyword in ("union", "inter", "diff"):
            if self.at("KEYWORD", keyword):
                self._pos += 1
                self.expect("LPAREN")
                left = self._parse_set_expr()
                self.expect("COMMA")
                right = self._parse_set_expr()
                self.expect("RPAREN")
                return BinOp(keyword, left, right)
        if self.at("IDENT"):
            return Name(self.expect("IDENT").text)
        raise self._error("expected a set expression")

    def _parse_set(self) -> Expr:
        if self.accept("LENUM"):
            members: List[Expr] = []
            if not self.at("RENUM"):
                members.append(self._parse_event_expr())
                while self.accept("COMMA"):
                    members.append(self._parse_event_expr())
            self.expect("RENUM")
            return EnumSet(tuple(members))
        self.expect("LBRACE")
        if self.accept("RBRACE"):
            return SetLit(())
        first = self.parse_expr()
        if self.accept("DOTDOT"):
            high = self.parse_expr()
            self.expect("RBRACE")
            return SetRange(first, high)
        elements = [first]
        while self.accept("COMMA"):
            elements.append(self._parse_event_expr())
        self.expect("RBRACE")
        return SetLit(tuple(elements))


#: the message of the error raised when nesting exhausts the Python stack
_TOO_DEEP = "expression nested too deeply"


def parse(source: str) -> Script:
    """Parse CSPm source text into a :class:`Script`.

    Nesting deeper than the interpreter's recursion limit raises a
    :class:`CspmSyntaxError` at the token the parser had reached.
    """
    parser = Parser(tokenize(source))
    try:
        return parser.parse_script()
    except RecursionError:
        raise parser._error(_TOO_DEEP) from None


def parse_expression(source: str) -> Expr:
    """Parse a single process/value expression (testing convenience)."""
    parser = Parser(tokenize(source))
    try:
        expr = parser.parse_process()
    except RecursionError:
        raise parser._error(_TOO_DEEP) from None
    parser.expect("EOF")
    return expr
