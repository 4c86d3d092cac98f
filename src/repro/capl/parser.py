"""Recursive-descent parser for CAPL.

Produces the :class:`repro.capl.ast_nodes.Program` structure: includes block,
variables block, event procedures and functions.  Statement and expression
grammars follow C precedence; CAPL-specific forms are the top-level blocks,
``message``/``msTimer`` declarations and the ``this`` keyword.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from .ast_nodes import (
    AssignExpr,
    BinaryExpr,
    Block,
    BreakStmt,
    CallExpr,
    CharLiteral,
    ConditionalExpr,
    ContinueStmt,
    DoWhileStmt,
    EventProcedure,
    Expr,
    ExprStmt,
    FloatLiteral,
    ForStmt,
    FunctionDef,
    Identifier,
    IfStmt,
    IncludeDirective,
    IndexExpr,
    IntLiteral,
    MemberAccess,
    Parameter,
    PostfixExpr,
    Program,
    ReturnStmt,
    Stmt,
    StringLiteral,
    SwitchCase,
    SwitchStmt,
    ThisExpr,
    UnaryExpr,
    VarDecl,
    WhileStmt,
)
from .lexer import CaplSyntaxError, Token, parse_number, parse_string, tokenize

_TYPE_KEYWORDS = frozenset(
    {
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
        "message",
    }
)

_ASSIGN_OPS = {
    "ASSIGN": "=",
    "PLUS_ASSIGN": "+=",
    "MINUS_ASSIGN": "-=",
    "STAR_ASSIGN": "*=",
    "SLASH_ASSIGN": "/=",
    "PERCENT_ASSIGN": "%=",
    "AND_ASSIGN": "&=",
    "OR_ASSIGN": "|=",
    "XOR_ASSIGN": "^=",
    "SHL_ASSIGN": "<<=",
    "SHR_ASSIGN": ">>=",
}


class Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- plumbing ---------------------------------------------------------------

    @property
    def current(self) -> Token:
        return self._tokens[self._pos]

    def _error(self, message: str) -> CaplSyntaxError:
        token = self.current
        return CaplSyntaxError(
            "{} (found {!r})".format(message, token.text or "<eof>"),
            token.line,
            token.column,
        )

    def _number(self):
        """A NUMBER token's value; a literal Python cannot read is located."""
        token = self.expect("NUMBER")
        try:
            return parse_number(token.text)
        except ValueError:
            if token.text.isdigit():
                message = "integer literal of {} digits is too long".format(
                    len(token.text)
                )
            else:
                message = "invalid numeric literal {!r}".format(token.text)
            raise CaplSyntaxError(message, token.line, token.column) from None

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
            raise self._error("expected {!r}".format(text or kind))
        return token

    # -- program structure ---------------------------------------------------------

    def parse_program(self) -> Program:
        program = Program()
        while not self.at("EOF"):
            if self.at("KEYWORD", "includes"):
                self._parse_includes(program)
            elif self.at("KEYWORD", "variables"):
                self._parse_variables(program)
            elif self.at("KEYWORD", "on"):
                program.event_procedures.append(self._parse_event_procedure())
            else:
                program.functions.append(self._parse_function())
        return program

    def _parse_includes(self, program: Program) -> None:
        self.expect("KEYWORD", "includes")
        self.expect("LBRACE")
        while not self.at("RBRACE"):
            self.expect("HASH")
            ident = self.expect("IDENT")
            if ident.text != "include":
                raise self._error("expected '#include'")
            path = parse_string(self.expect("STRING").text)
            program.includes.append(IncludeDirective(path))
        self.expect("RBRACE")

    def _parse_variables(self, program: Program) -> None:
        self.expect("KEYWORD", "variables")
        self.expect("LBRACE")
        while not self.at("RBRACE"):
            program.variables.extend(self._parse_var_decl_line())
        self.expect("RBRACE")

    def _parse_event_procedure(self) -> EventProcedure:
        self.expect("KEYWORD", "on")
        token = self.current
        if self.accept("KEYWORD", "start"):
            return EventProcedure("start", None, self._parse_block())
        if self.accept("KEYWORD", "preStart"):
            return EventProcedure("preStart", None, self._parse_block())
        if self.accept("KEYWORD", "stopMeasurement"):
            return EventProcedure("stopMeasurement", None, self._parse_block())
        if self.accept("KEYWORD", "errorFrame"):
            return EventProcedure("errorFrame", None, self._parse_block())
        if self.accept("KEYWORD", "busOff"):
            return EventProcedure("busOff", None, self._parse_block())
        if self.accept("KEYWORD", "message"):
            selector: Union[str, int]
            if self.accept("STAR"):
                selector = "*"
            elif self.at("NUMBER"):
                selector = self._number()
            else:
                selector = self.expect("IDENT").text
            return EventProcedure("message", selector, self._parse_block())
        if self.accept("KEYWORD", "timer"):
            name = self.expect("IDENT").text
            return EventProcedure("timer", name, self._parse_block())
        if self.accept("KEYWORD", "key"):
            char_token = self.expect("CHAR")
            return EventProcedure("key", parse_string(char_token.text), self._parse_block())
        raise CaplSyntaxError(
            "unknown event kind {!r}".format(token.text), token.line, token.column
        )

    def _parse_function(self) -> FunctionDef:
        if self.current.kind == "KEYWORD" and self.current.text in _TYPE_KEYWORDS:
            return_type = self.current.text
            self._pos += 1
        else:
            raise self._error("expected a type to start a function definition")
        name = self.expect("IDENT").text
        self.expect("LPAREN")
        params: List[Parameter] = []
        if not self.at("RPAREN"):
            params.append(self._parse_parameter())
            while self.accept("COMMA"):
                params.append(self._parse_parameter())
        self.expect("RPAREN")
        body = self._parse_block()
        return FunctionDef(return_type, name, tuple(params), body)

    def _parse_parameter(self) -> Parameter:
        if self.current.kind != "KEYWORD" or self.current.text not in _TYPE_KEYWORDS:
            raise self._error("expected a parameter type")
        type_name = self.current.text
        self._pos += 1
        name = self.expect("IDENT").text
        return Parameter(type_name, name)

    # -- declarations -----------------------------------------------------------

    def _at_type(self) -> bool:
        return (
            self.current.kind == "KEYWORD"
            and self.current.text in _TYPE_KEYWORDS
            and self.current.text != "void"
        )

    def _parse_var_decl_line(self) -> List[VarDecl]:
        """One declaration line, possibly declaring several variables."""
        self.accept("KEYWORD", "const")
        type_token = self.current
        if not self._at_type():
            raise self._error("expected a type in declaration")
        type_name = type_token.text
        self._pos += 1
        message_type: Optional[Union[str, int]] = None
        if type_name == "message":
            if self.at("NUMBER"):
                message_type = self._number()
            elif self.accept("STAR"):
                message_type = "*"
            else:
                message_type = self.expect("IDENT").text
        declarations: List[VarDecl] = []
        while True:
            name = self.expect("IDENT").text
            sizes: List[int] = []
            while self.accept("LBRACKET"):
                sizes.append(self._number())
                self.expect("RBRACKET")
            initializer: Optional[Expr] = None
            if self.accept("ASSIGN"):
                initializer = self.parse_expression()
            declarations.append(
                VarDecl(type_name, name, tuple(sizes), initializer, message_type)
            )
            if not self.accept("COMMA"):
                break
        self.expect("SEMI")
        return declarations

    # -- statements -----------------------------------------------------------------

    def _parse_block(self) -> Block:
        self.expect("LBRACE")
        statements: List[Stmt] = []
        while not self.at("RBRACE"):
            statements.append(self.parse_statement())
        self.expect("RBRACE")
        return Block(tuple(statements))

    def parse_statement(self) -> Stmt:
        if self.accept("SEMI"):
            return Block(())  # C's empty statement
        if self.at("LBRACE"):
            return self._parse_block()
        if self._at_type():
            declarations = self._parse_var_decl_line()
            if len(declarations) == 1:
                return declarations[0]
            return Block(tuple(declarations))
        if self.accept("KEYWORD", "if"):
            self.expect("LPAREN")
            condition = self.parse_expression()
            self.expect("RPAREN")
            then_branch = self.parse_statement()
            else_branch: Optional[Stmt] = None
            if self.accept("KEYWORD", "else"):
                else_branch = self.parse_statement()
            return IfStmt(condition, then_branch, else_branch)
        if self.accept("KEYWORD", "while"):
            self.expect("LPAREN")
            condition = self.parse_expression()
            self.expect("RPAREN")
            return WhileStmt(condition, self.parse_statement())
        if self.accept("KEYWORD", "do"):
            body = self.parse_statement()
            self.expect("KEYWORD", "while")
            self.expect("LPAREN")
            condition = self.parse_expression()
            self.expect("RPAREN")
            self.expect("SEMI")
            return DoWhileStmt(body, condition)
        if self.accept("KEYWORD", "for"):
            self.expect("LPAREN")
            init: Optional[Stmt] = None
            if not self.at("SEMI"):
                if self._at_type():
                    declarations = self._parse_var_decl_line()
                    init = declarations[0] if len(declarations) == 1 else Block(tuple(declarations))
                else:
                    init = ExprStmt(self.parse_expression())
                    self.expect("SEMI")
            else:
                self.expect("SEMI")
            condition: Optional[Expr] = None
            if not self.at("SEMI"):
                condition = self.parse_expression()
            self.expect("SEMI")
            update: Optional[Expr] = None
            if not self.at("RPAREN"):
                update = self.parse_expression()
            self.expect("RPAREN")
            return ForStmt(init, condition, update, self.parse_statement())
        if self.accept("KEYWORD", "switch"):
            self.expect("LPAREN")
            subject = self.parse_expression()
            self.expect("RPAREN")
            self.expect("LBRACE")
            cases: List[SwitchCase] = []
            while not self.at("RBRACE"):
                if self.accept("KEYWORD", "case"):
                    value: Optional[Expr] = self.parse_expression()
                elif self.accept("KEYWORD", "default"):
                    value = None
                else:
                    raise self._error("expected 'case' or 'default'")
                self.expect("COLON")
                statements: List[Stmt] = []
                while not (
                    self.at("KEYWORD", "case")
                    or self.at("KEYWORD", "default")
                    or self.at("RBRACE")
                ):
                    statements.append(self.parse_statement())
                cases.append(SwitchCase(value, tuple(statements)))
            self.expect("RBRACE")
            return SwitchStmt(subject, tuple(cases))
        if self.accept("KEYWORD", "return"):
            value: Optional[Expr] = None
            if not self.at("SEMI"):
                value = self.parse_expression()
            self.expect("SEMI")
            return ReturnStmt(value)
        if self.accept("KEYWORD", "break"):
            self.expect("SEMI")
            return BreakStmt()
        if self.accept("KEYWORD", "continue"):
            self.expect("SEMI")
            return ContinueStmt()
        expr = self.parse_expression()
        self.expect("SEMI")
        return ExprStmt(expr)

    # -- expressions (C precedence) ---------------------------------------------------

    def parse_expression(self) -> Expr:
        return self._parse_assignment()

    def _parse_assignment(self) -> Expr:
        left = self._parse_conditional()
        if self.current.kind in _ASSIGN_OPS:
            op = _ASSIGN_OPS[self.current.kind]
            self._pos += 1
            return AssignExpr(op, left, self._parse_assignment())
        return left

    def _parse_conditional(self) -> Expr:
        condition = self._parse_logical_or()
        if self.accept("QUESTION"):
            then_value = self.parse_expression()
            self.expect("COLON")
            return ConditionalExpr(condition, then_value, self._parse_conditional())
        return condition

    def _binary_level(self, kinds, ops, next_level) -> Expr:
        left = next_level()
        while self.current.kind in kinds:
            op = ops[self.current.kind]
            self._pos += 1
            left = BinaryExpr(op, left, next_level())
        return left

    def _parse_logical_or(self) -> Expr:
        return self._binary_level({"LOR"}, {"LOR": "||"}, self._parse_logical_and)

    def _parse_logical_and(self) -> Expr:
        return self._binary_level({"LAND"}, {"LAND": "&&"}, self._parse_bit_or)

    def _parse_bit_or(self) -> Expr:
        return self._binary_level({"PIPE"}, {"PIPE": "|"}, self._parse_bit_xor)

    def _parse_bit_xor(self) -> Expr:
        return self._binary_level({"CARET"}, {"CARET": "^"}, self._parse_bit_and)

    def _parse_bit_and(self) -> Expr:
        return self._binary_level({"AMP"}, {"AMP": "&"}, self._parse_equality)

    def _parse_equality(self) -> Expr:
        return self._binary_level(
            {"EQ", "NEQ"}, {"EQ": "==", "NEQ": "!="}, self._parse_relational
        )

    def _parse_relational(self) -> Expr:
        return self._binary_level(
            {"LT", "GT", "LE", "GE"},
            {"LT": "<", "GT": ">", "LE": "<=", "GE": ">="},
            self._parse_shift,
        )

    def _parse_shift(self) -> Expr:
        return self._binary_level(
            {"SHL", "SHR"}, {"SHL": "<<", "SHR": ">>"}, self._parse_additive
        )

    def _parse_additive(self) -> Expr:
        return self._binary_level(
            {"PLUS", "MINUS"}, {"PLUS": "+", "MINUS": "-"}, self._parse_multiplicative
        )

    def _parse_multiplicative(self) -> Expr:
        return self._binary_level(
            {"STAR", "SLASH", "PERCENT"},
            {"STAR": "*", "SLASH": "/", "PERCENT": "%"},
            self._parse_unary,
        )

    def _parse_unary(self) -> Expr:
        if self.accept("MINUS"):
            return UnaryExpr("-", self._parse_unary())
        if self.accept("NOT"):
            return UnaryExpr("!", self._parse_unary())
        if self.accept("TILDE"):
            return UnaryExpr("~", self._parse_unary())
        if self.accept("INCREMENT"):
            return UnaryExpr("++", self._parse_unary())
        if self.accept("DECREMENT"):
            return UnaryExpr("--", self._parse_unary())
        return self._parse_postfix()

    def _parse_postfix(self) -> Expr:
        expr = self._parse_primary()
        while True:
            if self.accept("DOT"):
                # member names may collide with type keywords: msg.byte(0),
                # msg.word(0) are the CAPL payload accessors
                if self.at("IDENT") or self.at("KEYWORD"):
                    member = self.current.text
                    self._pos += 1
                else:
                    raise self._error("expected a member name after '.'")
                expr = MemberAccess(expr, member)
            elif self.accept("LPAREN"):
                args: List[Expr] = []
                if not self.at("RPAREN"):
                    args.append(self.parse_expression())
                    while self.accept("COMMA"):
                        args.append(self.parse_expression())
                self.expect("RPAREN")
                expr = CallExpr(expr, tuple(args))
            elif self.accept("LBRACKET"):
                index = self.parse_expression()
                self.expect("RBRACKET")
                expr = IndexExpr(expr, index)
            elif self.accept("INCREMENT"):
                expr = PostfixExpr("++", expr)
            elif self.accept("DECREMENT"):
                expr = PostfixExpr("--", expr)
            else:
                return expr

    def _parse_primary(self) -> Expr:
        if self.at("NUMBER"):
            value = self._number()
            if isinstance(value, float):
                return FloatLiteral(value)
            return IntLiteral(value)
        if self.at("STRING"):
            return StringLiteral(parse_string(self.expect("STRING").text))
        if self.at("CHAR"):
            return CharLiteral(parse_string(self.expect("CHAR").text))
        if self.accept("KEYWORD", "this"):
            return ThisExpr()
        if self.at("IDENT"):
            return Identifier(self.expect("IDENT").text)
        if self.accept("LPAREN"):
            expr = self.parse_expression()
            self.expect("RPAREN")
            return expr
        raise self._error("expected an expression")


#: the message of the error raised when nesting exhausts the Python stack
_TOO_DEEP = "expression nested too deeply"


def parse(source: str) -> Program:
    """Parse CAPL source text into a :class:`Program`.

    Nesting deeper than the interpreter's recursion limit raises a
    :class:`CaplSyntaxError` at the token the parser had reached.
    """
    parser = Parser(tokenize(source))
    try:
        return parser.parse_program()
    except RecursionError:
        raise parser._error(_TOO_DEEP) from None


def parse_file(path: str) -> Program:
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read())
