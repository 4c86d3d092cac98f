"""Unit tests for the CAPL parser."""

import pytest

from repro.capl import CaplSyntaxError, parse
from repro.capl import ast
from repro.ota.capl_sources import ECU_SOURCE, VMG_SOURCE


class TestTopLevelBlocks:
    def test_includes_block(self):
        program = parse('includes\n{\n  #include "util.cin"\n}')
        assert program.includes[0].path == "util.cin"

    def test_variables_block(self):
        program = parse(
            "variables { int counter = 0; byte buffer[8]; msTimer t; }"
        )
        names = [v.name for v in program.variables]
        assert names == ["counter", "buffer", "t"]

    def test_message_declaration_by_name(self):
        program = parse("variables { message reqSw msgReqSw; }")
        decl = program.variables[0]
        assert decl.message_type == "reqSw" and decl.name == "msgReqSw"

    def test_message_declaration_by_id(self):
        program = parse("variables { message 0x101 msg; }")
        assert program.variables[0].message_type == 0x101

    def test_wildcard_message_declaration(self):
        program = parse("variables { message * anyMsg; }")
        assert program.variables[0].message_type == "*"

    def test_multiple_declarators_per_line(self):
        program = parse("variables { int a, b, c; }")
        assert len(program.variables) == 3

    def test_event_procedure_kinds(self):
        program = parse(
            "on start { }\n"
            "on message reqSw { }\n"
            "on message 0x200 { }\n"
            "on message * { }\n"
            "on timer t { }\n"
            "on key 'k' { }\n"
            "on stopMeasurement { }\n"
        )
        kinds = [(p.kind, p.selector) for p in program.event_procedures]
        assert kinds == [
            ("start", None),
            ("message", "reqSw"),
            ("message", 0x200),
            ("message", "*"),
            ("timer", "t"),
            ("key", "k"),
            ("stopMeasurement", None),
        ]

    def test_function_definition(self):
        program = parse("void f(int x, byte y) { return; }")
        function = program.functions[0]
        assert function.return_type == "void"
        assert [p.name for p in function.params] == ["x", "y"]

    def test_handler_lookup(self):
        program = parse("on message reqSw { }\non message * { }")
        assert program.handler_for_message("reqSw").selector == "reqSw"
        assert program.handler_for_message("other").selector == "*"

    def test_handler_lookup_without_wildcard(self):
        program = parse("on message reqSw { }")
        assert program.handler_for_message("other") is None


class TestStatements:
    def parse_body(self, body):
        return parse("void f() { " + body + " }").functions[0].body.statements

    def test_if_else(self):
        (stmt,) = self.parse_body("if (x == 1) { y = 2; } else { y = 3; }")
        assert isinstance(stmt, ast.IfStmt)
        assert stmt.else_branch is not None

    def test_while(self):
        (stmt,) = self.parse_body("while (i < 10) i++;")
        assert isinstance(stmt, ast.WhileStmt)

    def test_do_while(self):
        (stmt,) = self.parse_body("do { i++; } while (i < 3);")
        assert isinstance(stmt, ast.DoWhileStmt)

    def test_for_loop(self):
        (stmt,) = self.parse_body("for (i = 0; i < 8; i++) { s += i; }")
        assert isinstance(stmt, ast.ForStmt)
        assert stmt.init is not None and stmt.update is not None

    def test_for_with_declaration(self):
        (stmt,) = self.parse_body("for (int i = 0; i < 8; i++) { }")
        assert isinstance(stmt.init, ast.VarDecl)

    def test_switch(self):
        (stmt,) = self.parse_body(
            "switch (x) { case 1: y = 1; break; default: y = 0; }"
        )
        assert isinstance(stmt, ast.SwitchStmt)
        assert len(stmt.cases) == 2
        assert stmt.cases[1].value is None

    def test_local_declaration(self):
        (stmt,) = self.parse_body("int local = 5;")
        assert isinstance(stmt, ast.VarDecl)

    def test_return_break_continue(self):
        statements = self.parse_body("return 1; break; continue;")
        assert isinstance(statements[0], ast.ReturnStmt)
        assert isinstance(statements[1], ast.BreakStmt)
        assert isinstance(statements[2], ast.ContinueStmt)


class TestExpressions:
    def expr(self, text):
        (stmt,) = parse("void f() { x = " + text + "; }").functions[0].body.statements
        return stmt.expr.value

    def test_precedence_mul_over_add(self):
        e = self.expr("1 + 2 * 3")
        assert e.op == "+" and e.right.op == "*"

    def test_comparison_chains(self):
        e = self.expr("a < b == c")
        assert e.op == "=="

    def test_logical_operators(self):
        e = self.expr("a && b || c")
        assert e.op == "||"

    def test_ternary(self):
        e = self.expr("a ? 1 : 2")
        assert isinstance(e, ast.ConditionalExpr)

    def test_this_byte_call(self):
        e = self.expr("this.byte(0)")
        assert isinstance(e, ast.CallExpr)
        assert isinstance(e.function, ast.MemberAccess)
        assert isinstance(e.function.obj, ast.ThisExpr)

    def test_member_assignment_target(self):
        (stmt,) = parse("void f() { msg.byte(0) = 5; }").functions[0].body.statements
        assert isinstance(stmt.expr, ast.AssignExpr)
        assert isinstance(stmt.expr.target, ast.CallExpr)

    def test_array_index(self):
        e = self.expr("buffer[i + 1]")
        assert isinstance(e, ast.IndexExpr)

    def test_unary_and_postfix(self):
        assert isinstance(self.expr("-a"), ast.UnaryExpr)
        assert isinstance(self.expr("a++"), ast.PostfixExpr)

    def test_compound_assignment(self):
        (stmt,) = parse("void f() { x += 2; }").functions[0].body.statements
        assert stmt.expr.op == "+="

    def test_hex_literal(self):
        assert self.expr("0xFF").value == 255


class TestRealSources:
    def test_vmg_source_parses(self):
        program = parse(VMG_SOURCE)
        assert len(program.message_declarations()) == 2
        assert len(program.timer_declarations()) == 1
        assert len(program.event_procedures) == 4

    def test_ecu_source_parses(self):
        program = parse(ECU_SOURCE)
        assert {p.selector for p in program.message_handlers()} == {"reqSw", "reqApp"}
        assert len(program.functions) == 1

    def test_error_has_position(self):
        with pytest.raises(CaplSyntaxError, match="line"):
            parse("on message { }")

    def test_oversized_initialiser_literal_is_located(self):
        source = "variables {\n  int x = " + "1" * 5000 + ";\n}\n"
        with pytest.raises(CaplSyntaxError, match="5000 digits is too long") as info:
            parse(source)
        assert (info.value.line, info.value.column) == (2, 11)


class TestEmptyStatement:
    def test_bare_semicolon_is_empty_statement(self):
        program = parse("void f() { ; ; int x = 1; ; }")
        statements = program.functions[0].body.statements
        declarations = [s for s in statements if isinstance(s, ast.VarDecl)]
        assert len(declarations) == 1

    def test_empty_statement_in_handler(self):
        program = parse("on message reqSw { ; }")
        assert program.message_handlers()


class TestNestingDepth:
    DEPTH = 2000

    def test_deep_parentheses_raise_a_located_syntax_error(self):
        nested = "(" * self.DEPTH + "1" + ")" * self.DEPTH
        source = "void f() {\n  x = " + nested + ";\n}"
        with pytest.raises(CaplSyntaxError, match="nested too deeply") as info:
            parse(source)
        assert info.value.line == 2
        assert 7 <= info.value.column <= 7 + self.DEPTH
        # the interpreter is usable again straight afterwards
        assert len(parse(ECU_SOURCE).functions) == 1
