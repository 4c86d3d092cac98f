"""Unit tests for the CSPm parser."""

import pytest

from repro.cspm import CspmSyntaxError, parse, parse_expression
from repro.cspm import ast


class TestDeclarations:
    def test_datatype(self):
        script = parse("datatype msgs = reqSw | rptSw | reqApp | rptUpd")
        (decl,) = script.datatypes()
        assert decl.name == "msgs"
        assert decl.constructors == ("reqSw", "rptSw", "reqApp", "rptUpd")

    def test_nametype_range(self):
        script = parse("nametype Small = {0..3}")
        decl = script.declarations[0]
        assert isinstance(decl, ast.NametypeDecl)
        assert isinstance(decl.definition, ast.SetRange)

    def test_channel_with_type(self):
        script = parse("channel send, rec : msgs")
        (decl,) = script.channels()
        assert decl.names == ("send", "rec")
        assert len(decl.field_types) == 1

    def test_channel_multi_field(self):
        script = parse("channel c : msgs.Ids")
        (decl,) = script.channels()
        assert len(decl.field_types) == 2

    def test_dataless_channel(self):
        script = parse("channel tick_evt")
        (decl,) = script.channels()
        assert decl.field_types == ()

    def test_process_definition(self):
        script = parse("P = STOP")
        (decl,) = script.process_defs()
        assert decl.name == "P" and decl.params == ()
        assert isinstance(decl.body, ast.Stop)

    def test_parameterised_definition(self):
        script = parse("COUNTER(n, limit) = STOP")
        (decl,) = script.process_defs()
        assert decl.params == ("n", "limit")

    def test_assert_trace_refinement(self):
        script = parse("assert SPEC [T= IMPL")
        (decl,) = script.assertions()
        assert decl.kind == "T" and not decl.negated

    def test_assert_failures_refinement(self):
        (decl,) = parse("assert SPEC [F= IMPL").assertions()
        assert decl.kind == "F"

    def test_assert_negated(self):
        (decl,) = parse("assert not SPEC [T= IMPL").assertions()
        assert decl.negated

    def test_assert_properties(self):
        for prop in ("deadlock free", "divergence free", "deterministic"):
            (decl,) = parse("assert P :[{}]".format(prop)).assertions()
            assert decl.kind == prop

    def test_assert_unknown_property_rejected(self):
        with pytest.raises(CspmSyntaxError):
            parse("assert P :[sparkly clean]")

    def test_oversized_integer_literal_is_located(self):
        with pytest.raises(CspmSyntaxError, match="5000 digits is too long") as info:
            parse("channel c : {0..1}\nP = " + "1" * 5000 + "\n")
        assert (info.value.line, info.value.column) == (2, 5)


class TestProcessExpressions:
    def test_prefix_output(self):
        expr = parse_expression("send!reqSw -> STOP")
        assert isinstance(expr, ast.PrefixExpr)
        assert expr.channel == "send"
        assert expr.comm_fields[0].kind == "!"

    def test_prefix_input(self):
        expr = parse_expression("rec?x -> STOP")
        field = expr.comm_fields[0]
        assert field.kind == "?" and field.var == "x"

    def test_prefix_input_with_restriction(self):
        expr = parse_expression("rec?x:{0..2} -> STOP")
        assert expr.comm_fields[0].restriction is not None

    def test_prefix_dotted(self):
        expr = parse_expression("send.reqSw -> STOP")
        assert expr.comm_fields[0].kind == "."

    def test_prefix_chains_right(self):
        expr = parse_expression("a!1 -> b!2 -> STOP")
        assert isinstance(expr.continuation, ast.PrefixExpr)

    def test_external_choice(self):
        expr = parse_expression("STOP [] SKIP")
        assert isinstance(expr, ast.ExternalChoiceExpr)

    def test_internal_choice(self):
        expr = parse_expression("STOP |~| SKIP")
        assert isinstance(expr, ast.InternalChoiceExpr)

    def test_choice_binds_tighter_than_parallel(self):
        expr = parse_expression("P [] Q ||| R")
        assert isinstance(expr, ast.InterleaveExpr)
        assert isinstance(expr.left, ast.ExternalChoiceExpr)

    def test_sequential_composition(self):
        expr = parse_expression("SKIP ; STOP")
        assert isinstance(expr, ast.SeqExpr)

    def test_generalised_parallel(self):
        expr = parse_expression("P [| {| send |} |] Q")
        assert isinstance(expr, ast.ParallelExpr)
        assert isinstance(expr.sync, ast.EnumSet)

    def test_alphabetised_parallel(self):
        expr = parse_expression("P [ {| a |} || {| b |} ] Q")
        assert isinstance(expr, ast.AlphaParallelExpr)

    def test_interleave(self):
        expr = parse_expression("P ||| Q")
        assert isinstance(expr, ast.InterleaveExpr)

    def test_hiding_binds_loosest(self):
        expr = parse_expression("P ||| Q \\ {| send |}")
        assert isinstance(expr, ast.HideExpr)

    def test_renaming(self):
        expr = parse_expression("P[[a <- b]]")
        assert isinstance(expr, ast.RenameExpr)
        assert len(expr.pairs) == 1

    def test_if_then_else(self):
        expr = parse_expression("if x == 1 then STOP else SKIP")
        assert isinstance(expr, ast.IfExpr)
        assert isinstance(expr.condition, ast.BinOp)

    def test_guard(self):
        expr = parse_expression("x == 1 & STOP")
        assert isinstance(expr, ast.GuardExpr)

    def test_let_within(self):
        expr = parse_expression("let X = STOP within X")
        assert isinstance(expr, ast.LetExpr)
        assert expr.definitions[0].name == "X"

    def test_application(self):
        expr = parse_expression("COUNTER(0, 5)")
        assert isinstance(expr, ast.Apply)
        assert len(expr.args) == 2

    def test_replicated_external_choice(self):
        expr = parse_expression("[] x : {0..3} @ c!x -> STOP")
        assert isinstance(expr, ast.ReplicatedOp)
        assert expr.op == "[]" and expr.variable == "x"

    def test_replicated_interleave(self):
        expr = parse_expression("||| x : {0..2} @ STOP")
        assert expr.op == "|||"

    def test_events_constant(self):
        expr = parse_expression("P \\ Events")
        assert isinstance(expr.hidden, ast.EventsSet)

    def test_set_operations(self):
        expr = parse_expression("P \\ union({| a |}, {| b |})")
        assert isinstance(expr.hidden, ast.BinOp)
        assert expr.hidden.op == "union"

    def test_parenthesised_grouping(self):
        expr = parse_expression("(a!1 -> STOP) [] SKIP")
        assert isinstance(expr, ast.ExternalChoiceExpr)

    def test_wildcard_input(self):
        expr = parse_expression("c?_ -> STOP")
        assert expr.comm_fields[0].var == "_"


class TestFullScripts:
    def test_paper_sp02_script_shape(self):
        source = """
        -- paper Sec. V-B
        datatype msgs = reqSw | rptSw | reqApp | rptUpd
        channel send, rec : msgs
        SP02 = send!reqSw -> rec!rptSw -> SP02
        SYSTEM = VMG [| {| send, rec |} |] ECU
        VMG = send!reqSw -> rec?x -> VMG
        ECU = send?x -> rec!rptSw -> ECU
        assert SP02 [T= SYSTEM
        """
        script = parse(source)
        assert len(script.datatypes()) == 1
        assert len(script.channels()) == 1
        assert len(script.process_defs()) == 4
        assert len(script.assertions()) == 1

    def test_error_reports_position(self):
        with pytest.raises(CspmSyntaxError, match="line"):
            parse("P = ->")

    def test_empty_script(self):
        assert parse("").declarations == []

    def test_multiple_assertions(self):
        script = parse(
            "P = STOP\nassert P [T= P\nassert P :[deadlock free]\nassert P [F= P"
        )
        assert len(script.assertions()) == 3


class TestNestingDepth:
    DEPTH = 2000

    def test_deep_parentheses_raise_a_located_syntax_error(self):
        source = "P = " + "(" * self.DEPTH + "STOP" + ")" * self.DEPTH
        with pytest.raises(CspmSyntaxError, match="nested too deeply") as info:
            parse(source)
        assert info.value.line == 1
        assert 5 <= info.value.column <= 5 + self.DEPTH
        # the interpreter is usable again straight afterwards
        assert len(parse("P = a -> P\nassert P [T= P").assertions()) == 1

    def test_deep_expression_raises_a_located_syntax_error(self):
        source = "\n" + "(" * self.DEPTH + "STOP" + ")" * self.DEPTH
        with pytest.raises(CspmSyntaxError, match="nested too deeply") as info:
            parse_expression(source)
        assert info.value.line == 2
        assert isinstance(parse_expression("a -> STOP"), ast.PrefixExpr)
