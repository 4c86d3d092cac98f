"""Evaluator: CSPm abstract syntax down to core process-algebra terms.

Loading a script performs, in order:

1. ``datatype`` / ``nametype`` declarations populate the value universe,
2. ``channel`` declarations build :class:`repro.csp.Channel` objects with
   finite field domains (what makes the models checkable),
3. process equations are evaluated to :class:`repro.csp.Process` terms in a
   shared :class:`repro.csp.Environment`; parameterised equations are
   instantiated on demand, one environment entry per argument tuple, which is
   how FDR compiles them,
4. ``assert`` declarations are collected and can be discharged against the
   refinement engine with :meth:`CspmModel.check_assertions`.

A loaded model keeps of the syntax only what it still needs: the assertions
and the parameterised equations.  Declared sizes are checked before anything
is built: a set range, a set union, and the events of all channel
declarations together, may not exceed :data:`DECLARATION_BUDGET`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from ..csp.events import Alphabet, Channel, Event, Value
from ..csp.process import (
    Environment,
    Interrupt,
    ExternalChoice,
    GenParallel,
    Hiding,
    Interleave,
    InternalChoice,
    Prefix,
    Process,
    ProcessRef,
    Renaming,
    SKIP,
    STOP,
    SeqComp,
    external_choice,
    internal_choice,
)
from ..engine.pipeline import VerificationPipeline
from ..fdr.refine import CheckResult
from . import ast_nodes as ast
from .parser import parse

SetValue = Union[Alphabet, FrozenSet[Value]]

#: the most values one set range or set union, and the most events all
#: channel declarations together, may declare
DECLARATION_BUDGET = 2**20


class CspmEvaluationError(RuntimeError):
    """Raised when a script is well-formed but cannot be evaluated."""


class CspmModel:
    """A fully loaded CSPm script: types, channels, processes, assertions."""

    def __init__(self, script: ast.Script) -> None:
        self.env = Environment()
        self.channels: Dict[str, Channel] = {}
        self.datatypes: Dict[str, Tuple[str, ...]] = {}
        self.nametypes: Dict[str, Tuple[Value, ...]] = {}
        #: constructor name -> owning datatype
        self.constructors: Dict[str, str] = {}
        #: process equation name -> number of parameters
        self.arities: Dict[str, int] = {}
        #: parameterised definitions kept as AST for on-demand instantiation
        self.templates: Dict[str, ast.ProcessDef] = {}
        self.assertions: List[ast.AssertDecl] = []
        self._instantiating: Set[str] = set()
        self._declared_events = 0
        self._load(script)

    # -- loading ----------------------------------------------------------------

    def _load(self, script: ast.Script) -> None:
        # types and channels first: process bodies need the domains
        for decl in script.declarations:
            if isinstance(decl, ast.DatatypeDecl):
                self._load_datatype(decl)
            elif isinstance(decl, ast.NametypeDecl):
                self.nametypes[decl.name] = tuple(
                    sorted(self.eval_value_set(decl.definition, {}), key=str)
                )
        for decl in script.declarations:
            if isinstance(decl, ast.ChannelDecl):
                self._load_channel(decl)
        # register every process definition before evaluating any body, so
        # mutually recursive equations resolve to ProcessRefs
        definitions = script.process_defs()
        for decl in definitions:
            self.arities[decl.name] = len(decl.params)
            self.templates[decl.name] = decl
        for decl in definitions:
            if not decl.params:
                self.env.bind(decl.name, self.eval_process(decl.body, {}))
        # every equation without parameters is bound now: its name and arity
        # are all that is left to look up
        self.templates = {
            name: decl for name, decl in self.templates.items() if decl.params
        }
        self.assertions = script.assertions()

    def _load_datatype(self, decl: ast.DatatypeDecl) -> None:
        if decl.name in self.datatypes:
            raise CspmEvaluationError("duplicate datatype {!r}".format(decl.name))
        self.datatypes[decl.name] = decl.constructors
        for constructor in decl.constructors:
            if constructor in self.constructors:
                raise CspmEvaluationError(
                    "constructor {!r} declared twice".format(constructor)
                )
            self.constructors[constructor] = decl.name

    def _load_channel(self, decl: ast.ChannelDecl) -> None:
        domains: List[Tuple[Value, ...]] = []
        for field_type in decl.field_types:
            domains.append(tuple(sorted(self.eval_value_set(field_type, {}), key=str)))
        count = len(decl.names)
        for domain in domains:
            count *= len(domain)
        self._declared_events += count
        if self._declared_events > DECLARATION_BUDGET:
            raise CspmEvaluationError(
                "channel {} declares {} events ({} in all), more than the "
                "budget of {}".format(
                    ", ".join(decl.names),
                    count,
                    self._declared_events,
                    DECLARATION_BUDGET,
                )
            )
        for name in decl.names:
            if name in self.channels:
                raise CspmEvaluationError("duplicate channel {!r}".format(name))
            self.channels[name] = Channel(name, *domains)

    # -- public queries ----------------------------------------------------------

    def events(self) -> Alphabet:
        """The CSPm ``Events`` constant: every event of every channel."""
        return Alphabet.from_channels(*self.channels.values())

    def process(self, name: str, *args: Value) -> Process:
        """A reference to a defined process, instantiating parameters if given."""
        if args:
            return self._instantiate(name, tuple(args))
        arity = self.arities.get(name)
        if arity is None:
            raise CspmEvaluationError("undefined process {!r}".format(name))
        if arity:
            raise CspmEvaluationError(
                "process {!r} needs {} argument(s)".format(name, arity)
            )
        return ProcessRef(name)

    def check_assertions(
        self, max_states: int = 200_000, pipeline=None, passes="default"
    ) -> List[CheckResult]:
        """Discharge every ``assert`` in the script; returns one result each.

        All assertions share one verification pipeline, so a process term
        appearing on several assert lines compiles and normalises once.  Pass
        a preconfigured :class:`~repro.engine.VerificationPipeline` to
        control eager/lazy search or reuse a cache across scripts; a pipeline
        passed in checks under its own state budget, and *max_states* and
        *passes* ("default", "none", or a comma-separated pass list)
        configure only the pipeline built when none is supplied.
        """
        if pipeline is None:
            pipeline = VerificationPipeline(
                self.env, max_states=max_states, passes=passes
            )
        results = []
        for decl in self.assertions:
            results.append(self.check_assertion(decl, pipeline=pipeline))
        return results

    def check_assertion(
        self,
        decl: ast.AssertDecl,
        max_states: int = 200_000,
        pipeline=None,
    ) -> CheckResult:
        """Discharge one ``assert`` declaration of the script.

        A *pipeline* passed in checks under its own state budget;
        *max_states* is the budget of the pipeline built when none is.
        """
        if pipeline is None:
            pipeline = VerificationPipeline(self.env, max_states=max_states)
        left = self.eval_process(decl.left, {})
        if decl.kind in ("T", "F", "FD"):
            right = self.eval_process(decl.right, {})
            result = pipeline.refinement(left, right, decl.kind)
        else:
            result = pipeline.property_check(left, decl.kind)
        if decl.negated:
            flipped = CheckResult(
                "not ({})".format(result.name),
                not result.passed,
                result.counterexample,
                result.states_explored,
                result.transitions_explored,
                pass_stats=result.pass_stats,
                profile=result.profile,
            )
            return flipped
        return result

    # -- expression evaluation -----------------------------------------------------

    def eval_process(self, expr: ast.Expr, scope: Dict[str, Value]) -> Process:
        """Evaluate an expression in process position."""
        if isinstance(expr, ast.Stop):
            return STOP
        if isinstance(expr, ast.Skip):
            return SKIP
        if isinstance(expr, ast.Name):
            return self._resolve_process_name(expr.ident, scope)
        if isinstance(expr, ast.PrefixExpr):
            return self._eval_prefix(expr, scope)
        if isinstance(expr, ast.ExternalChoiceExpr):
            return ExternalChoice(
                self.eval_process(expr.left, scope), self.eval_process(expr.right, scope)
            )
        if isinstance(expr, ast.InternalChoiceExpr):
            return InternalChoice(
                self.eval_process(expr.left, scope), self.eval_process(expr.right, scope)
            )
        if isinstance(expr, ast.SeqExpr):
            return SeqComp(
                self.eval_process(expr.first, scope), self.eval_process(expr.second, scope)
            )
        if isinstance(expr, ast.ParallelExpr):
            return GenParallel(
                self.eval_process(expr.left, scope),
                self.eval_process(expr.right, scope),
                self.eval_event_set(expr.sync, scope),
            )
        if isinstance(expr, ast.AlphaParallelExpr):
            left_alpha = self.eval_event_set(expr.left_alpha, scope)
            right_alpha = self.eval_event_set(expr.right_alpha, scope)
            # alphabetised parallel P [A || B] Q: each side is confined to
            # its alphabet (events outside it are blocked by a STOP partner
            # synchronising on them), and the two sync on the intersection
            everything = self.events()
            left = GenParallel(
                self.eval_process(expr.left, scope), STOP, everything - left_alpha
            )
            right = GenParallel(
                self.eval_process(expr.right, scope), STOP, everything - right_alpha
            )
            return GenParallel(left, right, left_alpha & right_alpha)
        if isinstance(expr, ast.InterleaveExpr):
            return Interleave(
                self.eval_process(expr.left, scope), self.eval_process(expr.right, scope)
            )
        if isinstance(expr, ast.InterruptExpr):
            return Interrupt(
                self.eval_process(expr.primary, scope),
                self.eval_process(expr.handler, scope),
            )
        if isinstance(expr, ast.HideExpr):
            return Hiding(
                self.eval_process(expr.process, scope),
                self.eval_event_set(expr.hidden, scope),
            )
        if isinstance(expr, ast.RenameExpr):
            mapping: Dict[Event, Event] = {}
            for old_expr, new_expr in expr.pairs:
                for old, new in self._rename_pairs(old_expr, new_expr, scope):
                    mapping[old] = new
            return Renaming(self.eval_process(expr.process, scope), mapping)
        if isinstance(expr, ast.IfExpr):
            condition = self.eval_value(expr.condition, scope)
            branch = expr.then_branch if condition else expr.else_branch
            return self.eval_process(branch, scope)
        if isinstance(expr, ast.GuardExpr):
            if self.eval_value(expr.condition, scope):
                return self.eval_process(expr.process, scope)
            return STOP
        if isinstance(expr, ast.LetExpr):
            return self._eval_let(expr, scope)
        if isinstance(expr, ast.Apply):
            return self._eval_apply(expr, scope)
        if isinstance(expr, ast.ReplicatedOp):
            return self._eval_replicated(expr, scope)
        raise CspmEvaluationError(
            "expression {!r} is not a process".format(type(expr).__name__)
        )

    def _resolve_process_name(self, ident: str, scope: Dict[str, Value]) -> Process:
        if ident in scope:
            value = scope[ident]
            if isinstance(value, Process):
                return value
            raise CspmEvaluationError(
                "variable {!r} holds a value, not a process".format(ident)
            )
        arity = self.arities.get(ident)
        if arity is None:
            raise CspmEvaluationError("undefined process {!r}".format(ident))
        if arity:
            raise CspmEvaluationError(
                "process {!r} used without its {} argument(s)".format(ident, arity)
            )
        return ProcessRef(ident)

    def _eval_prefix(self, expr: ast.PrefixExpr, scope: Dict[str, Value]) -> Process:
        channel = self.channels.get(expr.channel)
        if channel is None:
            raise CspmEvaluationError(
                "prefix on undeclared channel {!r}".format(expr.channel)
            )
        if len(expr.comm_fields) != channel.arity:
            raise CspmEvaluationError(
                "channel {!r} carries {} field(s); prefix supplies {}".format(
                    expr.channel, channel.arity, len(expr.comm_fields)
                )
            )
        return self._expand_prefix(channel, expr.comm_fields, (), expr.continuation, scope)

    def _expand_prefix(
        self,
        channel: Channel,
        fields: Tuple[ast.CommField, ...],
        resolved: Tuple[Value, ...],
        continuation: ast.Expr,
        scope: Dict[str, Value],
    ) -> Process:
        position = len(resolved)
        if position == len(fields):
            return Prefix(channel(*resolved), self.eval_process(continuation, scope))
        field = fields[position]
        if field.kind in ("!", "."):
            value = self.eval_value(field.expr, scope)
            return self._expand_prefix(
                channel, fields, resolved + (value,), continuation, scope
            )
        # input field '?var': external choice over the field's finite domain
        domain = channel.field_domains[position]
        allowed: Sequence[Value] = domain
        if field.restriction is not None:
            restriction = self.eval_value_set(field.restriction, scope)
            allowed = [value for value in domain if value in restriction]
        branches = []
        for value in allowed:
            extended = dict(scope)
            if field.var != "_":
                extended[field.var] = value
            branches.append(
                self._expand_prefix(
                    channel, fields, resolved + (value,), continuation, extended
                )
            )
        if not branches:
            return STOP
        return external_choice(*branches)

    def _eval_let(self, expr: ast.LetExpr, scope: Dict[str, Value]) -> Process:
        local = dict(scope)
        for definition in expr.definitions:
            if definition.params:
                raise CspmEvaluationError(
                    "parameterised let-definitions are not supported"
                )
            local[definition.name] = self.eval_process(definition.body, local)
        return self.eval_process(expr.body, local)

    def _eval_apply(self, expr: ast.Apply, scope: Dict[str, Value]) -> Process:
        if not isinstance(expr.function, ast.Name):
            raise CspmEvaluationError("only named processes can be applied")
        name = expr.function.ident
        self._check_arity(name, len(expr.args))
        args = tuple(self.eval_value(arg, scope) for arg in expr.args)
        return self._instantiate(name, args)

    def _check_arity(self, name: str, count: int) -> None:
        arity = self.arities.get(name)
        if arity is None:
            raise CspmEvaluationError("undefined process {!r}".format(name))
        if count != arity:
            raise CspmEvaluationError(
                "process {!r} expects {} argument(s), got {}".format(
                    name, arity, count
                )
            )

    def _instantiate(self, name: str, args: Tuple[Value, ...]) -> Process:
        self._check_arity(name, len(args))
        key = "{}({})".format(name, ",".join(str(a) for a in args)) if args else name
        if key in self.env or key in self._instantiating:
            return ProcessRef(key)
        # an equation without parameters is bound once loading is done, so
        # only loading and parameterised equations get this far
        template = self.templates[name]
        self._instantiating.add(key)
        try:
            bound = dict(zip(template.params, args))
            body = self.eval_process(template.body, bound)
        finally:
            self._instantiating.discard(key)
        self.env.bind(key, body)
        return ProcessRef(key)

    def _eval_replicated(self, expr: ast.ReplicatedOp, scope: Dict[str, Value]) -> Process:
        domain = sorted(self.eval_value_set(expr.domain, scope), key=str)
        processes = []
        for value in domain:
            extended = dict(scope)
            extended[expr.variable] = value
            processes.append(self.eval_process(expr.body, extended))
        if expr.op == "[]":
            return external_choice(*processes)
        if expr.op == "|~|":
            return internal_choice(*processes)
        if expr.op == "|||":
            result: Process = SKIP
            if processes:
                result = processes[0]
                for process in processes[1:]:
                    result = Interleave(result, process)
            return result
        raise CspmEvaluationError("unknown replicated operator {!r}".format(expr.op))

    # -- values ----------------------------------------------------------------

    def eval_value(self, expr: ast.Expr, scope: Dict[str, Value]) -> Value:
        """Evaluate an expression in value position (fields, conditions)."""
        if isinstance(expr, ast.Number):
            return expr.value
        if isinstance(expr, ast.BoolLit):
            return expr.value
        if isinstance(expr, ast.Name):
            if expr.ident in scope:
                value = scope[expr.ident]
                if isinstance(value, Process):
                    raise CspmEvaluationError(
                        "{!r} is a process, not a value".format(expr.ident)
                    )
                return value
            if expr.ident in self.constructors:
                return expr.ident
            raise CspmEvaluationError("unbound value name {!r}".format(expr.ident))
        if isinstance(expr, ast.BinOp):
            return self._eval_binop(expr, scope)
        if isinstance(expr, ast.UnaryOp):
            if expr.op == "not":
                return not self.eval_value(expr.operand, scope)
            if expr.op == "-":
                return -self.eval_value(expr.operand, scope)
        if isinstance(expr, ast.IfExpr):
            condition = self.eval_value(expr.condition, scope)
            branch = expr.then_branch if condition else expr.else_branch
            return self.eval_value(branch, scope)
        raise CspmEvaluationError(
            "cannot evaluate {!r} as a value".format(type(expr).__name__)
        )

    def _eval_binop(self, expr: ast.BinOp, scope: Dict[str, Value]) -> Value:
        op = expr.op
        if op in ("and", "or"):
            left = self.eval_value(expr.left, scope)
            if op == "and":
                return bool(left) and bool(self.eval_value(expr.right, scope))
            return bool(left) or bool(self.eval_value(expr.right, scope))
        left = self.eval_value(expr.left, scope)
        right = self.eval_value(expr.right, scope)
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right
        if op == ">":
            return left > right
        if op == "<=":
            return left <= right
        if op == ">=":
            return left >= right
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return left // right
        if op == "%":
            return left % right
        raise CspmEvaluationError("unknown operator {!r}".format(op))

    def eval_value_set(self, expr: ast.Expr, scope: Dict[str, Value]) -> FrozenSet[Value]:
        """Evaluate a set of *values* (datatype ranges, nametypes, restrictions)."""
        if isinstance(expr, ast.Name):
            if expr.ident in self.datatypes:
                return frozenset(self.datatypes[expr.ident])
            if expr.ident in self.nametypes:
                return frozenset(self.nametypes[expr.ident])
            raise CspmEvaluationError("unknown type name {!r}".format(expr.ident))
        if isinstance(expr, ast.SetLit):
            return frozenset(self.eval_value(e, scope) for e in expr.elements)
        if isinstance(expr, ast.SetRange):
            low = self.eval_value(expr.low, scope)
            high = self.eval_value(expr.high, scope)
            if not (isinstance(low, int) and isinstance(high, int)):
                raise CspmEvaluationError(
                    "set range {{{}..{}}} needs integer bounds".format(low, high)
                )
            count = max(0, high + 1 - low)
            if count > DECLARATION_BUDGET:
                raise CspmEvaluationError(
                    "set {{{}..{}}} has {} values, more than the budget of "
                    "{}".format(low, high, count, DECLARATION_BUDGET)
                )
            return frozenset(range(low, high + 1))
        if isinstance(expr, ast.BinOp) and expr.op in ("union", "inter", "diff"):
            left = self.eval_value_set(expr.left, scope)
            right = self.eval_value_set(expr.right, scope)
            if expr.op == "union":
                union = left | right
                if len(union) > DECLARATION_BUDGET:
                    raise CspmEvaluationError(
                        "set {} has {} values, more than the budget of "
                        "{}".format(
                            self._set_text(expr, scope),
                            len(union),
                            DECLARATION_BUDGET,
                        )
                    )
                return union
            if expr.op == "inter":
                return left & right
            return left - right
        raise CspmEvaluationError(
            "cannot evaluate {!r} as a value set".format(type(expr).__name__)
        )

    def _set_text(self, expr: ast.Expr, scope: Dict[str, Value]) -> str:
        """A value-set expression as CSPm text, for error messages."""
        if isinstance(expr, ast.Name):
            return expr.ident
        if isinstance(expr, ast.SetRange):
            return "{{{}..{}}}".format(
                self.eval_value(expr.low, scope), self.eval_value(expr.high, scope)
            )
        if isinstance(expr, ast.BinOp):
            return "{}({}, {})".format(
                expr.op,
                self._set_text(expr.left, scope),
                self._set_text(expr.right, scope),
            )
        values = sorted(self.eval_value_set(expr, scope), key=str)
        return "{" + ", ".join(str(value) for value in values) + "}"

    def eval_event_set(self, expr: ast.Expr, scope: Dict[str, Value]) -> Alphabet:
        """Evaluate a set of *events* (sync sets, hiding sets)."""
        if isinstance(expr, ast.EventsSet):
            return self.events()
        if isinstance(expr, ast.EnumSet):
            events: List[Event] = []
            for member in expr.members:
                events.extend(self._channel_prefix_events(member, scope))
            return Alphabet(events)
        if isinstance(expr, ast.SetLit):
            events = []
            for element in expr.elements:
                events.append(self._eval_event(element, scope))
            return Alphabet(events)
        if isinstance(expr, ast.Name):
            # a bare channel name in set position means all its events
            if expr.ident in self.channels:
                return self.channels[expr.ident].alphabet()
            if expr.ident in scope and isinstance(scope[expr.ident], Alphabet):
                return scope[expr.ident]
            raise CspmEvaluationError(
                "{!r} does not denote an event set".format(expr.ident)
            )
        if isinstance(expr, ast.BinOp) and expr.op in ("union", "inter", "diff"):
            left = self.eval_event_set(expr.left, scope)
            right = self.eval_event_set(expr.right, scope)
            if expr.op == "union":
                return left | right
            if expr.op == "inter":
                return left & right
            return left - right
        raise CspmEvaluationError(
            "cannot evaluate {!r} as an event set".format(type(expr).__name__)
        )

    def _channel_prefix_events(
        self, expr: ast.Expr, scope: Dict[str, Value]
    ) -> List[Event]:
        """Events matching a ``{| channel.prefix |}`` member."""
        if isinstance(expr, ast.Name):
            channel = self.channels.get(expr.ident)
            if channel is None:
                raise CspmEvaluationError(
                    "{!r} is not a channel".format(expr.ident)
                )
            return list(channel.events())
        if isinstance(expr, ast.DottedExpr):
            head = expr.parts[0]
            if not isinstance(head, ast.Name) or head.ident not in self.channels:
                raise CspmEvaluationError("enumerated set member must start with a channel")
            channel = self.channels[head.ident]
            prefix_values = tuple(
                self.eval_value(part, scope) for part in expr.parts[1:]
            )
            return [
                event
                for event in channel.events()
                if event.fields[: len(prefix_values)] == prefix_values
            ]
        raise CspmEvaluationError("bad enumerated-set member")

    def _eval_event(self, expr: ast.Expr, scope: Dict[str, Value]) -> Event:
        """A single concrete event from a dotted expression or bare name."""
        if isinstance(expr, ast.Name):
            channel = self.channels.get(expr.ident)
            if channel is not None:
                if channel.arity != 0:
                    raise CspmEvaluationError(
                        "event {!r} needs {} field(s)".format(
                            expr.ident, channel.arity
                        )
                    )
                return channel()
            raise CspmEvaluationError("{!r} is not an event".format(expr.ident))
        if isinstance(expr, ast.DottedExpr):
            head = expr.parts[0]
            if not isinstance(head, ast.Name) or head.ident not in self.channels:
                raise CspmEvaluationError("event must start with a channel name")
            channel = self.channels[head.ident]
            fields = tuple(self.eval_value(part, scope) for part in expr.parts[1:])
            return channel(*fields)
        raise CspmEvaluationError(
            "cannot evaluate {!r} as an event".format(type(expr).__name__)
        )

    def _rename_pairs(
        self, old_expr: ast.Expr, new_expr: ast.Expr, scope: Dict[str, Value]
    ) -> List[Tuple[Event, Event]]:
        """Expand one renaming pair; bare channel names map field-wise."""
        old_is_channel = isinstance(old_expr, ast.Name) and old_expr.ident in self.channels
        new_is_channel = isinstance(new_expr, ast.Name) and new_expr.ident in self.channels
        if old_is_channel and new_is_channel:
            old_channel = self.channels[old_expr.ident]
            new_channel = self.channels[new_expr.ident]
            if old_channel.field_domains != new_channel.field_domains:
                raise CspmEvaluationError(
                    "cannot rename channel {!r} to {!r}: field domains differ".format(
                        old_channel.name, new_channel.name
                    )
                )
            return [
                (event, Event(new_channel.name, event.fields))
                for event in old_channel.events()
            ]
        return [(self._eval_event(old_expr, scope), self._eval_event(new_expr, scope))]


def load(source: str) -> CspmModel:
    """Parse and evaluate a CSPm script in one step."""
    return CspmModel(parse(source))


def load_file(path: str) -> CspmModel:
    """Load a CSPm script from a file path."""
    with open(path, "r", encoding="utf-8") as handle:
        return load(handle.read())
