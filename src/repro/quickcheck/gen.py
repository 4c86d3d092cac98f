"""Composable random generators for the differential fuzzer.

Every generator is a :class:`Gen` -- a pure function from an explicit
``random.Random`` to a value.  Nothing here touches global randomness: the
campaign runner and the pytest helper derive one ``random.Random(seed)`` per
test case, so every generated input is reproducible from its seed alone
(hand the seed back via ``REPRO_SEED`` or ``cspfuzz --seed``).

On top of the generic combinators (``sampled_from``, ``one_of``, ``lists``,
``bind`` ...) this module provides the domain generators the oracles share:

* :func:`process_terms` -- random closed CSP process terms over a fixed
  event set, exercising every operator of the paper's grammar (Sec. IV-A2)
  plus the extensions (hiding, interleaving, interrupt);
* :func:`sub_alphabets` -- random synchronisation / hiding sets;
* :func:`spine_terms` -- random composition spines (parallel, interleave,
  hiding, renaming) over small closed leaves, the shape the compilation
  plan decomposes;
* :func:`capl_programs` -- random reactive CAPL handler programs (the
  Fig.-2-style ECU sources the model extractor translates);
* :func:`stimuli_for` -- random request sequences for a generated program.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from ..csp.events import Alphabet, Event, event
from ..csp.process import (
    ExternalChoice,
    GenParallel,
    Hiding,
    Interleave,
    Interrupt,
    InternalChoice,
    Prefix,
    Process,
    Renaming,
    SKIP,
    STOP,
    SeqComp,
)

T = TypeVar("T")
U = TypeVar("U")


class Gen:
    """A random generator: a function ``random.Random -> value``."""

    __slots__ = ("_fn",)

    def __init__(self, fn: Callable[[random.Random], T]) -> None:
        self._fn = fn

    def __call__(self, rng: random.Random) -> T:
        return self._fn(rng)

    def map(self, fn: Callable[[T], U]) -> "Gen":
        """Apply *fn* to every generated value."""
        return Gen(lambda rng: fn(self._fn(rng)))

    def bind(self, fn: Callable[[T], "Gen"]) -> "Gen":
        """Feed the generated value into *fn* to pick the next generator.

        The monadic combinator -- used when one part of an input depends on
        another (e.g. stimuli drawn from the handlers a generated CAPL
        program actually declares).
        """
        return Gen(lambda rng: fn(self._fn(rng))(rng))

    @staticmethod
    def constant(value: T) -> "Gen":
        return Gen(lambda rng: value)


def sampled_from(options: Sequence[T]) -> Gen:
    """Pick one element uniformly."""
    pool = list(options)
    if not pool:
        raise ValueError("sampled_from needs a non-empty sequence")
    return Gen(lambda rng: pool[rng.randrange(len(pool))])


def integers(low: int, high: int) -> Gen:
    """A uniform integer in ``[low, high]`` inclusive."""
    return Gen(lambda rng: rng.randint(low, high))


def booleans(probability: float = 0.5) -> Gen:
    return Gen(lambda rng: rng.random() < probability)


def one_of(*gens: Gen) -> Gen:
    """Pick one of the generators uniformly, then run it."""
    pool = list(gens)
    return Gen(lambda rng: pool[rng.randrange(len(pool))](rng))


def frequency(weighted: Sequence[Tuple[int, Gen]]) -> Gen:
    """Pick a generator with probability proportional to its weight."""
    gens = [g for _, g in weighted]
    weights = [w for w, _ in weighted]

    def draw(rng: random.Random):
        return rng.choices(gens, weights=weights, k=1)[0](rng)

    return Gen(draw)


def lists(element: Gen, min_size: int = 0, max_size: int = 4) -> Gen:
    def draw(rng: random.Random) -> List:
        size = rng.randint(min_size, max_size)
        return [element(rng) for _ in range(size)]

    return Gen(draw)


def tuples(*gens: Gen) -> Gen:
    pool = list(gens)
    return Gen(lambda rng: tuple(g(rng) for g in pool))


def subsets(options: Sequence[T]) -> Gen:
    """A random (possibly empty) subset, preserving the input order."""
    pool = list(options)
    return Gen(lambda rng: [item for item in pool if rng.random() < 0.5])


# -- domain generators: CSP process terms -------------------------------------------

#: The default closed event set the process-term oracles fuzz over.  Three
#: events are enough to distinguish every operator pair while keeping the
#: bounded trace sets small.
DEFAULT_EVENTS: Tuple[Event, ...] = (event("a"), event("b"), event("c"))


def sub_alphabets(events: Sequence[Event] = DEFAULT_EVENTS) -> Gen:
    """A random synchronisation / hiding set drawn from *events*."""
    return subsets(events).map(Alphabet)


def process_terms(
    events: Sequence[Event] = DEFAULT_EVENTS,
    max_depth: int = 3,
    with_hiding: bool = True,
    with_interrupt: bool = True,
) -> Gen:
    """A random closed process term (no recursion) of bounded depth.

    Leaves are ``STOP`` / ``SKIP``; inner nodes draw from every operator of
    the paper's grammar.  Depth is bounded so the compiled state spaces stay
    tiny and the denotational trace sets enumerable.  ``with_interrupt=False``
    restricts to the operators the denotational failures equations cover.
    """
    pool = list(events)
    alphabet_gen = sub_alphabets(pool)
    operators = ["prefix", "extchoice", "intchoice", "seq", "interleave", "parallel"]
    if with_interrupt:
        operators.append("interrupt")
    if with_hiding:
        operators.append("hide")

    def draw(rng: random.Random, depth: int) -> Process:
        if depth <= 0 or rng.random() < 0.25:
            return SKIP if rng.random() < 0.5 else STOP
        kind = operators[rng.randrange(len(operators))]
        if kind == "prefix":
            return Prefix(pool[rng.randrange(len(pool))], draw(rng, depth - 1))
        if kind == "extchoice":
            return ExternalChoice(draw(rng, depth - 1), draw(rng, depth - 1))
        if kind == "intchoice":
            return InternalChoice(draw(rng, depth - 1), draw(rng, depth - 1))
        if kind == "seq":
            return SeqComp(draw(rng, depth - 1), draw(rng, depth - 1))
        if kind == "interleave":
            return Interleave(draw(rng, depth - 1), draw(rng, depth - 1))
        if kind == "interrupt":
            return Interrupt(draw(rng, depth - 1), draw(rng, depth - 1))
        if kind == "parallel":
            return GenParallel(
                draw(rng, depth - 1), draw(rng, depth - 1), alphabet_gen(rng)
            )
        return Hiding(draw(rng, depth - 1), alphabet_gen(rng))

    return Gen(lambda rng: draw(rng, max_depth))


#: Events a generated renaming may target: the default events plus two no
#: generated leaf uses, so renaming can introduce events new to a table.
RENAME_TARGETS: Tuple[Event, ...] = DEFAULT_EVENTS + (event("d"), event("e"))


def spine_terms(events: Sequence[Event] = DEFAULT_EVENTS) -> Gen:
    """A random composition spine whose root is a spine operator.

    Inner nodes (up to four deep) are generalised parallel, interleaving,
    hiding and renaming -- the boundaries the compilation plan decomposes
    along -- and leaves are :func:`process_terms` of depth three.
    Renamings draw their targets from :data:`RENAME_TARGETS`.
    """
    pool = list(events)
    alphabet_gen = sub_alphabets(pool)
    leaves = process_terms(pool, 3)

    def draw(rng: random.Random, depth: int, root: bool = False) -> Process:
        if depth <= 0 or (not root and rng.random() < 0.35):
            return leaves(rng)
        kind = rng.randrange(4)
        if kind == 0:
            return GenParallel(
                draw(rng, depth - 1), draw(rng, depth - 1), alphabet_gen(rng)
            )
        if kind == 1:
            return Interleave(draw(rng, depth - 1), draw(rng, depth - 1))
        if kind == 2:
            return Hiding(draw(rng, depth - 1), alphabet_gen(rng))
        mapping = {
            source: RENAME_TARGETS[rng.randrange(len(RENAME_TARGETS))]
            for source in pool
            if rng.random() < 0.5
        }
        return Renaming(draw(rng, depth - 1), mapping)

    return Gen(lambda rng: draw(rng, 4, root=True))


def process_pairs(
    events: Sequence[Event] = DEFAULT_EVENTS, max_depth: int = 3
) -> Gen:
    return tuples(
        process_terms(events, max_depth), process_terms(events, max_depth)
    )


# -- domain generators: CAPL reactive programs --------------------------------------

#: Requests the generated ECU programs may handle and responses they may
#: transmit.  Kept tiny: two of each is enough to exhibit every extraction
#: rule (multi-output arbitration included) while the models stay small.
CAPL_REQUESTS: Tuple[str, ...] = ("reqA", "reqB")
CAPL_RESPONSES: Tuple[str, ...] = ("rspX", "rspY")


class CaplProgram:
    """A structured random CAPL program: handlers over statement trees.

    Statements are plain nested tuples so the generic shrinker and the JSON
    corpus serialiser can walk them:

    * ``("output", response)`` -- transmit a prepared message object;
    * ``("assign", n)`` -- ``state = state + n;``
    * ``("noop",)`` -- ``dummy = dummy + 1;``
    * ``("if", threshold, body)`` -- ``if (state > threshold) { body }``
    * ``("ifelse", then_body, else_body)`` -- parity-guarded branch;
    * ``("for", count, body)`` -- a bounded counting loop.

    ``render()`` produces the concrete CAPL source the parser, interpreter
    and model extractor all consume.
    """

    __slots__ = ("handlers",)

    def __init__(self, handlers: Sequence[Tuple[str, tuple]]) -> None:
        self.handlers = tuple(
            (selector, tuple(statements)) for selector, statements in handlers
        )

    # -- rendering -----------------------------------------------------------

    def handled(self) -> Tuple[str, ...]:
        return tuple(selector for selector, _ in self.handlers)

    def render(self) -> str:
        lines = ["variables {"]
        for response in CAPL_RESPONSES:
            lines.append("  message {} msg_{};".format(response, response))
        lines.append("  int state = 0;")
        lines.append("  int dummy = 0;")
        for depth in range(3):
            lines.append("  int i{} = 0;".format(depth))
        lines.append("}")
        for selector, statements in self.handlers:
            body = " ".join(
                self._render_statement(s, depth=0) for s in statements
            )
            lines.append("on message {} {{ {} }}".format(selector, body))
        return "\n".join(lines)

    def _render_statement(self, statement: tuple, depth: int) -> str:
        tag = statement[0]
        if tag == "output":
            return "output(msg_{});".format(statement[1])
        if tag == "assign":
            return "state = state + {};".format(statement[1])
        if tag == "noop":
            return "dummy = dummy + 1;"
        if tag == "if":
            body = " ".join(
                self._render_statement(s, depth + 1) for s in statement[2]
            )
            return "if (state > {}) {{ {} }}".format(statement[1], body)
        if tag == "ifelse":
            then_body = " ".join(
                self._render_statement(s, depth + 1) for s in statement[1]
            )
            else_body = " ".join(
                self._render_statement(s, depth + 1) for s in statement[2]
            )
            return "if (state % 2 == 0) {{ {} }} else {{ {} }}".format(
                then_body, else_body
            )
        if tag == "for":
            body = " ".join(
                self._render_statement(s, depth + 1) for s in statement[2]
            )
            # one loop variable per nesting depth: sharing an index across
            # nested loops produces genuinely non-terminating programs
            var = "i{}".format(min(depth, 2))
            return "for ({0} = 0; {0} < {1}; {0}++) {{ {2} }}".format(
                var, statement[1], body
            )
        raise ValueError("unknown CAPL statement tag {!r}".format(tag))

    # -- shrinking protocol (see repro.quickcheck.shrink) ---------------------

    def shrink_candidates(self):
        handlers = self.handlers
        # drop a whole handler (but keep at least one)
        if len(handlers) > 1:
            for index in range(len(handlers)):
                yield CaplProgram(handlers[:index] + handlers[index + 1 :])
        # shrink within one handler
        for index, (selector, statements) in enumerate(handlers):
            for smaller in _shrink_statements(statements):
                replaced = (
                    handlers[:index]
                    + ((selector, smaller),)
                    + handlers[index + 1 :]
                )
                yield CaplProgram(replaced)

    # -- structural equality (pinned shrinker-output tests rely on it) -------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CaplProgram):
            return NotImplemented
        return self.handlers == other.handlers

    def __hash__(self) -> int:
        return hash(self.handlers)

    def __repr__(self) -> str:
        return "CaplProgram({!r})".format(list(self.handlers))


def _shrink_statements(statements: tuple):
    """Smaller statement tuples: drop one, unwrap one, or shrink one in place."""
    for index, statement in enumerate(statements):
        yield statements[:index] + statements[index + 1 :]
        for action, replacement in _shrink_statement(statement):
            if action == "splice":
                # a compound statement's body hoisted into its place
                yield statements[:index] + replacement + statements[index + 1 :]
            else:
                yield (
                    statements[:index]
                    + (replacement,)
                    + statements[index + 1 :]
                )


def _shrink_statement(statement: tuple):
    """Yield ``("splice", stmts)`` or ``("one", stmt)`` replacement actions."""
    tag = statement[0]
    if tag == "output":
        return
    if tag in ("assign", "noop"):
        if tag == "assign" and statement[1] > 0:
            yield ("one", ("assign", 0))
        return
    if tag == "if":
        yield ("splice", statement[2])  # hoist the guarded body
        if statement[1] > 0:
            yield ("one", ("if", 0, statement[2]))
        for smaller in _shrink_statements(statement[2]):
            yield ("one", ("if", statement[1], smaller))
        return
    if tag == "ifelse":
        yield ("splice", statement[1])
        yield ("splice", statement[2])
        for smaller in _shrink_statements(statement[1]):
            yield ("one", ("ifelse", smaller, statement[2]))
        for smaller in _shrink_statements(statement[2]):
            yield ("one", ("ifelse", statement[1], smaller))
        return
    if tag == "for":
        yield ("splice", statement[2])
        if statement[1] > 0:
            yield ("one", ("for", statement[1] - 1, statement[2]))
        for smaller in _shrink_statements(statement[2]):
            yield ("one", ("for", statement[1], smaller))


def capl_statements(depth: int = 0) -> Gen:
    """A random handler-body statement (bounded nesting)."""

    # outputs are over-weighted: they are what the extracted models must
    # admit, and multi-output paths are where arbitration bugs hide
    shallow = (
        "output", "output", "output", "assign", "noop", "if", "ifelse", "for"
    )
    deep = ("output", "output", "output", "assign", "noop")

    def draw(rng: random.Random, level: int) -> tuple:
        options = deep if level >= 2 else shallow
        kind = options[rng.randrange(len(options))]
        if kind == "output":
            return ("output", CAPL_RESPONSES[rng.randrange(len(CAPL_RESPONSES))])
        if kind == "assign":
            return ("assign", rng.randint(0, 3))
        if kind == "noop":
            return ("noop",)
        if kind == "if":
            return ("if", rng.randint(0, 2), (draw(rng, level + 1),))
        if kind == "ifelse":
            return ("ifelse", (draw(rng, level + 1),), (draw(rng, level + 1),))
        return ("for", rng.randint(0, 2), (draw(rng, level + 1),))

    return Gen(lambda rng: draw(rng, depth))


def capl_programs(
    requests: Sequence[str] = CAPL_REQUESTS, max_statements: int = 4
) -> Gen:
    """A random reactive CAPL program handling a non-empty subset of *requests*."""

    def draw(rng: random.Random) -> CaplProgram:
        pool = list(requests)
        count = rng.randint(1, len(pool))
        handled = rng.sample(pool, count)
        handled.sort(key=pool.index)  # declaration order independent of sample order
        handlers = []
        for selector in handled:
            statements = tuple(
                capl_statements()(rng)
                # skew toward longer bodies: single-statement handlers
                # exercise almost none of the translation rules
                for _ in range(max(rng.randint(0, max_statements),
                                   rng.randint(0, max_statements)))
            )
            handlers.append((selector, statements))
        return CaplProgram(handlers)

    return Gen(draw)


def capl_precise_statements() -> Gen:
    """A statement from the extraction-*precise* CAPL fragment.

    The extractor translates conditionals to choices over both branches
    and loops to zero-or-more iterations -- sound over-approximations.
    Bidirectional learned-vs-extracted equivalence therefore only holds
    on the fragment the translation is *exact* for: straight-line
    outputs/assigns/no-ops, plus control flow whose bodies transmit
    nothing (silent branches and loops render away).  This generator
    stays inside that fragment; its values shrink within it too (splicing
    a silent body hoists assigns/no-ops only).
    """
    silent = ("assign", "noop")

    def draw_silent(rng: random.Random) -> tuple:
        kind = silent[rng.randrange(len(silent))]
        if kind == "assign":
            return ("assign", rng.randint(0, 3))
        return ("noop",)

    def draw(rng: random.Random) -> tuple:
        # outputs over-weighted, as in capl_statements: multi-output
        # activations are where the permutation widening must be exact
        options = (
            "output", "output", "output", "assign", "noop",
            "if", "ifelse", "for",
        )
        kind = options[rng.randrange(len(options))]
        if kind == "output":
            return ("output", CAPL_RESPONSES[rng.randrange(len(CAPL_RESPONSES))])
        if kind == "assign":
            return ("assign", rng.randint(0, 3))
        if kind == "noop":
            return ("noop",)
        if kind == "if":
            return ("if", rng.randint(0, 2), (draw_silent(rng),))
        if kind == "ifelse":
            return ("ifelse", (draw_silent(rng),), (draw_silent(rng),))
        return ("for", rng.randint(0, 2), (draw_silent(rng),))

    return Gen(draw)


def capl_precise_programs(
    requests: Sequence[str] = CAPL_REQUESTS, max_statements: int = 4
) -> Gen:
    """A random CAPL program inside the extraction-precise fragment."""

    def draw(rng: random.Random) -> CaplProgram:
        pool = list(requests)
        count = rng.randint(1, len(pool))
        handled = rng.sample(pool, count)
        handled.sort(key=pool.index)
        statements = capl_precise_statements()
        handlers = []
        for selector in handled:
            body = tuple(
                statements(rng)
                for _ in range(max(rng.randint(0, max_statements),
                                   rng.randint(0, max_statements)))
            )
            handlers.append((selector, body))
        return CaplProgram(handlers)

    return Gen(draw)


def stimuli_for(program: CaplProgram, min_size: int = 1, max_size: int = 4) -> Gen:
    """A random request sequence drawn from the program's own handlers."""
    return lists(sampled_from(program.handled()), min_size, max_size)


def capl_cases(requests: Sequence[str] = CAPL_REQUESTS) -> Gen:
    """A (program, stimuli) pair -- the extractor oracle's input."""
    return capl_programs(requests).bind(
        lambda program: stimuli_for(program).map(
            lambda stimuli: (program, stimuli)
        )
    )
