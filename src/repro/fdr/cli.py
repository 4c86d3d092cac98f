"""``cspcheck`` -- command-line refinement checking of CSPm scripts.

The direct FDR-replacement workflow: load a ``.csp`` file, discharge every
``assert`` in it, print FDR-style verdicts with counterexample traces, and
exit non-zero if any assertion fails.

Verdict lines go to stdout; every diagnostic (``--stats``, ``--profile``,
warnings) goes to stderr, so stdout stays machine-parseable.

Usage::

    cspcheck model.csp                    # run the script's assertions
    cspcheck model.csp --max-states 1e6   # larger state budget
    cspcheck model.csp --quiet            # verdict summary only
    cspcheck model.csp --eager            # materialise impls (no on-the-fly)
    cspcheck model.csp --stats            # cache/alphabet/pass statistics
    cspcheck model.csp --compress=none    # disable compress-before-compose
    cspcheck model.csp --compress=tau_loop,sbisim   # explicit pass list
    cspcheck model.csp --profile          # per-stage wall-time table
    cspcheck model.csp --trace-out=t.jsonl  # full span/metric trace
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from ..cli_common import (
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    add_observability_args,
    add_result_cache_args,
    add_stats_arg,
    emit_stats,
    finish_observability,
    result_cache_dir_from_args,
    tracer_from_args,
)
from ..csp.lts import StateSpaceLimitExceeded
from ..cspm.evaluator import CspmEvaluationError, load_file
from ..cspm.lexer import CspmSyntaxError
from ..engine.pipeline import VerificationPipeline, check_label
from ..exec.keys import canonical_json
from ..exec.runtime import open_result_cache
from ..exec.spec import CheckSpec, JobResult, reachable_bindings
from .refine import CheckResult


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cspcheck",
        description="Check the assertions of a CSPm script (FDR-style)",
    )
    parser.add_argument("script", help="path to the .csp script")
    parser.add_argument(
        "--max-states",
        type=float,
        default=200_000,
        help="state budget per compiled process (default 200000)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="print only the final summary line"
    )
    parser.add_argument(
        "--eager",
        action="store_true",
        help="fully compile implementations instead of on-the-fly expansion",
    )
    add_stats_arg(
        parser,
        "print pipeline statistics (cache hits, interned events) to stderr",
    )
    parser.add_argument(
        "--compress",
        default="default",
        metavar="SPEC",
        help="component compression passes applied before composition: "
        "'default' (dead,tau_loop,diamond,sbisim), 'none', or a "
        "comma-separated pass list (e.g. 'tau_loop,sbisim,normal')",
    )
    add_result_cache_args(parser, "assertion verdicts")
    add_observability_args(parser)
    return parser


class _StoredCounterexample:
    """Replays the stored FDR-style description of a memoised violation."""

    __slots__ = ("_description",)

    def __init__(self, description: str) -> None:
        self._description = description

    def describe(self) -> str:
        return self._description


def _assertion_key(model, decl, max_states: int, passes: str):
    """The canonical text one ``assert`` line is memoised under, and its kind.

    The text is :meth:`CheckSpec.material` of the assertion's batch
    encoding -- both process sides (with every reachable named binding),
    the semantic model or property, the pass configuration and the state
    budget -- so the key covers everything that can influence the
    canonical outcome.  A negated assertion adds a ``negated`` marker: its
    *flipped* verdict is what gets stored, and the plain flavour of the
    same check must not answer it.  Assertions outside the corpus codec
    (or the manifest schema) give ``(None, None)`` and simply run fresh
    every time.
    """
    try:
        left = model.eval_process(decl.left, {})
        if decl.kind in ("T", "F", "FD"):
            right = model.eval_process(decl.right, {})
            spec = CheckSpec.refinement(
                left,
                right,
                decl.kind,
                bindings=reachable_bindings(model.env, left, right),
                passes=passes,
                max_states=max_states,
            )
        else:
            spec = CheckSpec.property_check(
                left,
                decl.kind,
                bindings=reachable_bindings(model.env, left),
                passes=passes,
                max_states=max_states,
            )
        material = spec.material()
    except Exception:
        # includes CorpusEncodingError/ManifestError; an evaluation error
        # re-raises on the fresh path, where it is actually reported
        return None, None
    if decl.negated:
        marked = json.loads(material)
        marked["negated"] = True
        material = canonical_json(marked)
    return material, spec.kind


class _ExceededBudget:
    """An assertion whose check ran out of state budget: not passed."""

    passed = False
    pass_stats = ()

    def __init__(self, name: str, error: StateSpaceLimitExceeded) -> None:
        self.name = name
        self.error = error

    def summary(self) -> str:
        return "{}: ERROR -- {}: {}".format(
            self.name, type(self.error).__name__, self.error
        )


def _assertion_label(model, decl) -> str:
    """The name a check of *decl* reports its result under."""
    left = model.eval_process(decl.left, {})
    right = None
    if decl.kind in ("T", "F", "FD"):
        right = model.eval_process(decl.right, {})
    label = check_label(left, decl.kind, right)
    return "not ({})".format(label) if decl.negated else label


def _result_of_stored(stored) -> CheckResult:
    """A displayable check result rebuilt from a memoised JobResult.

    ``summary()`` output is byte-identical to the fresh run's because every
    field it prints -- name, verdict, explored counts, the counterexample's
    ``describe()`` text -- is part of the stored canonical surface.
    """
    counterexample = None
    if stored.counterexample is not None:
        counterexample = _StoredCounterexample(
            stored.counterexample["description"]
        )
    return CheckResult(
        stored.name,
        stored.verdict == "PASS",
        counterexample,
        stored.states_explored,
        stored.transitions_explored,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    tracer = tracer_from_args(args)
    with tracer.span("run", tool="cspcheck", script=args.script):
        with tracer.span("parse", script=args.script):
            try:
                model = load_file(args.script)
            except (OSError, UnicodeDecodeError) as error:
                parser.exit(
                    EXIT_USAGE, "cspcheck: cannot read input: {}\n".format(error)
                )
            except (CspmSyntaxError, CspmEvaluationError) as error:
                parser.exit(
                    EXIT_USAGE, "cspcheck: {}: {}\n".format(args.script, error)
                )
        if not model.assertions:
            sys.stderr.write("warning: script declares no assertions\n")
            return EXIT_OK
        try:
            pipeline = VerificationPipeline(
                model.env,
                max_states=int(args.max_states),
                on_the_fly=not args.eager,
                passes=args.compress,
                obs=tracer,
            )
        except KeyError as error:
            sys.stderr.write("error: {}\n".format(error.args[0]))
            return EXIT_USAGE
        result_cache = open_result_cache(result_cache_dir_from_args(args))
        results = []
        for decl in model.assertions:
            material = kind = None
            if result_cache is not None:
                material, kind = _assertion_key(
                    model, decl, int(args.max_states), args.compress
                )
            if material is not None:
                stored = result_cache.get(material)
                if stored is not None:
                    results.append(_result_of_stored(stored))
                    continue
            try:
                result = model.check_assertion(
                    decl, int(args.max_states), pipeline
                )
            except CspmEvaluationError as error:
                # an assertion side is evaluated only when it is checked
                parser.exit(
                    EXIT_USAGE, "cspcheck: {}: {}\n".format(args.script, error)
                )
            except StateSpaceLimitExceeded as error:
                # reported on the assertion's line, as cspbatch reports it;
                # never memoised, since a larger budget may decide it
                label = _assertion_label(model, decl)
                results.append(_ExceededBudget(label, error))
                continue
            results.append(result)
            if material is not None:
                result_cache.put(
                    material, JobResult.of_check_result(0, None, result), kind=kind
                )
    failed = 0
    for result in results:
        if not result.passed:
            failed += 1
        if not args.quiet:
            sys.stdout.write(result.summary() + "\n")
    sys.stdout.write(
        "{}/{} assertions passed\n".format(len(results) - failed, len(results))
    )
    if args.stats:
        emit_stats(sorted(pipeline.stats().items()))
        if result_cache is not None:
            emit_stats(sorted(result_cache.stats().items()))
        for result in results:
            for stat in result.pass_stats:
                sys.stderr.write(
                    "compress [{}] {}\n".format(result.name, stat.summary())
                )
    finish_observability(args, tracer)
    return EXIT_VIOLATION if failed else EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
