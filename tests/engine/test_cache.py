"""Structural keys: the reachable-bindings closure over memoised term refs."""

import os
import pathlib

import pytest

from repro.batch import load_manifest
from repro.batch.spec import requirement_specs
from repro.csp import event
from repro.csp.process import (
    SKIP,
    STOP,
    Environment,
    ExternalChoice,
    Prefix,
    Process,
    ProcessRef,
    sequence,
)
from repro.cspm import load
from repro.cspm.prelude import SP02_FLAWED_SCRIPT, SP02_SCRIPT
from repro.engine import reachable_bindings, structural_key
from repro.exec.spec import reachable_bindings as spec_bindings
from repro.ota import build_paper_system, build_session_system
from repro.ota.extended import build_extended_system
from repro.ota.models import build_secured_system
from repro.translator import ModelExtractor

ROOT = pathlib.Path(__file__).parents[2]
MANIFEST = os.path.join(ROOT, "tests", "conformance", "manifest.json")


# -- the term walks the closures replaced, kept as their references ----------


def walk_reachable_bindings(process, env):
    """``repro.engine.cache.reachable_bindings`` as a walk over ``_key()``."""
    seen = {}
    stack = [process]
    while stack:
        term = stack.pop()
        if isinstance(term, ProcessRef) and term.name not in seen:
            if term.name in env:
                body = env.resolve(term.name)
                seen[term.name] = body
                stack.append(body)
            else:
                seen[term.name] = None
        stack.extend(
            item for item in term._key() if isinstance(item, Process)
        )
    return tuple(
        sorted(
            (name, body.fingerprint() if body is not None else "<unbound>")
            for name, body in seen.items()
        )
    )


def walk_spec_bindings(env, *terms, bindings=None):
    """``repro.exec.spec.reachable_bindings`` as a walk over ``_key()``."""
    collected = dict(bindings or {})
    stack = list(terms)
    while stack:
        node = stack.pop()
        if isinstance(node, ProcessRef) and node.name not in collected:
            if node.name in env:
                body = env.resolve(node.name)
                collected[node.name] = body
                stack.append(body)
        stack.extend(item for item in node._key() if isinstance(item, Process))
    return collected


# -- the bundled models -------------------------------------------------------


def _script_model(text):
    model = load(text)
    return model.env, []


def _extracted(path):
    result = ModelExtractor().extract(path.read_text("utf-8"), "ECU")
    return result.load().env, []


def _spec_models(specs):
    for spec in specs:
        terms = [term for term in (spec.spec, spec.impl, spec.term) if term]
        yield spec.environment(), terms


def _models():
    """(label, env, extra terms) for every bundled model."""
    paper = build_paper_system()
    flawed = build_paper_system(flawed=True)
    session = build_session_system()
    extended = build_extended_system()
    yield "paper", paper.env, [paper.system]
    yield "paper-flawed", flawed.env, [flawed.system]
    yield "session", session.env, [session.system]
    yield "extended", extended.env, [extended.system]
    for protection in ("none", "mac", "mac_nonce"):
        secured = build_secured_system(protection)
        yield "secured-" + protection, secured.env, [secured.attacked_system]
    yield ("sp02",) + _script_model(SP02_SCRIPT)
    yield ("sp02-flawed",) + _script_model(SP02_FLAWED_SCRIPT)
    example = (ROOT / "examples" / "sp02.csp").read_text("utf-8")
    yield ("examples/sp02.csp",) + _script_model(example)
    programs = sorted((ROOT / "src" / "repro" / "ota" / "data").glob("*.can"))
    programs += sorted((ROOT / "tests" / "learn" / "corpus").glob("*.can"))
    for path in programs:
        yield (path.name,) + _extracted(path)
    for index, (env, terms) in enumerate(_spec_models(requirement_specs())):
        yield "R0{}".format(index + 1), env, terms
    for index, (env, terms) in enumerate(_spec_models(load_manifest(MANIFEST))):
        yield "conformance-{}".format(index), env, terms


MODELS = list(_models())


@pytest.mark.parametrize(
    "label,env,terms", MODELS, ids=[label for label, _, _ in MODELS]
)
def test_closures_equal_the_term_walks(label, env, terms):
    names = env.names()
    every = terms + [ProcessRef(name) for name in names]
    every += [env.resolve(name) for name in names]
    for term in every:
        assert reachable_bindings(term, env) == walk_reachable_bindings(term, env)
        assert spec_bindings(env, term) == walk_spec_bindings(env, term)
    assert spec_bindings(env, *terms) == walk_spec_bindings(env, *terms)
    seeded = {names[0]: STOP} if names else {}
    assert spec_bindings(env, *every, bindings=seeded) == walk_spec_bindings(
        env, *every, bindings=seeded
    )


A, B = event("a"), event("b")


def test_unbound_name_keeps_its_marker():
    env = Environment({"P": Prefix(A, ProcessRef("MISSING"))})
    expected = (("MISSING", "<unbound>"), ("P", env.resolve("P").fingerprint()))
    assert reachable_bindings(ProcessRef("P"), env) == expected
    assert walk_reachable_bindings(ProcessRef("P"), env) == expected
    assert spec_bindings(env, ProcessRef("P")) == {"P": env.resolve("P")}


def test_rebinding_a_name_changes_the_key():
    root = ProcessRef("P")
    env = Environment({"P": Prefix(A, ProcessRef("Q")), "Q": STOP})
    before = structural_key(root, env)
    env.bind("Q", Prefix(B, ProcessRef("R")))
    after = structural_key(root, env)
    assert after != before
    assert after == (root.fingerprint(), walk_reachable_bindings(root, env))
    assert [name for name, _ in after[1]] == ["P", "Q", "R"]
    env.bind("Q", STOP)
    assert structural_key(root, env) == before


def test_refs_do_not_follow_references():
    term = ExternalChoice(Prefix(A, ProcessRef("P")), ProcessRef("Q"))
    assert term.refs() == {"P", "Q"}
    assert STOP.refs() == frozenset()


def test_a_term_shares_its_child_set_when_the_union_adds_nothing():
    loop = Prefix(A, ProcessRef("LOOP"))
    assert Prefix(B, loop).refs() is loop.refs()
    choice = ExternalChoice(loop, Prefix(B, ProcessRef("LOOP")))
    assert choice.refs() is loop.refs()
    assert ExternalChoice(STOP, loop).refs() is loop.refs()
    # every term that mentions no name shares one empty set
    assert Prefix(A, SKIP).refs() is STOP.refs()


def test_deep_prefix_chain_does_not_recurse():
    deep = sequence(*([A] * 10_000), then=ProcessRef("END"))
    env = Environment({"END": STOP})
    assert reachable_bindings(deep, env) == (("END", STOP.fingerprint()),)
