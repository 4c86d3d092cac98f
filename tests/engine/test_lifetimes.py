"""A check leaves no reference cycles behind.

Every pipeline, with its caches, compiled automata and terms, must be freed
by reference counting as soon as its last reference goes, not kept until
the next full collection.  The first test runs checks of every kind with
the collector off, drops them, and asks the collector what it found: with
``gc.DEBUG_SAVEALL`` every object it would have freed is kept in
``gc.garbage``, and none of them may come from ``repro``.  The second
checks that a model's hash-consed terms die with the model and its
pipeline, so the next load of an equal model builds fresh ones.
"""

import gc
import types
import weakref

from repro.csp import Channel, ProcessRef
from repro.csp.process import Prefix
from repro.cspm import load
from repro.engine.pipeline import VerificationPipeline
from repro.exec.runtime import execute_spec
from repro.exec.spec import CheckSpec

SCRIPT = """
datatype msgs = reqSw | rptSw
channel send, rec : msgs
VMG = send!reqSw -> rec?r -> VMG
ECU = send?m -> rec!rptSw -> ECU
SYSTEM = VMG [| {| send, rec |} |] ECU
SPEC = send!reqSw -> rec!rptSw -> SPEC
ANY = |~| m : msgs @ send!m -> ANY
assert SPEC [T= SYSTEM
assert SPEC [F= SYSTEM
assert ANY [FD= SYSTEM \\ {| rec |}
assert SYSTEM :[deadlock free]
"""


def _check_everything():
    model = load(SCRIPT)
    assert [result.passed for result in model.check_assertions()] == [
        True,
        True,
        True,
        True,
    ]
    channel = Channel("c", ("x", "y"))
    bindings = {"P": Prefix(channel("x"), ProcessRef("P"))}
    term = ProcessRef("P")
    specs = [
        CheckSpec.refinement(term, term, "F", bindings=bindings),
        CheckSpec.property_check(term, "deadlock free", bindings=bindings),
        CheckSpec.trace_check(term, [channel("x"), channel("x")], bindings=bindings),
        CheckSpec.requirement("R01"),
    ]
    assert [execute_spec(spec).verdict for spec in specs] == ["PASS"] * 4


def _from_repro(obj):
    if isinstance(obj, types.FunctionType):
        module = obj.__module__ or ""
    else:
        module = type(obj).__module__
    return module == "repro" or module.startswith("repro.")


def test_checks_leave_no_reference_cycles():
    gc.collect()
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        _check_everything()
        gc.collect()
        leaked = sorted(
            {
                getattr(obj, "__qualname__", None) or type(obj).__qualname__
                for obj in gc.garbage
                if _from_repro(obj)
            }
        )
    finally:
        gc.set_debug(flags)
        del gc.garbage[:]
        if enabled:
            gc.enable()
    assert leaked == []


def test_a_checked_model_frees_its_terms_with_it():
    enabled = gc.isenabled()
    gc.disable()
    try:
        model = load(SCRIPT)
        pipeline = VerificationPipeline(model.env)
        assert all(result.passed for result in model.check_assertions(pipeline=pipeline))
        system = weakref.ref(model.env.resolve("SYSTEM"))
        del model, pipeline
        assert system() is None
    finally:
        if enabled:
            gc.enable()
