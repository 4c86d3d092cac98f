"""Property-based tests: learning is deterministic, order-free and exact.

Inputs come from the shared seeded generators (replay any failure with
``REPRO_SEED=...``).  Three properties pin the learner's contract:

* byte determinism -- the same program and seed produce byte-identical
  canonical documents *and* identical query counts;
* query-order invariance -- the rng only permutes the order membership
  queries are issued in, never the automaton they converge to;
* white-box round-trip -- learning a known random safety automaton
  reconstructs a trace-equivalent acceptor that is no larger than the
  reference (L* converges to the minimal machine).
"""

from repro.csp import AlphabetTable, event
from repro.csp.kernel import CompactLTS
from repro.csp.lts import compile_lts
from repro.fdr.refine import check_trace_refinement
from repro.learn import CaplSimulatorSUL, LtsSUL, ReferenceTeacher, learn
from repro.learn.sul import derive_message_specs
from repro.quickcheck import Gen, capl_precise_programs, for_all
from repro.translator import ModelExtractor

SYMBOLS = (event("send", "reqA"), event("send", "reqB"), event("rec", "rspX"))


def random_safety_machines(min_states=3, max_states=8):
    """A random all-accepting (prefix-closed) partial automaton."""

    def draw(rng):
        count = rng.randint(min_states, max_states)
        table = AlphabetTable()
        edges = [
            [
                (table.intern(symbol), rng.randrange(count))
                for symbol in SYMBOLS
                if rng.random() < 0.6
            ]
            for _ in range(count)
        ]
        return CompactLTS.from_edges(table, 0, edges)

    return Gen(draw)


def _learn_program(program, seed=None):
    source = program.render()
    model = ModelExtractor().extract(source, "ECU").load()
    reference = compile_lts(model.process("ECU"), model.env, max_states=100_000)
    sul = CaplSimulatorSUL(source, derive_message_specs(source))
    return learn(sul, teacher=ReferenceTeacher(reference), seed=seed)


def test_learning_is_byte_deterministic_per_seed(repro_seed):
    def check(program):
        first = _learn_program(program, seed=3)
        second = _learn_program(program, seed=3)
        assert first.canonical_lines() == second.canonical_lines()
        assert first.fingerprint() == second.fingerprint()
        assert first.stats.to_doc() == second.stats.to_doc()

    for_all(
        capl_precise_programs(),
        check,
        seed=repro_seed,
        name="learn-byte-deterministic",
        cases=25,
    )


def test_learned_automaton_is_invariant_to_query_order(repro_seed):
    def check(program):
        baseline = _learn_program(program, seed=None)
        for seed in (0, repro_seed % 1000):
            shuffled = _learn_program(program, seed=seed)
            assert shuffled.canonical_lines() == baseline.canonical_lines()

    for_all(
        capl_precise_programs(),
        check,
        seed=repro_seed,
        name="learn-query-order-invariant",
        cases=25,
    )


def test_whitebox_learning_round_trips_random_machines(repro_seed):
    def check(reference):
        sul = LtsSUL(reference, SYMBOLS)
        result = learn(sul, teacher=ReferenceTeacher(reference))
        # exact: bidirectionally trace-equivalent to the reference
        assert check_trace_refinement(reference, result.lts).passed
        assert check_trace_refinement(result.lts, reference).passed
        # minimal: never larger than the (reachable) reference
        assert result.state_count <= reference.state_count

    for_all(
        random_safety_machines(),
        check,
        seed=repro_seed,
        name="learn-whitebox-roundtrip",
        cases=40,
    )
