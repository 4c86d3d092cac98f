"""The unified structural-key layer (:mod:`repro.exec.keys`).

Every spec key is ``CheckSpec.material()`` of the decoded check; a
document's spelling never reaches it.

Half of these are *stability fixtures*: checked-in digest values that pin
the key scheme itself.  Anything that changes them -- a codec tweak, a new
spec-document field, touching a version constant -- silently severs every
existing ``--result-cache`` store from its entries, so it has to show up in
review as a fixture diff, not as a mystery cold run.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
import repro.exec.spec as spec_module
from repro.csp import Event, Prefix, ProcessRef, STOP
from repro.exec.keys import (
    DISKCACHE_FORMAT_VERSION,
    ENGINE_SEMANTICS_VERSION,
    RESULT_FORMAT_VERSION,
    canonical_json,
    lts_key_digest,
    material_key,
    result_key_digest,
)
from repro.exec.spec import CheckSpec

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _fixture_specs():
    term = Prefix(Event("a"), STOP)
    return {
        "ref": CheckSpec.refinement(term, term, "T", name="fixture"),
        "prop": CheckSpec.property_check(
            term, "deadlock free", passes="none", max_states=1234
        ),
        "req": CheckSpec.requirement("R01", check_id="label-ignored"),
        # a line number left out, a bool field, nested tuple fields and
        # non-ASCII text, in the spec term, a binding and the trace
        "trace": CheckSpec.trace_check(
            Prefix(
                Event("pin", (True,)), Prefix(Event("pin", (1,)), ProcessRef("LOOP"))
            ),
            [
                Event("c", (True,)),
                Event("d", ((1, ("x", False)), 2)),
                Event("é", ("ü",)),
            ],
            trace_lines=[3, None, 11],
            bindings={"LOOP": Prefix(Event("é", ("ü",)), ProcessRef("LOOP"))},
            name="trace membership of véhicule",
            check_id="label-ignored",
        ),
    }


#: pinned digests -- a diff here means every deployed result cache goes cold
STRUCTURAL_FIXTURES = {
    "ref": "fbfba80caeeadfa7628f4d465c9fb8ea73784dc144d66ce5acc07286a6e1bd18",
    "prop": "6eee2f30784d95931830b6cb861ea217dc97d05013f515e108fd2f2b936ca329",
    "req": "a25a4b18f7a8d3553c9ec16941ec8177c5b7944cee12535f72f7720dbaa8b2d2",
    "trace": "bde1d7394e206ab721207f8760da677bed0973f3b76d3a37b35b3867ed600f78",
}
RESULT_FIXTURES = {
    "ref": "23a488a687ecef773f853bd1852777189fad6439ea2ad14b585993d5f209aaa6",
    "prop": "0f12b5f872a487caf52fdc212b54b10bd2f564000e1b60045a1aac866dcce780",
    "req": "d0561fd0e781bdc47a93d31d5800a22bed7d468c3295a1d11ea03b339f38b779",
    "trace": "d809c3ada4f1d448f43449858ec65441fa1a9e41ec2b79851f17b288c055ca25",
}


def test_versions_are_the_pinned_generation():
    # bumping any of these is deliberate cache invalidation; the fixture
    # digests below must be regenerated in the same commit
    assert ENGINE_SEMANTICS_VERSION == 1
    assert RESULT_FORMAT_VERSION == 2
    assert DISKCACHE_FORMAT_VERSION == 2


def test_structural_key_fixtures_are_stable():
    # the key a document gets once it arrives: decoded, then material()
    for label, spec in _fixture_specs().items():
        decoded = CheckSpec.from_doc(spec.to_doc())
        assert material_key(decoded.material()) == STRUCTURAL_FIXTURES[label]


def test_result_key_fixtures_are_stable():
    for label, spec in _fixture_specs().items():
        assert result_key_digest(spec.material()) == RESULT_FIXTURES[label]


def test_assembled_texts_match_the_fixtures():
    # CheckSpec.material() builds the text without a document; it must be
    # canonical JSON: sorted keys, compact separators
    for label, spec in _fixture_specs().items():
        material = spec.material()
        assert material == canonical_json(json.loads(material))
        assert material_key(material) == STRUCTURAL_FIXTURES[label]
        assert result_key_digest(material) == RESULT_FIXTURES[label]


def test_to_doc_is_the_parsed_text_plus_the_label():
    for spec in _fixture_specs().values():
        doc = spec.to_doc()
        assert doc.pop("id", None) == spec.check_id
        assert doc == json.loads(spec.material())
        assert CheckSpec.from_doc(spec.to_doc()).material() == spec.material()


@pytest.mark.parametrize(
    "fields, expected",
    [
        (
            [(True,), (1,)],
            '[{"channel":"c","fields":[true]},{"channel":"c","fields":[1]}]',
        ),
        (
            [(1,), (True,)],
            '[{"channel":"c","fields":[1]},{"channel":"c","fields":[true]}]',
        ),
        (
            [((1, True),), ((True, 1),), ((1, (1,)),), ((1, (True,)),)],
            '[{"channel":"c","fields":[{"t":[1,true]}]},'
            '{"channel":"c","fields":[{"t":[true,1]}]},'
            '{"channel":"c","fields":[{"t":[1,{"t":[1]}]}]},'
            '{"channel":"c","fields":[{"t":[1,{"t":[true]}]}]}]',
        ),
    ],
    ids=["true-first", "one-first", "nested"],
)
def test_equal_events_that_encode_differently_keep_their_bytes(fields, expected):
    # c.true == c.1 as events, so the per-event memo must not key on the
    # event: each entry keeps the bytes its own fields encode to
    trace = [Event("c", value) for value in fields]
    spec = CheckSpec.trace_check(STOP, trace)
    material = '{"kind":"trace","spec":{"op":"stop"},"trace":' + expected + "}"
    assert spec.material() == material


def test_a_term_is_encoded_once_per_process(monkeypatch):
    # a fleet checks every log against one spec: its term and bindings are
    # encoded for the first spec and reused by every later one
    calls = []
    encode = spec_module.encode_process

    def counting(term):
        calls.append(term)
        return encode(term)

    monkeypatch.setattr(spec_module, "encode_process", counting)
    body = Prefix(Event("once", ("body",)), ProcessRef("ONCE"))
    specs = [
        CheckSpec.trace_check(
            ProcessRef("ONCE"),
            [Event("once", ("body",))] * step,
            trace_lines=list(range(step)),
            bindings={"ONCE": body},
            name="vehicle-{}".format(step),
        )
        for step in range(4)
    ]
    texts = [specs[0].material()]
    encoded = len(calls)
    assert encoded > 0
    texts += [spec.material() for spec in specs[1:]]
    assert len(calls) == encoded
    assert texts == [canonical_json(json.loads(text)) for text in texts]


def test_the_event_memo_starts_over_when_full(monkeypatch):
    # a signal-mode mapping can log more distinct events than the memo
    # holds: it never grows past its cap, and every entry keeps its bytes
    # across the clears (five distinct events, twice, through a cap of 3)
    monkeypatch.setattr(spec_module, "_EVENT_HEADS", {})
    monkeypatch.setattr(spec_module, "_EVENT_HEAD_CAP", 3)
    trace = [Event("rec", ("rptSw", value, value == 1)) for value in range(5)] * 2
    lines = [3 * index if index % 4 else None for index in range(len(trace))]
    entries = []
    for event, line in zip(trace, lines):
        entry = spec_module.encode_event(event)
        if line is not None:
            entry["line"] = line
        entries.append(entry)
    expected = canonical_json({"kind": "trace", "spec": {"op": "stop"}, "trace": entries})
    spec = CheckSpec.trace_check(STOP, trace, trace_lines=lines)
    for _ in range(2):
        assert spec.material() == expected
        assert 0 < len(spec_module._EVENT_HEADS) <= 3


#: ``spec.material()`` for every spec, newline-joined, hashed: the pinned
#: values are the digests of the texts that keyed the documents as they
#: were spelled before every key became ``material()``, so every deployed
#: result store keeps its keys; a document a client sends keys as the spec
#: it came from
_CORPUS_DIGESTS = """
import hashlib
import sys

from repro.batch import load_manifest
from repro.exec.spec import CheckSpec
from repro.rv.cli import load_rv_manifest, specs_from_manifest
from repro.rv.fleetgen import write_fleet


def digest(specs):
    texts = [spec.material() for spec in specs]
    assert texts == [CheckSpec.from_doc(spec.to_doc()).material() for spec in specs]
    return hashlib.sha256("\\n".join(texts).encode("utf-8")).hexdigest()


corpus = load_manifest(sys.argv[1])
fleet_dir = sys.argv[2]
manifest = write_fleet(fleet_dir, 120, seed=20190624, fault_rate=0.25)
fleet = specs_from_manifest(load_rv_manifest(manifest), fleet_dir)
print(len(corpus), digest(corpus))
print(len(fleet), digest(fleet))
"""


@pytest.mark.parametrize("hash_seed", ["0", "12345"])
def test_canonical_texts_of_the_corpora_are_pinned(tmp_path, hash_seed):
    # the conformance corpus and the fleet the CI rv job generates, under
    # two string-hash seeds (set and dict orders must not reach the text)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    manifest = str(ROOT / "tests" / "conformance" / "manifest.json")
    completed = subprocess.run(
        [sys.executable, "-c", _CORPUS_DIGESTS, manifest, str(tmp_path / "fleet")],
        env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.splitlines() == [
        "30 71dc8c453339d9e336a754ef0c1a91e1940ff2873804b33f7e06a2a50c823729",
        "120 322e154f9a6eb4d21b9055f7edce1e18cdf9f935bce45cf47863fa7fa7156f7b",
    ]


def test_lts_key_fixture_is_stable():
    key = (("lts", "v1"), ("fp", "abc"))
    assert (
        lts_key_digest(key, ("tau_loop", "sbisim"))
        == "583e2947a3e4fd4a1b30ac4b8d4272eae3dae805e89df3a7145154f06a6d1b3a"
    )
    assert (
        lts_key_digest(key)
        == "32d1b41dc8852b61f01ed35a1550bcd24ea9493e1685b6a18ee107a39c81ebe7"
    )


def test_lts_key_keeps_the_historical_shape():
    # existing .ltsb stores must stay warm across the refactor: the digest
    # is still sha256(repr((format, key, passes)))
    key = (("fp", "x"),)
    material = repr((DISKCACHE_FORMAT_VERSION, key, ("p1",)))
    assert (
        lts_key_digest(key, ("p1",))
        == hashlib.sha256(material.encode("utf-8")).hexdigest()
    )


def test_id_label_does_not_participate():
    term = Prefix(Event("a"), STOP)
    anon = CheckSpec.refinement(term, term, "T")
    labelled = CheckSpec.refinement(term, term, "T", check_id="mine")
    assert "id" not in json.loads(labelled.material())
    assert labelled.material() == anon.material()
    assert CheckSpec.from_doc(labelled.to_doc()).material() == anon.material()


def test_name_does_participate():
    # the name flows into the canonical result, so sharing an entry across
    # names would relabel one requester's output with another's title
    term = Prefix(Event("a"), STOP)
    named = CheckSpec.refinement(term, term, "T", name="one")
    renamed = CheckSpec.refinement(term, term, "T", name="two")
    assert material_key(named.material()) != material_key(renamed.material())


def test_pass_config_and_budget_participate():
    term = Prefix(Event("a"), STOP)
    base = CheckSpec.property_check(term, "deadlock free")
    other_passes = CheckSpec.property_check(term, "deadlock free", passes="none")
    other_budget = CheckSpec.property_check(term, "deadlock free", max_states=7)
    keys = {
        result_key_digest(spec.material())
        for spec in (base, other_passes, other_budget)
    }
    assert len(keys) == 3


def test_result_material_wraps_versions_around_the_spec():
    # the stored key material is the canonical text itself (the versions
    # are their own columns); the digest wraps the versions around the
    # structural key of that one text
    material = _fixture_specs()["ref"].material()
    assert material_key(material) == STRUCTURAL_FIXTURES["ref"]
    versioned = "{}:{}:{}".format(
        RESULT_FORMAT_VERSION, ENGINE_SEMANTICS_VERSION, STRUCTURAL_FIXTURES["ref"]
    )
    assert (
        result_key_digest(material)
        == hashlib.sha256(versioned.encode("ascii")).hexdigest()
    )


def test_delegating_modules_share_this_implementation():
    # one copy of the key material: the disk cache writes the layout
    # version defined here
    from repro.engine import diskcache

    assert diskcache.DISKCACHE_FORMAT_VERSION is DISKCACHE_FORMAT_VERSION
