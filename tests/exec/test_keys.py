"""The unified structural-key layer (:mod:`repro.exec.keys`).

Half of these are *stability fixtures*: checked-in digest values that pin
the key scheme itself.  Anything that changes them -- a codec tweak, a new
spec-document field, touching a version constant -- silently severs every
existing ``--result-cache`` store from its entries, so it has to show up in
review as a fixture diff, not as a mystery cold run.
"""

import hashlib

from repro.csp import Event, Prefix, STOP
from repro.exec.keys import (
    DISKCACHE_FORMAT_VERSION,
    ENGINE_SEMANTICS_VERSION,
    RESULT_FORMAT_VERSION,
    lts_key_digest,
    material_key,
    result_key_digest,
    spec_material,
    strip_label,
    structural_key,
)
from repro.exec.spec import CheckSpec


def _fixture_specs():
    term = Prefix(Event("a"), STOP)
    return {
        "ref": CheckSpec.refinement(term, term, "T", name="fixture"),
        "prop": CheckSpec.property_check(
            term, "deadlock free", passes="none", max_states=1234
        ),
        "req": CheckSpec.requirement("R01", check_id="label-ignored"),
    }


#: pinned digests -- a diff here means every deployed result cache goes cold
STRUCTURAL_FIXTURES = {
    "ref": "fbfba80caeeadfa7628f4d465c9fb8ea73784dc144d66ce5acc07286a6e1bd18",
    "prop": "6eee2f30784d95931830b6cb861ea217dc97d05013f515e108fd2f2b936ca329",
    "req": "a25a4b18f7a8d3553c9ec16941ec8177c5b7944cee12535f72f7720dbaa8b2d2",
}
RESULT_FIXTURES = {
    "ref": "23a488a687ecef773f853bd1852777189fad6439ea2ad14b585993d5f209aaa6",
    "prop": "0f12b5f872a487caf52fdc212b54b10bd2f564000e1b60045a1aac866dcce780",
    "req": "d0561fd0e781bdc47a93d31d5800a22bed7d468c3295a1d11ea03b339f38b779",
}


def test_versions_are_the_pinned_generation():
    # bumping any of these is deliberate cache invalidation; the fixture
    # digests below must be regenerated in the same commit
    assert ENGINE_SEMANTICS_VERSION == 1
    assert RESULT_FORMAT_VERSION == 2
    assert DISKCACHE_FORMAT_VERSION == 2


def test_structural_key_fixtures_are_stable():
    for label, spec in _fixture_specs().items():
        assert structural_key(spec.to_doc()) == STRUCTURAL_FIXTURES[label]


def test_result_key_fixtures_are_stable():
    for label, spec in _fixture_specs().items():
        material = spec_material(spec.to_doc())
        assert result_key_digest(material) == RESULT_FIXTURES[label]


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
    anon = CheckSpec.refinement(term, term, "T").to_doc()
    labelled = CheckSpec.refinement(term, term, "T", check_id="mine").to_doc()
    assert "id" not in strip_label(labelled)
    assert structural_key(anon) == structural_key(labelled)
    assert spec_material(anon) == spec_material(labelled)


def test_name_does_participate():
    # the name flows into the canonical result, so sharing an entry across
    # names would relabel one requester's output with another's title
    term = Prefix(Event("a"), STOP)
    named = CheckSpec.refinement(term, term, "T", name="one").to_doc()
    renamed = CheckSpec.refinement(term, term, "T", name="two").to_doc()
    assert structural_key(named) != structural_key(renamed)


def test_pass_config_and_budget_participate():
    term = Prefix(Event("a"), STOP)
    base = CheckSpec.property_check(term, "deadlock free").to_doc()
    other_passes = CheckSpec.property_check(
        term, "deadlock free", passes="none"
    ).to_doc()
    other_budget = CheckSpec.property_check(
        term, "deadlock free", max_states=7
    ).to_doc()
    keys = {
        result_key_digest(spec_material(base)),
        result_key_digest(spec_material(other_passes)),
        result_key_digest(spec_material(other_budget)),
    }
    assert len(keys) == 3


def test_result_material_wraps_versions_around_the_spec():
    # the stored key material is the canonical text itself (the versions
    # are their own columns); the digest wraps the versions around the
    # structural key of that one text
    doc = _fixture_specs()["ref"].to_doc()
    material = spec_material(doc)
    assert material_key(material) == structural_key(doc)
    versioned = "{}:{}:{}".format(
        RESULT_FORMAT_VERSION, ENGINE_SEMANTICS_VERSION, structural_key(doc)
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
