"""Manifest files: the ``cspbatch`` front end of the wire format.

The wire format itself -- :class:`~repro.exec.spec.CheckSpec`,
:class:`~repro.exec.spec.JobResult`, the verdicts and the
``{"format": 1, "checks": [...]}`` manifest document -- lives in
:mod:`repro.exec.spec`, below every execution mode.  This module reads
and writes that document as a file (:func:`load_manifest`,
:func:`dump_manifest`) and builds the Table III requirement batch
(:func:`requirement_specs`).
"""

from __future__ import annotations

import json
from typing import IO, List, Optional, Sequence, Union

# CheckSpec and reachable_bindings are also read from this module by the
# benchmark (perfbench/exec_mix.py, perfbench/tracing.py)
from ..exec.spec import (  # noqa: F401
    CheckSpec,
    ManifestError,
    manifest_document,
    parse_manifest,
    reachable_bindings,
)


def dump_manifest(specs: Sequence[CheckSpec], target: Union[str, IO[str]]) -> None:
    doc = manifest_document(specs)
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
    else:
        json.dump(doc, target, indent=2, sort_keys=True)
        target.write("\n")


def load_manifest(source: Union[str, IO[str]]) -> List[CheckSpec]:
    """Parse a manifest file (or handle) into its spec list."""
    try:
        if isinstance(source, str):
            with open(source, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        else:
            doc = json.load(source)
    except (ValueError, RecursionError) as error:
        # RecursionError: nesting deeper than the JSON decoder recurses
        raise ManifestError("manifest is not valid JSON: {}".format(error)) from None
    return parse_manifest(doc)


def requirement_specs(req_ids: Optional[Sequence[str]] = None) -> List[CheckSpec]:
    """One requirement spec per Table III row (or per requested id)."""
    if req_ids is None:
        from ..ota.requirements import TABLE_III

        req_ids = [row.req_id for row in TABLE_III]
    return [CheckSpec.requirement(req_id) for req_id in req_ids]
