#!/usr/bin/env python
"""Byte-compare two runner ``--json`` reports modulo the execution block.

The determinism contract says serial, parallel, cached, sharded — and pure-
vs compiled-tier — execution produce *the same report*.  The only permitted
difference is the top-level ``execution`` block: the executing kernel tier
and compiler tag (``kernel``), the artifact-memo traffic (``memos``) and,
under ``--cache``, this process's hit/miss/store traffic (``cache``), all of
which describe how the campaign ran rather than what it computed.  This
tool strips exactly that block from both documents, canonicalises them
(sorted keys, tight separators — the same encoding the spec layer hashes),
and compares the resulting bytes.  When the two reports ran on different
kernel tiers a note is printed (comparison proceeds normally — cross-tier
identity is the point of the contract).

Exit status 0 means identical; 1 means divergent, with the differing
top-level experiments named so a CI log points straight at the culprit.

Usage::

    PYTHONPATH=src python tools/compare_reports.py serial.json sharded.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

#: The top-level report key describing *how* the campaign ran rather than
#: what it computed; everything else must match byte for byte.  Its
#: ``kernel`` tier legitimately differs between the pure and the compiled
#: tier, its ``memos`` tally between one warm process (serial) and several
#: cold ones (parallel, sharded), and its ``cache`` traffic between cold and
#: warm stores.
EXECUTION_KEY = "execution"


def cross_tier_note(reference: Dict[str, Any],
                    candidate: Dict[str, Any]) -> Optional[str]:
    """A warning line when the two reports ran on different kernel tiers.

    Cross-tier comparison is exactly what the byte-identity contract is
    *for*, so this never fails the comparison — but a CI log should say so
    explicitly, because an unexpected tier (e.g. a compiled-tier artifact in
    a pure-tier lane) usually means the environment, not the code, changed.
    """
    ref_kernel = reference.get(EXECUTION_KEY, {}).get("kernel")
    cand_kernel = candidate.get(EXECUTION_KEY, {}).get("kernel")
    if not isinstance(ref_kernel, dict) or not isinstance(cand_kernel, dict):
        return None
    ref_tier = ref_kernel.get("tier")
    cand_tier = cand_kernel.get("tier")
    if ref_tier == cand_tier:
        return None
    return (f"note: cross-tier comparison (reference ran on "
            f"{ref_tier!r}, candidate on {cand_tier!r}); the execution "
            "blocks are excluded from the byte comparison")


def normalize(document: Dict[str, Any]) -> str:
    """The canonical byte form of a report, the execution block removed."""
    trimmed = {key: value for key, value in document.items()
               if key != EXECUTION_KEY}
    return json.dumps(trimmed, sort_keys=True, separators=(",", ":"))


def _load(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise ValueError(f"{path}: top level must be an object, "
                         f"got {type(document).__name__}")
    return document


def divergences(reference: Dict[str, Any],
                candidate: Dict[str, Any]) -> List[str]:
    """Human-readable description of where two trimmed reports differ."""
    problems: List[str] = []
    ref_experiments = reference.get("experiments")
    cand_experiments = candidate.get("experiments")
    if isinstance(ref_experiments, dict) and isinstance(cand_experiments, dict):
        only_ref = sorted(set(ref_experiments) - set(cand_experiments))
        only_cand = sorted(set(cand_experiments) - set(ref_experiments))
        if only_ref:
            problems.append(f"experiments only in reference: {only_ref}")
        if only_cand:
            problems.append(f"experiments only in candidate: {only_cand}")
        for name in sorted(set(ref_experiments) & set(cand_experiments)):
            a = json.dumps(ref_experiments[name], sort_keys=True)
            b = json.dumps(cand_experiments[name], sort_keys=True)
            if a != b:
                problems.append(f"experiment {name!r} differs")
    for key in sorted(set(reference) | set(candidate)):
        if key in (EXECUTION_KEY, "experiments"):
            continue
        if reference.get(key) != candidate.get(key):
            problems.append(
                f"top-level {key!r} differs: {reference.get(key)!r} "
                f"vs {candidate.get(key)!r}")
    return problems or ["documents differ (no per-experiment attribution)"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("reference", help="the report to compare against "
                                          "(e.g. the serial run)")
    parser.add_argument("candidate", help="the report under test "
                                          "(e.g. the sharded run)")
    args = parser.parse_args(argv)
    reference = _load(args.reference)
    candidate = _load(args.candidate)
    note = cross_tier_note(reference, candidate)
    if note is not None:
        print(note, file=sys.stderr)
    ref_bytes = normalize(reference)
    cand_bytes = normalize(candidate)
    if ref_bytes == cand_bytes:
        print(f"identical: {args.reference} == {args.candidate} "
              f"({len(ref_bytes)} canonical bytes, "
              f"{EXECUTION_KEY} excluded)")
        return 0
    print(f"DIVERGENT: {args.reference} != {args.candidate}",
          file=sys.stderr)
    for problem in divergences(reference, candidate):
        print(f"  {problem}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
