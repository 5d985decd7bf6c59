"""Campaign manifests: the durable record of what a campaign *is*.

A sharded campaign must survive the death of every process that knows about
it, so the complete batch — the ordered design points plus the campaign
identity — is written to the shared store **before any work starts**.  The
manifest is the contract between the submitting process and the workers:

* identity — :meth:`CampaignManifest.campaign_hash` digests the campaign
  name plus the ordered spec content hashes, so resubmitting the same batch
  finds (and verifies against) the existing manifest instead of forking a
  second campaign;
* portability — each entry embeds the spec's full canonical JSON
  (:meth:`RunSpec.to_json`), so a worker on any host rebuilds the
  :class:`RunSpec` from the store alone (:func:`~repro.campaign.spec
  .spec_from_json`) with a byte-identical content hash (verified on load);
* order — entries keep batch order, which is the order reports are
  assembled in; execution order is irrelevant to the result bytes.

Writes are atomic (tmp + ``os.replace`` in the same directory) so a crash
mid-write can never leave a torn manifest for workers to trip over.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.spec import (
    SPEC_SCHEMA,
    RunSpec,
    SweepSpec,
    canonical_json,
    spec_from_json,
)

#: Schema tag of the on-store manifest document.
MANIFEST_SCHEMA = "repro.campaign.manifest/v1"

#: Subdirectory of the campaign store holding one manifest per campaign.
MANIFEST_DIR = "manifests"


def atomic_write_json(path: str, payload: Any) -> None:
    """Write ``payload`` as JSON atomically: tmp in the same dir + replace.

    Readers either see the complete document or the previous one — never a
    half-written file — which is the property every store-side artifact
    (manifest, result entry, partial report) relies on.
    """
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


@dataclass(frozen=True)
class CampaignManifest:
    """An ordered, named batch of design points pinned to the store."""

    name: str
    specs: Tuple[RunSpec, ...]

    @classmethod
    def of(cls, name: str,
           specs: Union[Sequence[RunSpec], SweepSpec]) -> "CampaignManifest":
        """Build a manifest from a batch; a :class:`SweepSpec` keeps its name."""
        if isinstance(specs, SweepSpec):
            name = specs.name
        return cls(name=name, specs=tuple(specs))

    def spec_hashes(self) -> List[str]:
        return [spec.content_hash() for spec in self.specs]

    def campaign_hash(self) -> str:
        """Digest of the name + ordered spec hashes (the manifest filename).

        Deliberately the same encoding as :meth:`SweepSpec.content_hash`, so
        a sweep and the manifest built from it agree on the campaign id.
        """
        payload = {"schema": SPEC_SCHEMA, "name": self.name,
                   "specs": self.spec_hashes()}
        return hashlib.sha256(
            canonical_json(payload).encode("utf-8")).hexdigest()[:20]

    def __len__(self) -> int:
        return len(self.specs)

    # ---------------------------------------------------------- serialization
    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": MANIFEST_SCHEMA,
            "name": self.name,
            "campaign": self.campaign_hash(),
            "specs": [{"hash": spec.content_hash(), "spec": spec.to_json()}
                      for spec in self.specs],
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "CampaignManifest":
        """Rebuild a manifest, verifying every embedded spec re-hashes true.

        The hash check guards the portability contract: if the canonical
        spec encoding ever drifted between the writer and this process, the
        worker would otherwise silently publish results under the wrong
        content hashes.
        """
        schema = payload.get("schema")
        if schema != MANIFEST_SCHEMA:
            raise ValueError(f"unsupported manifest schema {schema!r}")
        specs: List[RunSpec] = []
        for entry in payload["specs"]:
            spec = spec_from_json(entry["spec"])
            rebuilt = spec.content_hash()
            if rebuilt != entry["hash"]:
                raise ValueError(
                    f"manifest spec hash mismatch: recorded {entry['hash']}, "
                    f"rebuilt {rebuilt} (canonical encoding drift?)")
            specs.append(spec)
        manifest = cls(name=payload["name"], specs=tuple(specs))
        recorded = payload.get("campaign")
        if recorded is not None and recorded != manifest.campaign_hash():
            raise ValueError(
                f"manifest campaign hash mismatch: recorded {recorded}, "
                f"rebuilt {manifest.campaign_hash()}")
        return manifest


# ----------------------------------------------------------------- store I/O
def manifest_dir(store_root: str) -> str:
    return os.path.join(store_root, MANIFEST_DIR)


def manifest_path(store_root: str, campaign_hash: str) -> str:
    return os.path.join(manifest_dir(store_root), campaign_hash + ".json")


def write_manifest(store_root: str, manifest: CampaignManifest) -> str:
    """Atomically publish ``manifest`` to the store; returns its path.

    Idempotent: rewriting an identical manifest is harmless (same bytes,
    same name).  Publishing happens *before* any worker starts — the
    manifest is what a worker polls for.
    """
    os.makedirs(manifest_dir(store_root), exist_ok=True)
    path = manifest_path(store_root, manifest.campaign_hash())
    atomic_write_json(path, manifest.to_json())
    return path


def read_manifest(store_root: str,
                  campaign_hash: str) -> Optional[CampaignManifest]:
    """Load one campaign's manifest, or ``None`` when not published yet."""
    try:
        with open(manifest_path(store_root, campaign_hash), "r",
                  encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError:
        return None
    return CampaignManifest.from_json(payload)


def list_manifests(store_root: str) -> List[Dict[str, Any]]:
    """Raw manifest documents in the store (unverified, for status display).

    Returns the parsed JSON payloads sorted by campaign name then hash;
    unreadable or torn files are skipped — status reporting must never die
    on a store another process is actively writing to.
    """
    root = manifest_dir(store_root)
    documents: List[Dict[str, Any]] = []
    try:
        names = sorted(os.listdir(root))
    except OSError:
        return []
    for filename in names:
        if not filename.endswith(".json"):
            continue
        try:
            with open(os.path.join(root, filename), "r",
                      encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            continue
        if payload.get("schema") == MANIFEST_SCHEMA:
            documents.append(payload)
    documents.sort(key=lambda doc: (doc.get("name", ""), doc.get("campaign", "")))
    return documents
