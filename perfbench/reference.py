"""In-process reference results the served bytes are checked against.

``python3 perfbench/reference.py OUT.json`` runs ``AnalysisSession.run`` for
every (Table-1 app x mode set) the load plan can name, as a served request
would (replaying, non-publishing spec), and writes per key the SHA-256 of
the canonical result encoding.  The orchestrator caches the file per digest
of the program's sources, so it is computed once per checkout.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def canonical(value) -> bytes:
    """The daemon's canonical JSON encoding (``serve.protocol.encode_json``)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def key(app: str, modes) -> str:
    return f"{app}|{','.join(modes)}"


def sources_digest() -> str:
    digest = hashlib.sha256(sys.version.encode("utf-8"))
    digest.update(Path(__file__).read_bytes())
    for path in sorted(common.SRC.rglob("*.py")):
        digest.update(str(path.relative_to(common.SRC)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def compute() -> dict:
    from repro.api import AnalysisSession, RunSpec

    out = {}
    with AnalysisSession() as session:
        for app in common.APPS:
            for modes in common.MODESETS:
                spec = RunSpec.composed(*modes, publish=False).replay()
                out[key(app, modes)] = sha(canonical(session.run(app, spec).to_dict()))
    return out


def main() -> int:
    common.require_sources()
    target = Path(sys.argv[1])
    data = {"sources": sources_digest(), "results": compute()}
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, indent=1, sort_keys=True), encoding="utf-8")
    tmp.replace(target)
    return 0


if __name__ == "__main__":
    sys.exit(main())
