"""Fingerprint of the results that a pure refactor must leave unchanged.

Prints one JSON document holding the ``repr`` of every ``values`` entry of
the 14 acceptance criteria and the sha256 of every artifact written by the
nine CLI experiments on ``demos/configs`` (``doob`` and ``fk`` at a fixed
seed).  The package is imported from ``PYTHONPATH``, so two checkouts are
compared by running this script against each and diffing the outputs:

    PYTHONPATH=<checkout>/src python3 tools/same_results.py > same.json
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from sparsewalk import acceptance, cli

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"
CLI_RUNS = (
    ("validate", "presets.json"),
    ("green", "green_lazy.json"),
    ("bs", "bs_scan.json"),
    ("spectrum", "spectrum_anchor.json"),
    ("essential", "presets.json"),
    ("decay", "presets.json"),
    ("gibbs", "presets.json"),
    ("doob", "presets.json"),
    ("fk", "fk_delta.json"),
)
SEEDED = {"doob": 12345, "fk": 7}


def main() -> int:
    values = {}
    for index in sorted(acceptance.CRITERIA):
        result = acceptance.run_criterion(index)
        values[str(index)] = {str(k): repr(v) for k, v in result.values.items()}
    artifacts = {}
    with tempfile.TemporaryDirectory() as tmp:
        for kind, name in CLI_RUNS:
            out = Path(tmp) / kind
            argv = [kind, "--config", str(CONFIGS / name), "--out", str(out)]
            if kind in SEEDED:
                argv += ["--seed", str(SEEDED[kind])]
            digests = {"exit": cli.main(argv)}
            for path in sorted(out.iterdir()):
                digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
            artifacts[kind] = digests
    json.dump({"values": values, "artifacts": artifacts}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
