"""Record the results digests of finished untraced runs as the reference.

    python3 perfbench/record_digests.py

Reads every perfbench/out/<workload>-seed<n>-trace0.json report and
writes its results digest into perfbench/digests.json, keeping entries
for seeds that have no report.  Run it only after a change that is meant
to alter evaluation counts or f_best; a pure-performance change keeps
every digest.
"""

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"


def main() -> None:
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for path in sorted((HERE / "out").glob("*-trace0.json")):
        report = json.loads(path.read_text())
        digests.setdefault(report["workload"], {})[str(report["seed"])] = report["results_digest"]
    digests = {
        workload: dict(sorted(seeds.items(), key=lambda item: int(item[0])))
        for workload, seeds in sorted(digests.items())
    }
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")


if __name__ == "__main__":
    main()
