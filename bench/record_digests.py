"""Records the stdout digest of every argv the benchmark can send, from the
code in src/, into bench/digests.json. Run it at a commit whose reports are
the reference; the oracle then holds later commits to the same bytes.

    python3 bench/record_digests.py
"""

from __future__ import annotations

import json

from oracle import DIGESTS_PATH, verify_key, witness
from run import RESULTS, run_child
from workloads import query_pool, window_commands


def main() -> None:
    queries = window_commands("mul-window") + window_commands("ec-window")
    queries += [q for family in query_pool().values() for q in family]
    RESULTS.mkdir(exist_ok=True)
    res, _ = run_child({"queries": [q.with_workers(1) for q in queries]}, "record")
    digests = {}
    for q, entry in zip(queries, res["passes"][0]):
        digests[q.key] = entry["sha"]
        if "verify" in entry:
            digests[verify_key(q.key, witness(entry["text"]))] = entry["verify"]["sha"]
    DIGESTS_PATH.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {DIGESTS_PATH.name}")


if __name__ == "__main__":
    main()
