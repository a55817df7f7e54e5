#!/usr/bin/env python3
"""The benchmark's own tests: each correctness check must trip on a fault.

    python3 perfbench/selftest.py

Runs short benchmark runs through perfbench/run.py and expects
  * a clean q2-ant-sharded and ingest-storm run to pass every check;
  * a snapshot byte flipped on its way to the standby to fail the failover
    drill of q2-ant-sharded (exit 1, correct=false, failed > 0);
  * a frame dropped from the storm to fail the socket-vs-in-process
    fingerprint check of ingest-storm (exit 1, correct=false, failed > 0).
Exit status 0 when every expectation holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

CASES = [
    # workload, fault, expected exit, check that must read false (or None)
    ("q2-ant-sharded", "none", 0, None),
    ("q2-ant-sharded", "snapshot-byte", 1, "standby_restore_ok"),
    ("ingest-storm", "none", 0, None),
    ("ingest-storm", "drop-frame", 1, "socket_fingerprint_equals_inprocess"),
]


def run(workload, fault, save_dir):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", "0",
           "--inject-fault", fault, "--save", save_dir]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=300)
    path = os.path.join(save_dir, f"{workload}-seed7-trace0.json")
    with open(path) as f:
        return proc.returncode, json.load(f)


def main():
    save_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                            "selftest")
    ok = True
    for workload, fault, want_code, tripped in CASES:
        code, result = run(workload, fault, save_dir)
        good = code == want_code
        if tripped is None:
            good = good and result["correct"] and result["failed"] == 0
        else:
            good = (good and not result["correct"] and result["failed"] > 0
                    and result["checks"].get(tripped) is False)
        ok = ok and good
        print(f"{'PASS' if good else 'FAIL'}  {workload:<16} fault={fault:<14}"
              f" exit={code} correct={result['correct']} "
              f"failed={result['failed']}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
