"""Check that two source trees give byte-identical CLI output on benchmark requests.

    python tests/report_audit.py PARENT_SRC CHANGE_SRC [N]

PARENT_SRC and CHANGE_SRC are each a directory that holds the ``qviterbi``
package (a checkout's ``src``). Each tree runs, in one fresh process of its
own, the first N requests (default 200) of every workload that
``perfbench/workloads.make_inputs`` generates for seed 1, then the same
decode_small requests with ``--dump-state`` appended (every decode_small code
has n <= 14, so each report carries the final statevector), and then the
``landscape`` CSV of each built-in code at ``--grid 16`` for p = 1 and p = 3,
all through ``qviterbi.cli.main``. The script prints the identical count per
workload and the first mismatches, and exits 1 if any request's stdout or
exit code differs. It imports ``perfbench`` and changes nothing in it. Its
name does not start with ``test_``, so pytest does not collect it.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
SEED = 1
LANDSCAPES = {"lbc_321": "011", "lbc_633": "111011", "conv_r12_m2": "1101100111"}


def requests(n: int, codes_dir: str) -> dict[str, list[list[str]]]:
    """Workload (or ``dump_state`` or ``landscape``) -> the argv lists to run, in order."""
    sys.path.insert(0, PERFBENCH)
    from workloads import WORKLOADS, make_inputs

    runs = {w: [list(r.argv) for r in make_inputs(w, SEED, codes_dir).requests[:n]] for w in sorted(WORKLOADS)}
    runs["dump_state"] = [argv + ["--dump-state"] for argv in runs["decode_small"]]
    runs["landscape"] = [["landscape", "--code", code, "--received", received, "--grid", "16", "--p", p]
                         for code, received in LANDSCAPES.items() for p in ("1", "3")]
    return runs


def run_tree(src: str, n: int, codes_dir: str) -> dict[str, list[list]]:
    """Every request's [stdout, exit code] under the qviterbi package in ``src``."""
    sys.path.insert(0, src)
    import qviterbi.cli

    package = os.path.join(os.path.abspath(src), "qviterbi")
    if os.path.dirname(os.path.abspath(qviterbi.cli.__file__)) != package:
        sys.exit(f"report_audit: imported {qviterbi.cli.__file__}, not the package in {src}")
    results = {}
    for workload, argvs in requests(n, codes_dir).items():
        results[workload] = []
        for argv in argvs:
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    rc = qviterbi.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            results[workload].append([out.getvalue(), rc])
    return results


def main(argv: list[str]) -> int:
    if len(argv) == 4 and argv[0] == "--tree":
        src, n, codes_dir = argv[1], int(argv[2]), argv[3]
        json.dump(run_tree(src, n, codes_dir), sys.stdout)
        return 0
    if len(argv) not in (2, 3):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    n = int(argv[2]) if len(argv) == 3 else 200
    with tempfile.TemporaryDirectory() as codes_dir:
        parent, change = (
            json.loads(subprocess.run([sys.executable, os.path.abspath(__file__), "--tree", src, str(n), codes_dir],
                                      capture_output=True, text=True, check=True).stdout)
            for src in argv[:2]
        )
    mismatches = 0
    for workload, runs in parent.items():
        other = change[workload]
        same = sum(a == b for a, b in zip(runs, other))
        print(f"{workload:15s} {same}/{len(runs)} identical")
        for i, (a, b) in enumerate(zip(runs, other)):
            if a != b and mismatches < 5:
                print(f"  request {i}: exit {a[1]} vs {b[1]}; stdout {len(a[0])} vs {len(b[0])} chars")
            mismatches += a != b
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
