"""Compare two sets of untraced benchmark results.

    python3 bench/compare.py BASE_DIR NEW_DIR

Each directory holds result files that run.py wrote (``bench/results``),
for instance copied from the parent commit's checkout and from the change's.
For every workload and end-to-end metric of BENCHMARK.json it prints each
side's median and quartiles and a verdict against the metric's bound:

- ``worse``: the new median is worse than the base median by more than the
  bound, or the new runs fail a larger share of their operations (median
  ``fail_ratio``; the count of failures grows with the number of passes)
  than the base runs;
- ``unresolved``: either side's spread (quartile distance over median) is
  wider than the bound, and not every new run beats every base run;
- ``ok`` otherwise.

It refuses (exit 2) to compare runs whose input digests differ, because
then the workload itself changed, or whose report-text digests differ,
because then the reports are no longer byte-identical.  Exit 1 when some
metric is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(directory: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        runs.setdefault(result["workload"], []).append(result)
    return runs


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = _load(sys.argv[1]), _load(sys.argv[2])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    worse = False
    for workload in sorted(base.keys() & new.keys()):
        for key in ("inputs_sha256", "reports_sha256"):
            digests = {str(r[key]) for r in base[workload] + new[workload]}
            if len(digests) > 1:
                print(f"{workload}: {key} differ {sorted(digests)}; refusing to compare", file=sys.stderr)
                return 2
        print(f"{workload}: {len(base[workload])} base runs, {len(new[workload])} new runs")
        b_failed = statistics.median(r["summary"]["fail_ratio"] for r in base[workload])
        n_failed = statistics.median(r["summary"]["fail_ratio"] for r in new[workload])
        if n_failed > b_failed:
            worse = True
        print(f"  {'fail_ratio':14s} base {b_failed:.6g}  new {n_failed:.6g}  {'worse' if n_failed > b_failed else 'ok'}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "lower" else -1
            b = [r["metrics"][name]["value"] for r in base[workload]]
            n = [r["metrics"][name]["value"] for r in new[workload]]
            bq, nq = _quartiles(b), _quartiles(n)
            change = sign * (nq[1] - bq[1]) / bq[1]
            spread = max((bq[2] - bq[0]) / bq[1], (nq[2] - nq[0]) / nq[1])
            if change > bound:
                verdict = "worse"
                worse = True
            elif spread > bound and not max(sign * x for x in n) < min(sign * x for x in b):
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(
                f"  {name:14s} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  "
                f"new {nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}]  "
                f"worse by {change:+.1%} (bound {bound:.0%})  {verdict}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
