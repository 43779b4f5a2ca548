"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

Usage, from the root of a checkout::

    python3 bench/smoke.py

Runs a tiny ``ho-figure1`` and a tiny ``ising-figure2`` through the
same pass machinery as ``run.py``, once untraced and twice traced, and
checks that

  * every invocation passes its own gate;
  * a traced pass writes byte-identical outputs to an untraced one, so
    the instrumentation changes no result;
  * two traced passes give identical counts;
  * every metric named in ``BENCHMARK.json`` is reported, with its unit.

It prints every metric by name, value and unit, and exits 1 on any
failed check.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path
from time import perf_counter

from run import TIME_LIMIT_S, Bench, measure

TINY = [
    ["ho-figure1", "--tau-list", "0.4,0.8", "--grid", "101"],
    ["ising-figure2", "--n-list", "8,16,32,64,128,256", "--grid", "41",
     "--trajectory-sites", "16"],
]


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    bench = Bench(root, perf_counter() + 3 * TIME_LIMIT_S)
    args = (bench, TINY, [None] * len(TINY), 0.0)
    try:
        plain, _ = measure(*args, trace=False)
        traced, detail = measure(*args, trace=True)
        again, _ = measure(*args, trace=True)
    finally:
        shutil.rmtree(bench.tmp, ignore_errors=True)

    failures = []
    for label, result in (("untraced", plain), ("traced", traced),
                          ("traced again", again)):
        if not result["correct"]:
            failures.append(f"{label} run failed its checks")
    failures += [f"problem: {p}" for p in detail["problems"]]
    for section, result in (("end_to_end", plain), ("per_layer", traced)):
        expected = {m["name"]: m["unit"] for m in spec[section]}
        reported = {k: v["unit"] for k, v in result["metrics"].items()}
        if reported != expected:
            failures.append(f"{section}: reported {sorted(set(reported) ^ set(expected))} "
                            "differ from BENCHMARK.json, or units differ")
        for name, unit in expected.items():
            value = result["metrics"].get(name, {}).get("value")
            print(f"{section:10s} {name:45s} {value!r:>24} {unit}")
    counts = {k: v["value"] for k, v in traced["metrics"].items()
              if v["unit"] == "count"}
    repeat = {k: again["metrics"][k]["value"] for k in counts}
    if counts != repeat:
        failures.append(f"counts differ between traced runs: "
                        f"{ {k: (counts[k], repeat[k]) for k in counts if counts[k] != repeat[k]} }")
    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke: " + ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
