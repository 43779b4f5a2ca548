"""The benchmark's workloads: seeded CLI invocations and their output checks.

Each workload turns a seed into a list of ``cdwork`` argument vectors
(one benchmark pass) and checks what each invocation wrote.  The
default seed reproduces the CLI defaults; its outputs must match the
golden values in ``golden/<workload>.json`` (recorded with
``run.py --record-golden``) to 1e-10 relative to the largest magnitude
of each series.  Other seeds must exit 0 and satisfy the run's own
``passed`` flags plus the closed-form checks below.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

DEFAULT_SEED = 20260809
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-10
ISING_BATCH = 12

HO_STEMS = ("ho_figure1_mean_work", "ho_figure1_variance",
            "ho_figure1_excess", "ho_figure1_fluctuation_average")
ISING_STEMS = ("ising_figure2_trajectories", "ising_figure2_scaling")


# -- argument vectors --------------------------------------------------------

def ho_figure1_argvs(seed: int) -> list[list[str]]:
    """The ``ho-figure1`` subcommand; other seeds move the end frequency
    and the temperature inside a range where the run's checks hold.  The
    temperature range is narrow because the retained thermal levels, and
    with them the work per pass, grow as 1/beta."""
    if seed == DEFAULT_SEED:
        return [["ho-figure1"]]
    rng = random.Random(seed)
    omega_f = rng.uniform(2.8, 3.2)
    beta = rng.uniform(0.95, 1.05)
    return [["ho-figure1", "--omega-f", repr(omega_f), "--beta", repr(beta)]]


def verify_argvs(seed: int) -> list[list[str]]:
    """The 24-check suite at its CLI defaults (seed 20260809), whatever
    the workload seed.

    ``verify --seed`` is not varied: some of its seeds (8, for one) draw
    a mean-identity configuration that the suite's fixed 100-level basis
    cannot hold, and the run stops with a TruncationError.  Every pass
    is held to the golden values instead.
    """
    return [["verify"]]


def ising_scaling_argvs(seed: int) -> list[list[str]]:
    """A batch of ``ising-figure2`` runs: the default config first, then
    distinct sweep widths, each with a chain-length ladder of six sizes
    spanning a factor of 32 (1.5 decades).  Every batch uses the same
    set of ladders, shuffled, so the work per batch barely depends on
    the seed."""
    rng = random.Random(seed)
    starts = [24 + 2 * k for k in range(ISING_BATCH - 1)]
    rng.shuffle(starts)
    deltas = [1.0]
    while len(deltas) < ISING_BATCH:
        delta = round(rng.uniform(0.6, 1.0), 6)
        if delta not in deltas:
            deltas.append(delta)
    argvs = [["ising-figure2"]]
    for n0, delta in zip(starts, deltas[1:]):
        sizes = ",".join(str(n0 * 2**k) for k in range(6))
        argvs.append(["ising-figure2", "--delta", repr(delta),
                      "--n-list", sizes])
    return argvs


ARGVS = {
    "ho-figure1": ho_figure1_argvs,
    "verify": verify_argvs,
    "ising-scaling": ising_scaling_argvs,
}


# -- reading outputs ----------------------------------------------------------

def read_csv(path: Path) -> dict[str, list[float]]:
    rows = [line for line in path.read_text().splitlines()
            if not line.startswith("#")]
    reader = csv.reader(rows)
    names = next(reader)
    columns = {name: [] for name in names}
    for row in reader:
        for name, cell in zip(names, row):
            columns[name].append(float(cell))
    return columns


def _without_config(path: Path) -> dict:
    payload = json.loads(path.read_text())
    payload.pop("config", None)
    return payload


def extract(argv: list[str], outdir: Path) -> dict:
    """The outputs of one invocation that the golden values cover."""
    command = argv[0]
    if command == "ho-figure1":
        return {"series": {s: read_csv(outdir / f"{s}.csv") for s in HO_STEMS},
                "summary": _without_config(outdir / "ho_figure1_summary.json")}
    if command == "ising-figure2":
        return {"series": {s: read_csv(outdir / f"{s}.csv") for s in ISING_STEMS},
                "summary": _without_config(outdir / "ising_figure2_summary.json")}
    report = json.loads((outdir / "verify_report.json").read_text())
    return {"checks": [[c["name"], c["passed"]] for c in report["checks"]],
            "passed": report["passed"]}


# -- comparisons --------------------------------------------------------------

def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _close(x, g, scale) -> bool:
    if isinstance(g, float) and math.isnan(g):
        return isinstance(x, float) and math.isnan(x)
    return _is_number(x) and abs(x - g) <= REL_TOL * scale


def compare(got, gold, path: str = "") -> list[str]:
    """Differences between ``got`` and ``gold``.  Numbers are compared to
    1e-10 times the largest magnitude of their series: a list of numbers,
    or the numeric fields of one JSON object.  Keys that ``got`` has
    beyond ``gold`` (fields added to the outputs later) are ignored."""
    if isinstance(gold, dict):
        if not isinstance(got, dict) or not set(gold) <= set(got):
            return [f"{path}: keys {sorted(set(gold) - set(got or {}))} missing"]
        numbers = [abs(v) for v in gold.values()
                   if _is_number(v) and math.isfinite(v)]
        scale = max(numbers, default=0.0)
        problems = []
        for key, value in gold.items():
            where = f"{path}/{key}"
            if _is_number(value):
                if not _close(got[key], value, scale):
                    problems.append(f"{where}: {got[key]!r} != {value!r}")
            else:
                problems += compare(got[key], value, where)
        return problems
    if isinstance(gold, list):
        if not isinstance(got, list) or len(got) != len(gold):
            return [f"{path}: length differs"]
        if gold and all(_is_number(v) for v in gold):
            scale = max((abs(v) for v in gold if math.isfinite(v)), default=0.0)
            bad = [i for i, (x, g) in enumerate(zip(got, gold))
                   if not _close(x, g, scale)]
            return [f"{path}[{bad[0]}]: {got[bad[0]]!r} != {gold[bad[0]]!r} "
                    f"({len(bad)} entries off)"] if bad else []
        problems = []
        for i, (x, g) in enumerate(zip(got, gold)):
            problems += compare(x, g, f"{path}[{i}]")
        return problems
    return [] if got == gold else [f"{path}: {got!r} != {gold!r}"]


def load_golden(workload: str) -> list[dict]:
    return json.loads((GOLDEN_DIR / f"{workload}.json").read_text())


def _ho_closed_form(omega_f: float, beta: float) -> tuple[float, float]:
    """(eta, ell) of the omega 1 -> omega_f ramp from the closed-form
    per-level metric: with thermal populations p_n of the initial
    oscillator, ell = ln(omega_f) sqrt(sum p_n (n^2+n+1)/8) and eta
    carries the (p_n - p_{n+2})^2/(p_n + p_{n+2}) weights."""
    weights = [math.exp(-beta * n) for n in range(200)]
    total = sum(weights)
    p = [w / total for w in weights]
    log_ratio = math.log(omega_f)
    ell = log_ratio * math.sqrt(sum(pn * (n * n + n + 1) / 8.0
                                    for n, pn in enumerate(p)))
    eta = log_ratio * math.sqrt(sum(
        (p[n] - p[n + 2]) ** 2 / (p[n] + p[n + 2]) * (n + 1) * (n + 2) / 16.0
        for n in range(len(p) - 2)))
    return eta, ell


def _flag(argv, name, default):
    return float(argv[argv.index(name) + 1]) if name in argv else default


def check(argv: list[str], outdir: Path, exit_code, golden: dict | None) -> list[str]:
    """Problems with one invocation's outputs; empty when it passed.

    Given ``golden`` (the golden record of this invocation) the outputs
    must match it.  Otherwise the command's own gate applies: its
    ``passed`` flags, and for ``ho-figure1`` the closed-form path
    lengths.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        got = extract(argv, outdir)
    except (OSError, ValueError, KeyError, StopIteration) as exc:
        return [f"unreadable outputs: {exc!r}"]
    if golden is not None:
        return compare(got, golden, argv[0])
    if argv[0] == "verify":
        return [] if got["passed"] else ["verify: checks failed"]
    if argv[0] == "ising-figure2":
        scaling = got["summary"]["scaling"]
        return [] if scaling and scaling["passed"] else ["ising: fit failed"]
    summary = got["summary"]
    problems = [] if summary["passed"] else ["ho-figure1: passed is false"]
    eta, ell = _ho_closed_form(_flag(argv, "--omega-f", 3.0),
                               _flag(argv, "--beta", 1.0))
    for name, value, exact in (("ell", summary["ell"], ell),
                               ("eta_length", summary["eta_length"], eta)):
        if not abs(value - exact) <= 1e-7 * exact:
            problems.append(f"ho-figure1: {name}={value!r}, closed form {exact!r}")
    return problems
