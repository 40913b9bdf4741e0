"""The benchmark's workloads: seeded op argument lists, per-op validators and negative controls.

Each op is one ``g2hecke`` command line.  A validator sees every op's exit
code and standard output and returns ``None`` when the output is correct, or
a one-line reason when it is not.  Validators keep state across the ops of a
run (the first op's result names, the stdout of every seed seen), so a fresh
validator is made per run and per negative control.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# extquot-scale: one fixed torsion level; the dense Fraction elimination
# grows as (2N)^3 and takes about a second per op at this level.
EXTQUOT_LEVEL = 100

# check-default: the --seed values an op cycles through.  The Hecke harness's
# work depends on its seed (by up to half between seeds), so every run uses
# this same small set and the benchmark seed only orders it; each value
# repeats within a run, which the byte-identity check needs.  0 is the default.
CHECK_SEEDS = (0, 1, 2)


class Tally:
    """Attempted and failed ops, with the reason of every failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []

    def record(self, validator, key, code: int, stdout: bytes) -> bool:
        self.attempted += 1
        reason = validator.validate(key, code, stdout)
        if reason is not None:
            self.failed += 1
            self.reasons.append(reason)
        return reason is None


def _load(stdout: bytes):
    try:
        return json.loads(stdout)
    except ValueError as e:
        raise ValueError(f"stdout is not JSON: {e}") from None


class CheckValidator:
    """``check --all``: exit 0, no failures, same result names, same bytes per seed."""

    def __init__(self):
        self.names = None
        self.stdout_by_seed: dict = {}

    def validate(self, seed, code, stdout):
        if code != 0:
            return f"check seed {seed}: exit {code}"
        try:
            doc = _load(stdout)
        except ValueError as e:
            return f"check seed {seed}: {e}"
        if doc.get("failures") != 0:
            return f"check seed {seed}: failures = {doc.get('failures')!r}"
        names = [r.get("name") for r in doc.get("results", [])]
        if self.names is None:
            self.names = names
        elif names != self.names:
            return f"check seed {seed}: result names differ from the first op"
        first = self.stdout_by_seed.setdefault(seed, stdout)
        if stdout != first:
            return f"check seed {seed}: stdout differs from an earlier op with the same seed"
        return None


class TablesValidator:
    """``tables --family all``: exit 0 and every table equal to the packaged golden JSON."""

    def __init__(self, golden: dict):
        self.golden = golden

    def validate(self, key, code, stdout):
        if code != 0:
            return f"tables: exit {code}"
        try:
            tables = _load(stdout).get("tables", [])
        except ValueError as e:
            return f"tables: {e}"
        emitted = {t.get("family"): t for t in tables}
        if len(tables) != len(self.golden) or emitted.keys() != self.golden.keys():
            return f"tables: families {sorted(emitted, key=str)} != {sorted(self.golden)}"
        for family, want in self.golden.items():
            if emitted[family] != want:
                return f"tables: {family} differs from golden"
        return None


class ExtquotValidator:
    """``extquot``: exit 0, the model asked for, and both counts equal to the closed form."""

    def validate(self, key, code, stdout):
        level, gamma, offset = key
        tag = f"extquot {level} {gamma} {offset}"
        if code != 0:
            return f"{tag}: exit {code}"
        try:
            doc = _load(stdout)
            points = doc["model"]["points"]
            image = {int(x): y for x, y in doc["model"]["gamma"].items()}
            count, oracle = doc["count"], doc["crossed_product_count"]
        except (ValueError, KeyError, TypeError, AttributeError) as e:
            return f"{tag}: malformed output ({e!r})"
        if points != list(range(level)):
            return f"{tag}: model has {len(points)} points"
        if gamma == "inversion":
            want = {x: (offset - x) % level for x in points}
        else:
            want = {x: (x + level // 2) % level for x in points}
        if image != want:
            return f"{tag}: model symmetry is not {gamma}"
        if count != oracle:
            return f"{tag}: count {count} != crossed_product_count {oracle}"
        fixed = sum(1 for x in points if image[x] == x)
        if count != 2 * fixed + (level - fixed) // 2:
            return f"{tag}: count {count} != 2*{fixed} + ({level} - {fixed})/2"
        return None


def load_golden(src: Path) -> dict:
    out = {}
    for path in sorted((src / "g2hecke" / "data" / "tables").glob("*.json")):
        doc = json.loads(path.read_text())
        out[doc["family"]] = doc
    if not out:
        raise FileNotFoundError(f"no golden tables under {src}")
    return out


# ---------------------------------------------------------------------------
# op generators: an endless cycle of (key, argv) fixed by the seed
# ---------------------------------------------------------------------------


def check_ops(seed: int):
    seeds = random.Random(seed).sample(CHECK_SEEDS, len(CHECK_SEEDS))
    while True:
        for s in seeds:
            yield s, ["check", "--all", "--format", "json", "--seed", str(s)]


def tables_ops(seed: int):
    while True:
        yield None, ["tables", "--family", "all", "--format", "json"]


def extquot_ops(seed: int):
    # Even offsets give inversion two fixed points (stabilizer of order 2);
    # shift-half has only free orbits.  Together they take both branches.
    rng = random.Random(seed)
    n = EXTQUOT_LEVEL
    while True:
        offset = 2 * rng.randrange(n // 2)
        yield (n, "inversion", offset), ["extquot", "--torsion-level", str(n), "--gamma",
                                         "inversion", "--offset", str(offset), "--format", "json"]
        yield (n, "shift-half", 0), ["extquot", "--torsion-level", str(n), "--gamma",
                                     "shift-half", "--offset", "0", "--format", "json"]


# ---------------------------------------------------------------------------
# negative controls: doctored outputs that the validators must count as failed
# ---------------------------------------------------------------------------


def _caught(validator, ops) -> bool:
    """True when every op but the last passes and the last is counted as failed."""
    tally = Tally()
    passed = [tally.record(validator, key, code, stdout) for key, code, stdout in ops]
    return passed == [True] * (len(ops) - 1) + [False]


def check_controls(key, stdout: bytes, golden: dict) -> dict:
    doc = json.loads(stdout)
    failing = json.dumps({**doc, "failures": 1}, indent=2).encode() + b"\n"
    reformatted = json.dumps(doc, indent=1).encode() + b"\n"
    return {
        "check-failures-1": _caught(CheckValidator(), [(key, 0, failing)]),
        "check-stdout-differs": _caught(CheckValidator(), [(key, 0, stdout), (key, 0, reformatted)]),
    }


def tables_controls(key, stdout: bytes, golden: dict) -> dict:
    doctored = json.loads(json.dumps(golden))
    family = next(iter(doctored))
    row = doctored[family]["rows"][0]["classification"]
    row["xnr_order"] = row["xnr_order"] + 1
    return {"golden-cell-changed": _caught(TablesValidator(doctored), [(key, 0, stdout)])}


def extquot_controls(key, stdout: bytes, golden: dict) -> dict:
    doc = json.loads(stdout)
    doc["count"] += 1
    off_by_one = json.dumps(doc, indent=2).encode()
    return {"extquot-count-off-by-one": _caught(ExtquotValidator(), [(key, 0, off_by_one)])}


# extquot-scale runs like the others but is not listed in BENCHMARK.json:
# its run-to-run spread on a shared two-vCPU machine exceeded the bound
# (bench/README.md, "Spread").
WORKLOADS = {
    "check-default": {"ops": check_ops, "validator": lambda golden: CheckValidator(),
                      "controls": check_controls, "tail_pct": 50},
    "tables-cold": {"ops": tables_ops, "validator": TablesValidator,
                    "controls": tables_controls, "tail_pct": 75},
    "extquot-scale": {"ops": extquot_ops, "validator": lambda golden: ExtquotValidator(),
                      "controls": extquot_controls, "tail_pct": 50},
}
