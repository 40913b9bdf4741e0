"""The g2hecke benchmark: closed-loop CLI workloads, one client, validated ops.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Every op is one fresh ``python3 -m g2hecke ...`` process with ``src/`` on
``PYTHONPATH``; the next op starts when the previous one has ended.  Ops are
started while the run's ``--seconds`` window still has room for one more of
the same kind, and every op's output is validated (``workloads.py``).

``--trace 0`` prints the end-to-end metrics, with times scaled to the
speed of a fixed reference process measured in the same run (``REF_CODE``).
``--trace 1`` alternates untraced ops with traced ones (``trace_op.py``),
prints the per-layer metrics, and writes every span to ``bench/results/``.
Metric names and units come from ``BENCHMARK.json``.  Each run appends one
JSON record (run header, samples, metrics) to ``--out``; ``compare.py``
reads two such files.  The last line of standard output is the run's result
as one JSON object.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
TRACE_OP = Path(__file__).resolve().parent / "trace_op.py"

# set-up and reference samples are spread over the run, one pair at least
# every seconds/SETUP_SAMPLES, so they see the same machine as the ops
SETUP_SAMPLES = 16
OP_TIMEOUT_S = 60.0

# The reference: fixed pure-Python work (Fraction sums, tuple-keyed dict
# updates) in a fresh interpreter, about 0.1 s on an uncontended core.  The
# speed of a shared machine drifts by a quarter within minutes, and the ops,
# the set-up samples and this reference drift together (run medians of
# set-up and op time correlate at 0.9), so end-to-end times are reported in
# seconds at reference speed: wall time * REF_NOMINAL_S / median reference
# wall time of the same run.  The raw figures stay in the run record.
REF_CODE = """from fractions import Fraction
acc, table = Fraction(0), {}
for i in range(1, 20000):
    acc += Fraction(i % 7 - 3, i % 11 + 1)
    key = (i % 97, i % 13)
    table[key] = table.get(key, 0) + i
"""
REF_NOMINAL_S = 0.1


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # ops and set-up samples load the byte code build() wrote, as an installed package would
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(args: list, env: dict) -> dict:
    """Run one child to completion; wall time, exit code, stdout and peak RSS."""
    with tempfile.TemporaryFile(dir=RESULTS) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + args, stdout=subprocess.PIPE, stderr=err,
                                stdin=subprocess.DEVNULL, cwd=ROOT, env=env)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return {"wall_s": wall, "code": proc.returncode, "stdout": stdout,
            "stderr": stderr, "rss_mb": usage.ru_maxrss / 1024}


def git_state() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        if head.returncode != 0:
            return {"commit": None, "dirty": None}
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}
    return {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def build(env: dict):
    """Byte-compile the package and make sure the children import it from ``src/``."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "g2hecke")],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    where = run_child(["-c", "import g2hecke, sys; sys.stdout.write(g2hecke.__file__)"], env)
    path = Path(where["stdout"].decode()).resolve()
    if where["code"] != 0 or SRC.resolve() not in path.parents:
        raise RuntimeError(f"children do not import g2hecke from {SRC}: {where['stderr'].strip()}")


def percentile(values: list, pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1]


# ---------------------------------------------------------------------------
# per-layer metrics of one traced op
# ---------------------------------------------------------------------------


def layer_metrics(doc: dict) -> dict:
    """Reduce one traced op's spans to ``<module>.<function>.<measure>`` values."""
    spans = doc["spans"]
    root_s = doc["root"][1] - doc["root"][0]
    child_s = [0.0] * len(spans)
    for name, start, end, parent, extra, raised in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out: dict = {}
    distinct: dict = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    covered = 0.0
    for i, (name, start, end, parent, extra, raised) in enumerate(spans):
        dur = end - start
        self_s = dur - child_s[i]
        names = [name]
        if name == "exactalg.exact_div":
            names.append(f"{name}.{spans[parent][0].split('.')[0] if parent >= 0 else 'none'}")
        # busy time counts a span only when no enclosing span has the same name
        outer = True
        p = parent
        while p >= 0 and outer:
            outer = spans[p][0] != name
            p = spans[p][3]
        for n in names:
            add(f"{n}.calls", 1)
            add(f"{n}.self_s", self_s)
            if outer:
                add(f"{n}.busy_s", dur)
            if raised:
                add(f"{n}.raised", 1)
            if name in ("plancherel.mu", "exactalg.exact_div"):
                distinct.setdefault(n, set()).add(extra)
        add(f"{name.split('.')[0]}.self_frac", self_s / root_s)
        if name == "hecke.multiply":
            add("hecke.multiply.term_pairs", extra)
        if name == "extquot.crossed_product_irr_count":
            out[f"{name}.basis_dim_max"] = max(out.get(f"{name}.basis_dim_max", 0), extra)
            add(f"{name}.self_frac", self_s / root_s)
        if name == "blocks.table_rows" and child_s[i] > 0:
            add("blocks.table_rows.cold_builds", 1)
        if parent < 0:
            covered += dur
    for n, keys in distinct.items():
        out[f"{n}.distinct_ratio"] = len(keys) / out[f"{n}.calls"]
    out["trace.coverage_frac"] = covered / root_s
    return out


def aggregate_layers(per_op: list, names: list, untraced: list, traced: list) -> dict:
    """Median over traced ops of each per-op value (``*_max``: the maximum); 0 where a layer never ran."""
    values = {}
    for name in names:
        if name == "trace.overhead_frac":
            values[name] = statistics.median(traced) / statistics.median(untraced) - 1
            continue
        samples = [op.get(name, 0) for op in per_op]
        values[name] = max(samples) if name.endswith("_max") else statistics.median(samples)
    return values


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def measure(args, spec: dict, env: dict, golden: dict, trace: bool) -> dict:
    validator = spec["validator"](golden)
    tally = workloads.Tally()
    ops = spec["ops"](args.seed)
    walls = {False: [], True: []}
    rss, setup, ref, per_op, spans_out, first_ok = [], [], [], [], [], None
    spans_file = RESULTS / f".spans-{os.getpid()}.json"
    start = time.perf_counter()
    end = start
    last_setup = -args.seconds
    kind = False
    while True:
        est = statistics.median(walls[kind]) if walls[kind] else 0.0
        if walls[kind] and time.perf_counter() - start + est > args.seconds:
            break
        if time.perf_counter() - start - last_setup >= args.seconds / SETUP_SAMPLES:
            last_setup = time.perf_counter() - start
            for samples, code in ((setup, "import g2hecke"), (ref, REF_CODE)):
                res = run_child(["-c", code], env)
                if res["code"] != 0:
                    raise RuntimeError(f"set-up sample failed: {res['stderr'].strip()}")
                samples.append(res["wall_s"])
        key, argv = next(ops)
        if kind:
            res = run_child([str(TRACE_OP), str(spans_file), "--"] + argv, env)
        else:
            res = run_child(["-m", "g2hecke"] + argv, env)
        end = time.perf_counter()
        ok = tally.record(validator, key, res["code"], res["stdout"])
        if not ok and res["stderr"]:
            print(res["stderr"].rstrip().splitlines()[-1], file=sys.stderr)
        if ok and first_ok is None:
            first_ok = (key, res["stdout"])
        walls[kind].append(res["wall_s"])
        rss.append(res["rss_mb"])
        if kind and spans_file.exists():  # absent only when the op was killed
            doc = json.loads(spans_file.read_text())
            spans_file.unlink()
            per_op.append(layer_metrics(doc))
            spans_out.append(doc)
        if trace:
            kind = not kind
    return {"tally": tally, "walls": walls, "rss": rss, "setup": setup, "ref": ref,
            "per_op": per_op, "spans": spans_out, "ops_s": end - start - sum(setup) - sum(ref),
            "first_ok": first_ok}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=RESULTS / "runs.jsonl",
                        help="JSON-lines file this run's record is appended to")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "g2hecke" / "__init__.py").is_file():
        print(f"error: no g2hecke sources under {SRC}", file=sys.stderr)
        return 2
    spec = workloads.WORKLOADS[args.workload]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    RESULTS.mkdir(exist_ok=True)

    header = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0],
        "implementation": platform.python_implementation(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "loadavg_start": os.getloadavg(),
        **git_state(),
    }
    print(json.dumps({"header": header}), file=sys.stderr)
    env = child_env()
    golden = workloads.load_golden(SRC)
    build(env)
    run = measure(args, spec, env, golden, trace=bool(args.trace))
    tally = run["tally"]
    controls = spec["controls"](*run["first_ok"], golden) if run["first_ok"] else {}
    header["loadavg_end"] = os.getloadavg()

    walls = run["walls"][False]
    tail_pct = spec["tail_pct"]
    raw = {
        "op_s_p50": percentile(walls, 50),
        "op_s_tail": percentile(walls, tail_pct),
        "ops_per_s": (tally.attempted - tally.failed) / run["ops_s"],
        "setup_s": statistics.median(run["setup"]),
        "ref_s": statistics.median(run["ref"]),
    }
    scale = REF_NOMINAL_S / raw["ref_s"]
    tail = {"tail_percentile": tail_pct, "ops": len(walls),
            "tail_samples_beyond": sum(1 for w in walls if w > raw["op_s_tail"])}
    if args.trace:
        names = [m["name"] for m in bench["per_layer"]]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values = aggregate_layers(run["per_op"], names, walls, run["walls"][True])
    else:
        names = [m["name"] for m in bench["end_to_end"]]
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        values = {
            "op_s_p50": raw["op_s_p50"] * scale,
            "op_s_tail": raw["op_s_tail"] * scale,
            "ops_per_s": raw["ops_per_s"] / scale,
            "setup_s": raw["setup_s"] * scale,
            "peak_rss_mb": max(run["rss"]),
        }
    metrics = {n: {"value": values[n], "unit": units[n]} for n in names}
    correct = tally.failed == 0 and bool(controls) and all(controls.values())
    record = {
        "header": header, "correct": correct, "attempted": tally.attempted,
        "failed": tally.failed, "ops_failed_frac": tally.failed / tally.attempted,
        "failures": tally.reasons[:20], "controls": controls, "raw": raw, "tail": tail,
        "samples": {"op_s": walls, "traced_op_s": run["walls"][True], "setup_s": run["setup"],
                    "ref_s": run["ref"], "rss_mb": run["rss"]},
        "metrics": metrics,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "a") as f:
        f.write(json.dumps(record) + "\n")
    if args.trace:
        path = RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        # one line per span; span 0 of each op is its root, the whole traced process
        with gzip.open(path, "wt") as f:
            for op_id, doc in enumerate(run["spans"]):
                root = ["op", *doc["root"], -2, None, False]
                for span_id, (name, start, end, parent, extra, raised) in enumerate(
                        [root] + doc["spans"]):
                    f.write(json.dumps({"op": op_id, "id": span_id, "name": name,
                                        "start": start, "end": end, "parent": parent + 1,
                                        "extra": extra, "raised": raised}) + "\n")
    summary = {k: record[k] for k in ("controls", "raw", "tail", "ops_failed_frac", "failures")}
    print(json.dumps({"loadavg_end": header["loadavg_end"], **summary}), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
