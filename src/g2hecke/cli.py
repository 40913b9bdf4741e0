"""Command-line surface: table emission, the check suite, and inspectors.

Subcommands:

* ``tables``  - emit one block-table family (or all) as JSON or aligned text;
* ``check``   - run the full invariant suite (golden-table diff, Hecke
  relation harness, per-row theorem checks, extended-quotient oracle sweep,
  matching corpus) and exit nonzero on any failure;
* ``mu``      - print the factored measure of one case with its extracted
  parameters, labels and Weyl verdict;
* ``hecke``   - run the relation harness for one weight pair;
* ``extquot`` - evaluate a finite orbit model (built in or from a JSON file).

Exit codes: 0 success, 1 check failure, 2 usage error, reported as one
``error:`` line.  One option table, ``_COMMANDS``, drives parsing and ``-h``.
Output is deterministic for a fixed command line and seed.
A ``check`` part that raises reports one failed ``PART/error`` result.  JSON
is written by ``_print_json``, byte for byte as ``json.dumps(doc, indent=2,
allow_nan=False)``; ``json`` itself is imported only where a file is decoded,
and ``check`` compares the golden tables as bytes.
"""

from __future__ import annotations

import gc
import math
import sys
from types import SimpleNamespace

from . import blocks, extquot, hecke, plancherel

__all__ = ["main", "run", "run_check_suite"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

_PARTS = ("tables", "hecke", "blocks", "extquot", "matching")

# fixed sizes of the check suite: matching-corpus torsion levels, oracle-sweep model size
TORSION_MIN, TORSION_MAX = 2, 12
EXTQUOT_MAX_SIZE = 8


class UsageError(Exception):
    pass


# what a command reports as one error line with exit 2: bad input, not a fault
_USAGE_ERRORS = (UsageError, blocks.BlocksError, plancherel.PlancherelError, extquot.ExtQuotError, hecke.HeckeError)


# ---------------------------------------------------------------------------
# check suite
# ---------------------------------------------------------------------------


def _check_tables() -> list:
    """Each regenerated table, as ``_print_json`` writes it, against the bytes of its packaged golden file.

    The files are read here, so that a missing one fails this part alone.
    """
    results = []
    for family in blocks.FAMILIES:
        emitted = blocks.emit_table(family)
        ok = (_json_text(emitted, "\n") + "\n").encode() == blocks._read_golden(family)
        detail = f"{len(emitted['rows'])} rows" if ok else "regenerated table differs from golden"
        results.append({"name": f"tables/{family}", "ok": ok, "detail": detail})
    return results


def _check_hecke(degree_bound: int) -> list:
    # (0,0), where terms cancel, and the generic pair, whose run covers every other pair
    results = []
    for name, (lam, lam_star) in (("0,0", (0, 0)), ("generic", hecke._GENERIC_PAIR)):
        report = hecke.verify_relations(blocks._noncomm(lam, lam_star), degree_bound)
        detail = "; ".join(f"{c.name}: {'ok' if c.passed else 'FAIL'}" for c in report.checks)
        results.append({"name": f"hecke/relations({name})", "ok": report.ok, "detail": detail})
    return results


def _oracle_agrees(memo: dict, row) -> bool:
    """The measure oracle for a row's case, run once per distinct measure: it reads only the factors."""
    case_id = row.classification.mu_case
    if case_id is None:
        return True
    m = blocks._measure(case_id, row.descriptor)
    key = (m.num_factors, m.den_factors)
    if key not in memo:
        memo[key] = plancherel.agrees_with_oracle(m)
    return memo[key]


def _check_blocks(allowed) -> list:
    pairs = None if allowed is None else hecke._pair_set(allowed)  # converted once, not once per row
    results = []
    oracle: dict = {}
    for family in blocks.FAMILIES:
        rows = blocks.table_rows(family)
        flags = {"weyl-iso": all(blocks.check_weyl_iso(r.classification) for r in rows)}
        if pairs is not None:
            flags["lusztig"] = all(hecke.check_lusztig(r.classification.h_g.weights, pairs)
                                   for r in rows if r.classification.h_g.weights is not None)
        flags["labels"] = all(_oracle_agrees(oracle, r) for r in rows)
        results.append({"name": f"blocks/{family}", "ok": all(flags.values()),
                        "detail": ", ".join(f"{name} {ok}" for name, ok in flags.items())})
    return results


def _shapes(n: int, offsets) -> list:
    """The torsion-model shapes on n points, as (kind, offset) pairs.

    Trivial, identity, inversion about each offset, and shift-half for even n.
    """
    shapes = [("trivial", 0), ("identity", 0)] + [("inversion", c) for c in offsets]
    if n % 2 == 0:
        shapes.append(("shift-half", 0))
    return shapes


def _oracle_sweep(max_size: int):
    """The torsion models of the oracle sweep, as ((n, kind, offset), model)."""
    for n in range(1, max_size + 1):
        for kind, offset in _shapes(n, range(n)):
            yield (n, kind, offset), extquot.torsion_model(n, kind, offset=offset)


def _check_extquot() -> list:
    bad = []
    total = 0
    for label, m in _oracle_sweep(EXTQUOT_MAX_SIZE):
        total += 1
        eq = len(extquot._quotient_pairs(m))  # the count needs no ExtQuotPoint records
        cp = extquot.crossed_product_irr_count(m)
        ok = eq == cp
        if m.gamma is not None:
            fixed = sum(1 for p in m.points if m.gamma[p] == p)
            ok = ok and eq == 2 * fixed + (m.size - fixed) // 2
        if not ok:
            bad.append(label)
    return [
        {
            "name": "extquot/oracle-sweep",
            "ok": not bad,
            "detail": f"{total} models, |X| <= {EXTQUOT_MAX_SIZE}" if not bad else f"mismatches: {bad}",
        }
    ]


def _matching_corpus(seed: int):
    """Paired models with good maps, torsion TORSION_MIN..TORSION_MAX."""
    import random

    rng = random.Random(seed)
    corpus = []
    for n in range(TORSION_MIN, TORSION_MAX + 1):
        for kind, offset in _shapes(n, sorted({0, 1 % n, 2 % n})):
            m1 = extquot.torsion_model(n, kind, offset=offset)
            shift = rng.randrange(n)
            good = {x: (x + shift) % n for x in range(n)}
            # the shift conjugates inversion about c into inversion about c + 2 shift
            # and commutes with the other symmetries, which keep m1 as the target
            target = (offset + 2 * shift) % n if kind == "inversion" else offset
            m2 = m1 if target == offset else extquot.torsion_model(n, kind, offset=target)
            corpus.append((m1, m2, good))
    return corpus


def _bad_maps(m1, good: dict) -> list:
    """Non-equivariant maps from a good map on n >= 3 points: the images of 0
    and 1 swapped, and for an inversion every image plus 1, which carries
    inversion about c to c + 2 shift + 2 instead of c + 2 shift."""
    n, g = m1.size, m1.gamma
    bad = [{**good, 0: good[1], 1: good[0]}]
    if g is not None and g[1] == (g[0] - 1) % n:  # an inversion reverses the translation
        bad.append({x: (y + 1) % n for x, y in good.items()})
    return bad


def _refusal(m1, m2, point_map: dict) -> str | None:
    """Why matching_bijection refuses the map, or None when it pairs."""
    try:
        extquot.matching_bijection(m1, m2, point_map)
    except extquot.ExtQuotError as e:
        return str(e)
    return None


def _check_matching(seed: int) -> list:
    corpus = _matching_corpus(seed)
    ok, rejected = True, 0
    detail = f"{len(corpus)} paired models, torsion {TORSION_MIN}..{TORSION_MAX}"
    for m1, m2, good in corpus:
        # the matching checks the map and verifies its pairing; the depth-zero
        # transfer is the same pairing with another refusal message
        refusal = _refusal(m1, m2, good)
        if refusal is not None:
            ok, detail = False, f"good map refused on {m1}: {refusal}"
            break
        bad = _bad_maps(m1, good) if m1.size >= 3 else []  # any bijection of 2 points is equivariant
        if any(_refusal(m1, m2, b) is None for b in bad):
            ok, detail = False, f"non-equivariant map accepted on {m1}"
            break
        rejected += len(bad)
    if ok:
        detail += f", {rejected} injected bad maps rejected"
    return [{"name": "extquot/matching-corpus", "ok": ok, "detail": detail}]


def run_check_suite(degree_bound: int = 3, seed: int = 0, allowed=None, parts: set | None = None) -> dict:
    parts = parts or set(_PARTS)
    hecke._check_bound(degree_bound)  # a bad bound is a usage error, whatever parts run
    checks = {"tables": _check_tables, "hecke": lambda: _check_hecke(degree_bound),
              "blocks": lambda: _check_blocks(allowed), "extquot": _check_extquot,
              "matching": lambda: _check_matching(seed)}
    results = []
    for part in [p for p in _PARTS if p in parts]:
        try:
            results += checks[part]()
        except Exception as e:  # a fault that raises fails its part alone; the others still report
            results.append({"name": f"{part}/error", "ok": False, "detail": f"raised {type(e).__name__}: {e}"})
    failures = sum(1 for r in results if not r["ok"])
    return {
        "schema_version": blocks.SCHEMA_VERSION,
        "seed": seed,
        "results": results,
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def _read_json(path: str, what: str):
    """The JSON document in a user-named file; any failure is a usage error."""
    import json  # the decoder is loaded only where a file is read

    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError, RecursionError) as e:  # bad JSON and bad UTF-8 are ValueErrors, deep nesting recurses
        raise UsageError(f"unreadable {what}: {e}")


def _load_allowed(path: str | None):
    if path is None:
        return None
    doc = _read_json(path, "allowed-pairs file")
    pairs = doc.get("allowed_pairs") if isinstance(doc, dict) else None
    # type() and not isinstance(), which would let JSON true and false through
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(type(x) is int and x >= 0 for x in p) for p in pairs
    ):
        raise UsageError(f"{path}: expected an object whose 'allowed_pairs' is a list of [lambda, lambda*] "
                         "of nonnegative integers")
    return {tuple(p) for p in pairs}


_ESCAPES = {"\\": "\\\\", '"': '\\"', "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _escape(c: str) -> str:
    n = ord(c) - 0x10000
    if n >= 0:  # outside the BMP: a UTF-16 surrogate pair
        return "\\u%04x\\u%04x" % (0xD800 | n >> 10, 0xDC00 | n & 0x3FF)
    return _ESCAPES.get(c) or "\\u%04x" % ord(c)


def _quote(s: str) -> str:
    # json's ensure_ascii rule: a quote, a backslash and all but printable ASCII are escaped
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    return '"' + "".join(c if " " <= c <= "~" and c not in '"\\' else _escape(c) for c in s) + '"'


def _json_key(k) -> str:
    if not (k is None or isinstance(k, (str, int, float))):
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
    return _quote(k if isinstance(k, str) else _json_text(k, ""))


def _json_text(o, pad: str) -> str:
    """``o`` as ``json.dumps(o, indent=2, allow_nan=False)`` writes it, after ``pad``, a line break and
    indent; plain ``str`` keys and ``int`` values, most of every document, skip the type tests."""
    inner = pad + "  "
    if isinstance(o, dict):
        items = [(_quote(k) if type(k) is str else _json_key(k)) + ": "
                 + (repr(v) if type(v) is int else _json_text(v, inner)) for k, v in o.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if isinstance(o, (list, tuple)):
        items = [repr(x) if type(x) is int else _json_text(x, inner) for x in o]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    if isinstance(o, str):
        return _quote(o)
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if not math.isfinite(o):  # NaN and Infinity are not JSON
            raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
        return float.__repr__(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _print_json(doc):
    print(_json_text(doc, "\n"))


def _fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _help(command: str | None) -> str:
    _, about, flags = _COMMANDS[command]
    lines = [f"usage: g2hecke {command or 'COMMAND'} [OPTIONS]", "", about]
    if command is None:
        lines += ["", "commands:"] + [f"  {name:<8} {text}" for name, (_, text, _) in _COMMANDS.items() if name]
    if flags:
        lines += ["", "options:"]
    for dest, (names, default, values, text) in flags.items():
        arg = "{%s}" % ",".join(map(str, values)) if isinstance(values, tuple) else dest.upper() if values else ""
        note = " (required)" if default is ... else ""
        lines += [f"  {', '.join(names)} {arg}".rstrip(), f"      {text}{note}"]
    return "\n".join(lines)


def _store(opts: dict, dest: str, flag: tuple, text: str):
    """Convert ``text`` as ``flag`` says and store it under ``dest``."""
    names, default, values, _ = flag
    if values is None:
        _fail(f"{names[0]} takes no value")
    convert = type(values[0]) if isinstance(values, tuple) else values
    try:
        value = convert(text)
    except ValueError:
        _fail(f"{names[0]}: invalid {convert.__name__} value {text!r}")
    if isinstance(values, tuple) and value not in values:
        _fail(f"{names[0]}: invalid choice {text!r} (choose from {', '.join(map(str, values))})")
    opts[dest] = opts[dest] + (value,) if isinstance(default, tuple) else value


def _parse(argv: list) -> tuple:
    """(command, options) from argv; bad input exits 2."""
    command, opts, tokens = None, {}, iter(argv)
    commands = ", ".join(filter(None, _COMMANDS))
    for token in tokens:
        if command is None and token in _COMMANDS:
            command = token
            opts.update((dest, flag[1]) for dest, flag in _COMMANDS[command][2].items())
            continue
        if command is None and not token.startswith("-"):
            _fail(f"unknown command {token!r} (choose from {commands})")
        flags = _COMMANDS[command][2]
        name, eq, text = token.partition("=")
        if name in ("-h", "--help"):
            print(_help(command))
            raise SystemExit(EXIT_OK)
        names = {n: dest for dest, flag in flags.items() for n in flag[0]}
        hits = [name] if name in names else [n for n in names if len(name) > 2 and n.startswith(name)]
        if len(hits) != 1:
            _fail(f"ambiguous option {name}: {', '.join(hits)}" if hits else f"unrecognized argument {token}")
        dest = names[hits[0]]
        if flags[dest][2] is None and not eq:
            opts[dest] = True
            continue
        if not eq and (text := next(tokens, None)) is None:
            _fail(f"{name} expects a value")
        _store(opts, dest, flags[dest], text)
    if command is None:
        _fail(f"expected a command: {commands}")
    for dest, flag in _COMMANDS[command][2].items():
        if opts[dest] is ...:
            _fail(f"{command} requires {flag[0][0]}")
    return command, opts


# ---------------------------------------------------------------------------
# subcommand drivers
# ---------------------------------------------------------------------------


def _cmd_tables(args) -> int:
    families = blocks.FAMILIES if args.family == "all" else (args.family,)
    if args.format == "json":
        doc = {
            "schema_version": blocks.SCHEMA_VERSION,
            "tables": [blocks.emit_table(f) for f in families],
        }
        _print_json(doc)
    else:
        chunks = []
        for f in families:
            chunks.append(f"== {f} ==")
            chunks.append(blocks.render_text_table(f))
        print("\n".join(chunks))
    return EXIT_OK


def _cmd_check(args) -> int:
    if args.all and args.part:
        raise UsageError("--all and --part exclude each other")
    report = run_check_suite(degree_bound=args.degree_bound, seed=args.seed,
                             allowed=_load_allowed(args.allowed_lusztig), parts=set(args.part) or None)
    if args.format == "json":
        _print_json(report)
    else:
        for r in report["results"]:
            mark = "ok " if r["ok"] else "FAIL"
            print(f"[{mark}] {r['name']}: {r['detail']}")
        print(f"{report['failures']} failures")
    return EXIT_OK if report["failures"] == 0 else EXIT_CHECK_FAILED


def _cmd_mu(args) -> int:
    case = plancherel.PlancherelCase(args.case, residue_degree=args.residue_degree)
    m = plancherel.mu(case)
    lab = plancherel.labels(m)
    a, b = m.extracted()
    doc = {
        "schema_version": blocks.SCHEMA_VERSION,
        "case": args.case,
        "mu_factored": plancherel.render_mu(m),
        "mu_reduced": m.expr.render(),
        "substitutions": list(m.substitutions),
        "q_alpha": blocks._q_power(a),
        "q_alpha_star": blocks._q_power(b),
        "labels": {"lambda": lab.pair()[0], "lambda_star": lab.pair()[1]},
        "W_O": plancherel.weyl_from_zeros(m),
    }
    if args.format == "json":
        _print_json(doc)
    else:
        print(f"case: {doc['case']}")
        print(f"mu = {doc['mu_factored']}")
        for s in m.substitutions:
            print(f"  with {s}")
        print(f"q_alpha = {doc['q_alpha']}, q_alpha* = {doc['q_alpha_star']}")
        print(f"labels: (lambda, lambda*) = ({lab.pair()[0]}, {lab.pair()[1]})")
        print(f"W_O: {doc['W_O']}")
    return EXIT_OK


def _cmd_hecke(args) -> int:
    try:
        lam, lam_star = (int(s) for s in args.weights.split(","))
    except ValueError:
        raise UsageError("weights must be 'lambda,lambda*', e.g. --weights 3,1")
    report = hecke.verify_relations(blocks._noncomm(lam, lam_star), args.degree_bound)
    if args.format == "json":
        _print_json({"schema_version": blocks.SCHEMA_VERSION, **report.to_json()})
    else:
        print(report.summary())
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def _cmd_extquot(args) -> int:
    if args.model is not None:
        model = extquot.FiniteOrbitModel.from_json(_read_json(args.model, "model file"))
    else:
        model = extquot.torsion_model(args.torsion_level, args.gamma, offset=args.offset)
    points = extquot.extended_quotient(model)
    count = len(points)
    oracle = extquot.crossed_product_irr_count(model)
    doc = {
        "schema_version": blocks.SCHEMA_VERSION,
        "model": model.to_json(),
        "extended_quotient": [
            {"representative": p.representative, "irrep": p.irrep_label} for p in points
        ],
        "count": count,
        "crossed_product_count": oracle,
    }
    if args.format == "json":
        _print_json(doc)
    else:
        print(f"model: {model!r}")
        print(f"extended quotient: {count} points")
        for p in points:
            print(f"  ({p.representative}, chi_{p.irrep_label})")
        print(f"crossed-product simple modules: {oracle}")
    return EXIT_OK


# One table drives parsing and the -h text: each command (None: the top level) maps to
# its handler, its help line and its flags by dest.  A flag is (names, default, values, help), where
# ``values`` is the converter (int, str), a tuple of choices, or None for a switch that takes no
# value; a tuple default makes the flag repeatable and a default of ``...`` makes it required.
_COMMANDS = {
    None: (None, "Block tables, Hecke relation checks and Plancherel cases of split G2.", {}),
    "tables": (_cmd_tables, "emit a block-table family", {
        "family": (("--family",), "all", ("all",) + blocks.FAMILIES, "the family to emit"),
        "format": (("--format",), "json", ("json", "text"), "output format")}),
    "check": (_cmd_check, "run the invariant suite", {
        "all": (("--all",), False, None, "run every part (the default); excludes --part"),
        "part": (("--part",), (), _PARTS, "run only the named part (repeatable)"),
        "format": (("--format",), "text", ("json", "text"), "output format"),
        "seed": (("--seed",), 0, int, "seed of the sampled matching corpus"),
        "degree_bound": (("--degree-bound",), 3, int, f"lattice degree bound, 1 to {hecke.MAX_DEGREE_BOUND}"),
        "allowed_lusztig": (("--allowed-lusztig",), None, str, "JSON file of the allowed label pairs")}),
    "mu": (_cmd_mu, "print the factored measure of one case", {
        "case": (("--case",), ..., plancherel.CASE_IDS, "the Plancherel case"),
        "residue_degree": (("--residue-degree",), 2, (1, 2), "residue degree of the extension"),
        "format": (("--format",), "text", ("json", "text"), "output format")}),
    "hecke": (_cmd_hecke, "verify relations for one weight pair", {
        "weights": (("--weights",), ..., str, "pair 'lambda,lambda*', e.g. 3,1"),
        "degree_bound": (("--degree-bound",), 3, int, f"lattice degree bound, 1 to {hecke.MAX_DEGREE_BOUND}"),
        "format": (("--format",), "text", ("json", "text"), "output format")}),
    "extquot": (_cmd_extquot, "evaluate a finite orbit model", {
        "model": (("--model",), None, str, "JSON model file (default: the built-in model)"),
        "torsion_level": (("--torsion-level",), 6, int,
                          f"torsion level of the built-in model, 1 to {extquot.MAX_TORSION_LEVEL}"),
        "gamma": (("--gamma",), "inversion", ("trivial", "identity", "inversion", "shift-half"), "involution"),
        "offset": (("--offset",), 0, int, "offset of the built-in inversion"),
        "format": (("--format",), "json", ("json", "text"), "output format")}),
}


def main(argv=None) -> int:
    try:
        command, opts = _parse(sys.argv[1:] if argv is None else list(argv))
        return _COMMANDS[command][0](SimpleNamespace(**opts))
    except _USAGE_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def run(argv=None) -> int:
    """The process entry point: main's exit code, with every live object frozen
    so that interpreter exit does not collect what the modules hold."""
    code = main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
