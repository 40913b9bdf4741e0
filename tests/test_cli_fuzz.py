"""Seeded fuzz of the command line, run in process.

Command lines are built from ``cli._COMMANDS`` (flags, abbreviations, values
good and bad, unknown tokens, input files that are missing or malformed), and
``extquot --model`` reads random orbit models, some of them corrupted.  Every
case must end with exit 0, 1 or 2 and no traceback; exit 2 is one ``error:``
line and no output; JSON output parses strictly; an ``extquot`` run that
succeeds has equal counts from its two routes.  A golden table served with
one byte flipped, cut short or with whitespace appended fails that family's
table alone.
"""

import json
import random
import re

import pytest

from g2hecke import blocks, cli

JUNK = ["", "x", "-", "--", "=", "-1", "1.5", "1e3", "0x10", "nan", "None", "é", "9" * 30, " 2", "3,1"]
SMALL_INTS = {"torsion_level": range(-1, 65), "degree_bound": range(-1, 5), "seed": range(-3, 10),
              "offset": range(-70, 70)}
WEIGHTS = ["3,1", "0,0", "2,2", "1,1", "-1,2", "1", "1,2,3", "a,b", ",", "1,", " 1 , 2 "]


def strict_json(text):
    def refuse(token):
        raise ValueError(f"non-finite number {token}")

    return json.loads(text, parse_constant=refuse)


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of ``main(argv)``; any exception but SystemExit fails the test."""
    try:
        code = cli.main(argv)
    except SystemExit as e:  # -h, and _fail's usage errors
        code = e.code
    except Exception as e:
        pytest.fail(f"{argv} raised {type(e).__name__}: {e}")
    out = capsys.readouterr()
    return code, out.out, out.err


def check_case(capsys, argv):
    code, out, err = outcome(capsys, argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        return code
    assert err == "", (argv, err)
    if out.startswith("usage: g2hecke"):  # -h or --help
        return code
    command, opts = cli._parse(argv)  # parsed once already, so this cannot fail
    doc = strict_json(out) if opts["format"] == "json" else None
    if command == "extquot":
        if doc is not None:
            counts = [doc["count"], doc["crossed_product_count"]]
        else:
            counts = [int(re.search(pattern, out, re.M).group(1))
                      for pattern in (r"^extended quotient: (\d+) points$", r"^crossed-product simple modules: (\d+)$")]
        assert code == 0 and counts[0] == counts[1], (argv, out)
    return code


def model_doc(rng):
    """A cyclic orbit model on random labels, as a JSON document, with a random symmetry."""
    n = rng.randint(1, 8)
    kind = rng.choice(["int", "str", "float", "bool", "null", "mixed"])
    pool = {
        "int": lambda: rng.randrange(-20, 20),
        "str": lambda: "".join(rng.choice("ab1é") for _ in range(rng.randint(0, 3))),
        "float": lambda: rng.choice([0.5, -1.25, 3.0, 1e300, -0.0]) + rng.randrange(5),
        "bool": lambda: rng.choice([True, False]),
        "null": lambda: None,
        "mixed": lambda: rng.choice([1, "1", None, 2.5, True]),
    }[kind]
    labels = [pool() for _ in range(n)]
    cycle = labels[:]
    rng.shuffle(cycle)
    doc = {"points": labels, "translation": {str(cycle[i]): cycle[(i + 1) % n] for i in range(n)}}
    symmetry = rng.choice(["none", "absent", "inversion", "half-shift", "permutation"])
    if symmetry == "inversion":
        c = rng.randrange(n)
        doc["gamma"] = {str(cycle[i]): cycle[(c - i) % n] for i in range(n)}
    elif symmetry == "half-shift":
        doc["gamma"] = {str(cycle[i]): cycle[(i + n // 2) % n] for i in range(n)}
    elif symmetry == "permutation":
        image = cycle[:]
        rng.shuffle(image)
        doc["gamma"] = {str(p): q for p, q in zip(cycle, image)}
    elif symmetry == "none":
        doc["gamma"] = None
    return doc


def corrupted(rng, doc) -> str:
    """The model as JSON text, sometimes with a key dropped or renamed, a value replaced or the text cut."""
    damage = rng.choice(["none"] * 4 + ["drop", "rename", "value", "cocycles", "cut", "nan"])
    if damage == "drop":
        doc.pop(rng.choice(list(doc)))
    elif damage == "rename" and doc["translation"]:
        key = rng.choice(list(doc["translation"]))
        doc["translation"]["?" + key] = doc["translation"].pop(key)
    elif damage == "value":
        doc[rng.choice(list(doc))] = rng.choice([None, 5, "x", [], {}, [[0]], {"0": [0]}])
    elif damage == "cocycles":
        doc["cocycles"] = rng.choice([{}, None, {"0": 1}, [1]])
    text = json.dumps(doc)
    if damage == "cut":
        text = text[: rng.randrange(len(text))]
    elif damage == "nan":
        text = text.replace("0", "NaN", 1)
    return text


def input_files(tmp_path):
    """Paths for each file flag: missing, unreadable or malformed, and a few good ones."""
    def write(name, data):
        path = tmp_path / name
        path.write_bytes(data.encode() if isinstance(data, str) else data)
        return str(path)

    missing, folder = str(tmp_path / "missing.json"), str(tmp_path)
    bad = [missing, folder, write("latin1", b"\xff\xfe"), write("text", "not json"), write("empty", ""),
           write("deep", "[" * 50_000)]
    model = json.dumps({"points": [0, 1, 2], "translation": {"0": 1, "1": 2, "2": 0}, "gamma": {"0": 0, "1": 2, "2": 1}})
    return {
        "model": bad + [write("model.json", model), write("list.json", "[0, 1]")],
        "allowed_lusztig": bad + [write("allowed.json", '{"allowed_pairs": [[1, 1], [2, 2], [3, 1]]}'),
                                  write("pairs.json", '{"allowed_pairs": [[true, 1]]}')],
    }


def flag_value(rng, dest, values, files):
    if rng.random() < 0.15:
        return rng.choice(JUNK)
    if isinstance(values, tuple):
        return str(rng.choice(values))
    if dest in files:
        return rng.choice(files[dest])
    if dest in SMALL_INTS:
        return str(rng.choice(SMALL_INTS[dest]))
    return rng.choice(WEIGHTS)


def random_argv(rng, files) -> list:
    commands = [c for c in cli._COMMANDS if c]
    command = rng.choice(commands + ["tabels", "-h", ""]) if rng.random() < 0.1 else rng.choice(commands)
    argv = [command]
    flags = cli._COMMANDS.get(command, cli._COMMANDS[None])[2]
    for _ in range(rng.randrange(5)):
        r = rng.random()
        if r < 0.08:
            argv.append(rng.choice(["--bogus", "-x", "--help", "-h", "extra", "--", "--=1", "--config"]))
            continue
        # perhaps another command's, and always when the command has none
        flags_from = cli._COMMANDS[rng.choice(commands)][2] if r < 0.15 or not flags else flags
        dest = rng.choice(list(flags_from))
        names, _, values, _ = flags_from[dest]
        name = rng.choice(names)
        if rng.random() < 0.2:  # an abbreviation, perhaps an ambiguous one
            name = name[: rng.randint(3, len(name))]
        if values is None:
            argv.append(name if rng.random() < 0.9 else f"{name}=yes")
            continue
        value = flag_value(rng, dest, values, files)
        form = rng.random()
        if form < 0.45:
            argv += [name, value]
        elif form < 0.9:
            argv.append(f"{name}={value}")
        else:
            argv.append(name)  # the value is missing, or the next token is taken as it
    return argv


def test_fuzzed_command_lines(capsys, tmp_path):
    rng = random.Random(20260)
    files = input_files(tmp_path)
    codes = [check_case(capsys, random_argv(rng, files)) for _ in range(600)]
    assert {0, 2} <= set(codes)


def test_fuzzed_model_files(capsys, tmp_path):
    rng = random.Random(33)
    path = tmp_path / "model.json"
    codes = []
    for _ in range(1500):
        path.write_text(corrupted(rng, model_doc(rng)))
        fmt = rng.choice(["json", "text"])
        codes.append(check_case(capsys, ["extquot", "--model", str(path), "--format", fmt]))
    assert codes.count(0) > 50 and codes.count(2) > 50


def damaged(rng, data: bytes) -> bytes:
    """``data`` with one byte flipped, cut short, or with whitespace appended."""
    damage = rng.choice(["flip", "cut", "whitespace"])
    if damage == "flip":
        at = rng.randrange(len(data))
        return data[:at] + bytes([data[at] ^ rng.randrange(1, 256)]) + data[at + 1:]
    if damage == "cut":
        return data[: rng.randrange(len(data))]
    return data + "".join(rng.choice(" \t\r\n") for _ in range(rng.randint(1, 3))).encode()


def test_fuzzed_golden_tables(capsys, monkeypatch):
    honest = {family: blocks._read_golden(family) for family in blocks.FAMILIES}
    served = dict(honest)
    monkeypatch.setattr(blocks, "_read_golden", served.__getitem__)
    argv = ["check", "--part", "tables", "--format", "json"]
    code, out, err = outcome(capsys, argv)
    assert code == 0 and err == "" and strict_json(out)["failures"] == 0
    rng = random.Random(34)
    for _ in range(40):
        family = rng.choice(blocks.FAMILIES)
        served[family] = damaged(rng, honest[family])
        code, out, err = outcome(capsys, argv)
        served[family] = honest[family]
        assert code == 1 and err == "", (family, code, err)
        doc = strict_json(out)
        assert [r["name"] for r in doc["results"] if not r["ok"]] == [f"tables/{family}"] and doc["failures"] == 1
