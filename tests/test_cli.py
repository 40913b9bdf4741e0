import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from g2hecke import blocks, cli, extquot, hecke, plancherel
from g2hecke.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, main
from g2hecke.hecke import WeightFunction


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_tables_json_row_counts(capsys):
    code, out, _ = run(capsys, "tables", "--family", "long-depth-zero", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert len(doc["tables"][0]["rows"]) == 7


def test_tables_all_families(capsys):
    code, out, _ = run(capsys, "tables", "--family", "all", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert [len(t["rows"]) for t in doc["tables"]] == [7, 6, 4, 7]


def test_tables_text_mode(capsys):
    code, out, _ = run(capsys, "tables", "--family", "short-positive", "--format", "text")
    assert code == EXIT_OK
    assert "T_alpha,pi'" in out


def test_json_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "tables", "--format", "json")
    _, out2, _ = run(capsys, "tables", "--format", "json")
    assert out1 == out2
    _, chk1, _ = run(capsys, "check", "--part", "extquot", "--format", "json", "--seed", "7")
    _, chk2, _ = run(capsys, "check", "--part", "extquot", "--format", "json", "--seed", "7")
    assert chk1 == chk2


def test_hecke_work_does_not_depend_on_the_seed(capsys):
    # the seed drives only the matching corpus; the document echoes it
    _, out0, _ = run(capsys, "check", "--part", "hecke", "--format", "json", "--seed", "0")
    _, out1, _ = run(capsys, "check", "--part", "hecke", "--format", "json", "--seed", "1")
    assert '"seed": 0,' in out0
    assert out0.replace('"seed": 0,', '"seed": 1,', 1) == out1
    with pytest.raises(SystemExit):
        main(["hecke", "--weights", "3,1", "--seed", "1"])


def test_check_green_suite(capsys):
    code, out, _ = run(capsys, "check", "--part", "tables", "--part", "blocks")
    assert code == EXIT_OK
    assert "0 failures" in out


@pytest.mark.parametrize(
    "method,sabotage",
    [
        # the labels (a + b, |a - b|) do not see this swap; only the oracle does
        ("extracted", lambda real, m: real(m)[::-1]),
        ("zeros", lambda real, m: real(m) - {-1}),
        # a gained zero must fail as surely as a lost one
        pytest.param("zeros", lambda real, m: real(m) | {-1}, id="zeros-gained"),
    ],
)
def test_check_blocks_fails_on_sabotaged_reading(monkeypatch, capsys, method, sabotage):
    real = getattr(plancherel.MuFunction, method)
    monkeypatch.setattr(plancherel.MuFunction, method, lambda m: sabotage(real, m))
    monkeypatch.setattr(blocks, "_CACHE", {})
    code, out, _ = run(capsys, "check", "--part", "blocks")
    assert code == EXIT_CHECK_FAILED
    assert "labels False" in out


def test_check_blocks_fails_on_a_measure_that_is_not_w_invariant(monkeypatch, capsys):
    # each factor (1 +- q^-k X) without its partner (1 +- q^-k X^-1): the normal
    # form is built by the same _expand, so only the symmetry mu(X) = mu(X^-1) sees it
    monkeypatch.setattr(plancherel, "_expand", lambda pairs: tuple((s, q, 1) for s, q in pairs for _ in "XY"))
    code, out, _ = run(capsys, "check", "--part", "blocks")
    assert code == EXIT_CHECK_FAILED
    assert "labels False" in out


def test_check_fails_on_tampered_golden(monkeypatch, capsys):
    # one W_O cell changed, the file otherwise laid out as the packaged one
    honest = blocks._read_golden
    doc = json.loads(honest("long-depth-zero"))
    assert (json.dumps(doc, indent=2) + "\n").encode() == honest("long-depth-zero")
    doc["rows"][0]["classification"]["W_O"] = "trivial"
    tampered = (json.dumps(doc, indent=2) + "\n").encode()
    monkeypatch.setattr(blocks, "_read_golden", lambda f: tampered if f == "long-depth-zero" else honest(f))
    code, out, _ = run(capsys, "check", "--part", "tables")
    assert code == EXIT_CHECK_FAILED
    assert [line for line in out.splitlines() if line.startswith("[FAIL]")] == [
        "[FAIL] tables/long-depth-zero: regenerated table differs from golden"]


def test_tables_check_sees_booleans_written_as_numbers(monkeypatch, capsys):
    # the golden tables are compared as bytes: decoded, 0 == False and 1 == True,
    # and a descriptor that wrote its switches as numbers passed the diff
    honest = blocks.BlockDescriptor.to_json

    def numeric(self):
        return {k: int(v) if type(v) is bool else v for k, v in honest(self).items()}

    monkeypatch.setattr(blocks.BlockDescriptor, "to_json", numeric)
    code, out, _ = run(capsys, "check", "--part", "tables")
    assert code == EXIT_CHECK_FAILED
    assert out.count("[FAIL] tables/") == len(blocks.FAMILIES) == 4


def test_mu_text(capsys):
    code, out, _ = run(capsys, "mu", "--case", "long-IV")
    assert code == EXIT_OK
    assert "W_O: trivial" in out
    assert "mu = c" in out
    code, out, _ = run(capsys, "mu", "--case", "long-I", "--format", "json")
    doc = json.loads(out)
    assert doc["labels"] == {"lambda": 3, "lambda_star": 1}
    assert doc["W_O"] == "order-2"


def test_hecke_subcommand(capsys):
    code, out, _ = run(capsys, "hecke", "--weights", "2,2", "--degree-bound", "2")
    assert code == EXIT_OK
    assert "[ok] quadratic-s1" in out
    code, _, err = run(capsys, "hecke", "--weights", "nope")
    assert code == EXIT_USAGE


HECKE_JSON_CHECKS = ["quadratic-s1", "group-algebra-degeneration", "representation"]


def strict_json(text):
    def refuse(token):
        raise ValueError(f"non-finite number {token}")

    return json.loads(text, parse_constant=refuse)


HECKE_JSON_ARGV = ("hecke", "--weights", "3,1", "--degree-bound", "2", "--format", "json")


def test_hecke_json(capsys):
    code, out, err = run(capsys, *HECKE_JSON_ARGV)
    assert code == EXIT_OK and err == ""
    doc = strict_json(out)
    assert list(doc) == ["schema_version", "weights", "ok", "checks"]
    assert doc["weights"] == [3, 1] and doc["ok"] is True
    assert [c["name"] for c in doc["checks"]] == HECKE_JSON_CHECKS
    assert all(c["passed"] for c in doc["checks"])


def test_hecke_json_reports_a_failed_relation(constant_term_flipped, capsys):
    code, out, err = run(capsys, *HECKE_JSON_ARGV)
    assert code == EXIT_CHECK_FAILED and err == ""
    assert strict_json(out)["ok"] is False


def test_check_sees_a_wrong_rule_at_the_generic_pair(wrong_rule, capsys):
    # the generic run stands for every table pair but (0,0), so it must fail on its own
    code, out, err = run(capsys, "check", "--part", "hecke", "--format", "json")
    assert code == EXIT_CHECK_FAILED and err == ""
    assert "hecke/relations(generic)" in [r["name"] for r in strict_json(out)["results"] if not r["ok"]]


def test_check_runs_the_harness_at_two_pairs(monkeypatch):
    # (0,0) and the generic pair, 198 products each at bound 3; one run per
    # table pair formed 792
    calls = []
    honest = hecke.multiply

    def counted(a, b):
        calls.append(1)
        return honest(a, b)

    monkeypatch.setattr(hecke, "multiply", counted)
    assert cli.run_check_suite()["failures"] == 0
    assert len(calls) == 396


def test_hecke_negative_degree_bound(capsys):
    # bound 0 would leave the centrality check empty, so it is rejected too
    for bound in ("-1", "0"):
        for argv in (("hecke", "--weights", "2,2"), ("check", "--part", "hecke")):
            code, _, err = run(capsys, *argv, "--degree-bound", bound)
            assert code == EXIT_USAGE
            assert "degree bound" in err


def test_degree_bound_above_cap(capsys):
    for argv in (("hecke", "--weights", "2,2"), ("check", "--part", "hecke")):
        code, _, err = run(capsys, *argv, "--degree-bound", "33")
        assert code == EXIT_USAGE
        assert "32" in err


def test_extquot_subcommand(capsys):
    code, out, _ = run(capsys, "extquot", "--torsion-level", "3", "--gamma", "inversion", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["count"] == 3 and doc["crossed_product_count"] == 3


def test_extquot_model_file(tmp_path, capsys):
    model = {
        "points": [0, 1, 2, 3],
        "translation": {"0": 1, "1": 2, "2": 3, "3": 0},
        "gamma": {"0": 0, "1": 3, "2": 2, "3": 1},
        "cocycles": {},
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    code, out, _ = run(capsys, "extquot", "--model", str(path), "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    # fixed points 0 and 2 contribute two characters each, the free orbit {1,3} one
    assert doc["count"] == 5
    assert doc["crossed_product_count"] == 5


@pytest.mark.parametrize(
    "doc",
    [
        [0, 1],
        {"translation": {"0": 0}},
        {"points": [0]},
        {"points": [0], "translation": {"5": 0}},
        {"points": [0], "translation": {"0": 0}, "gamma": {"5": 0}},
        {"points": [0], "translation": {"0": 0}, "cocycles": {"5": 1}},
        {"points": 5, "translation": {}},
        {"points": [0, 1], "translation": [1, 0]},
        {"points": [[0]], "translation": {"[0]": [0]}},
        {"points": [1, 2], "translation": {"1": 2, "2": [1]}},
        {"points": [0], "translation": {"0": 0}, "gamma": {"0": {}}},
        {"points": [1, "a"], "translation": {"1": "a", "a": 1}},
    ],
    ids=[
        "list", "no-points", "no-translation", "unknown-key", "unknown-gamma-key", "unknown-cocycle-key",
        "points-not-list", "translation-not-object", "unhashable-point", "unhashable-translation-value",
        "unhashable-gamma-value", "unordered-points",
    ],
)
def test_extquot_malformed_model_file(tmp_path, capsys, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "extquot", "--model", str(path))
    assert code == EXIT_USAGE
    assert err.startswith("error:")


def test_extquot_model_with_a_nan_first_point_is_refused(tmp_path, capsys):
    # json.load returns one NaN object for every NaN, so the labels pass the
    # distinctness and permutation checks, but NaN != NaN: the cycle walk
    # must stop after n steps instead of running forever
    path = tmp_path / "model.json"
    path.write_text('{"points": [NaN], "translation": {"nan": NaN}}')
    code, out, err = run(capsys, "extquot", "--model", str(path))
    assert code == EXIT_USAGE and out == ""
    assert err == "error: translation orbit overflow\n"


@pytest.mark.parametrize(
    "text, label",
    [
        ('{"points": [1e400], "translation": {"inf": 1e400}}', "inf"),
        ('{"points": [0, NaN], "translation": {"0": NaN, "nan": 0}}', "nan"),
        # gamma fixes the NaN label: the involution check must not read NaN != NaN as a fault
        ('{"points": [0, NaN], "translation": {"0": NaN, "nan": 0}, "gamma": {"0": 0, "nan": NaN}}', "nan"),
    ],
    ids=["infinity", "nan-second", "nan-fixed-by-gamma"],
)
def test_extquot_model_with_a_non_finite_label_is_refused(tmp_path, capsys, text, label):
    # json.load reads these labels as floats, and no JSON writer may print them back
    path = tmp_path / "model.json"
    path.write_text(text)
    code, out, err = run(capsys, "extquot", "--model", str(path))
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: point label {label} is not a finite number\n"


def test_extquot_model_cocycles_must_be_empty(tmp_path, capsys):
    # an order-2 stabilizer carries no cocycle twist; {} and null still load
    model = {"points": [0, 1, 2], "translation": {"0": 1, "1": 2, "2": 0}, "gamma": {"0": 0, "1": 2, "2": 1}}
    outputs = []
    for cocycles in ("absent", {}, None, {"0": -1}):
        doc = model if cocycles == "absent" else dict(model, cocycles=cocycles)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        for fmt in ("json", "text"):
            outputs.append(run(capsys, "extquot", "--model", str(path), "--format", fmt))
    absent, refused = outputs[:2], outputs[6:]
    assert absent[0][0] == EXIT_OK and json.loads(absent[0][1])["crossed_product_count"] == 3
    assert outputs[2:4] == absent and outputs[4:6] == absent
    for code, out, err in refused:
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_extquot_model_with_one_incomparable_label_is_refused(tmp_path, capsys):
    # one point makes sorted() compare nothing, so the label must also meet itself
    path = tmp_path / "model.json"
    path.write_text('{"points": [null], "translation": {"None": null}, "gamma": {"None": null}}')
    code, out, err = run(capsys, "extquot", "--model", str(path))
    assert code == EXIT_USAGE and out == ""
    assert err == "error: point labels must be comparable with each other\n"


def test_torsion_level_above_cap(capsys):
    # only the level above the cap: it is refused before any point is built
    code, out, err = run(capsys, "extquot", "--torsion-level", str(extquot.MAX_TORSION_LEVEL + 1))
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: torsion level must be between 1 and {extquot.MAX_TORSION_LEVEL}\n"


def test_a_wrong_oracle_count_fails_the_extquot_check(monkeypatch, capsys):
    honest = extquot.crossed_product_irr_count

    def off_by_one(m):
        return honest(m) + (m.size == 5 and m.gamma is None)

    monkeypatch.setattr(extquot, "crossed_product_irr_count", off_by_one)
    code, out, _ = run(capsys, "check", "--part", "extquot", "--format", "json")
    assert code == EXIT_CHECK_FAILED
    (result,) = json.loads(out)["results"]
    assert result == {"name": "extquot/oracle-sweep", "ok": False, "detail": "mismatches: [(5, 'trivial', 0)]"}


def test_check_extquot_builds_no_records(monkeypatch, capsys):
    # the oracle sweep only counts the quotient, so it builds no ExtQuotPoint
    built = []
    honest = extquot.ExtQuotPoint.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        honest(self, *args, **kwargs)

    monkeypatch.setattr(extquot.ExtQuotPoint, "__init__", counted)
    code, out, _ = run(capsys, "check", "--part", "extquot")
    assert code == EXIT_OK and "56 models" in out
    assert built == []


@pytest.mark.parametrize(
    "argv",
    [["extquot", "--model", "{file}"], ["check", "--part", "blocks", "--allowed-lusztig", "{file}"]],
    ids=["model", "allowed-lusztig"],
)
def test_input_file_not_utf8(tmp_path, capsys, argv):
    bad = tmp_path / "input.json"
    bad.write_bytes(b"\xff\xfe")
    code, _, err = run(capsys, *(a.format(file=bad) for a in argv))
    assert code == EXIT_USAGE
    assert err.startswith("error: unreadable") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [["extquot", "--model", "{file}"], ["check", "--part", "blocks", "--allowed-lusztig", "{file}"]],
    ids=["model", "allowed-lusztig"],
)
def test_input_file_nested_too_deep(tmp_path, capsys, argv):
    # the JSON decoder recurses once per level and raises RecursionError, not ValueError
    deep = tmp_path / "input.json"
    deep.write_text("[" * 100_000)
    code, out, err = run(capsys, *(a.format(file=deep) for a in argv))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: unreadable") and err.count("\n") == 1


def test_golden_file_not_utf8_is_a_differing_table(monkeypatch, capsys):
    # check compares the golden tables as bytes without decoding them, so a
    # non-UTF-8 file among three valid ones is one table that differs
    honest = blocks._read_golden
    monkeypatch.setattr(blocks, "_read_golden", lambda f: b"\xff\xfe" if f == "long-depth-zero" else honest(f))
    code, out, err = run(capsys, "check", "--part", "tables", "--format", "json")
    assert code == EXIT_CHECK_FAILED and err == ""
    doc = json.loads(out)
    assert [r["name"] for r in doc["results"] if not r["ok"]] == ["tables/long-depth-zero"]
    assert doc["failures"] == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["tables", "--family", "bogus"])
    assert exc.value.code == EXIT_USAGE


def test_module_entry_point():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "g2hecke", "mu", "--case", "short-I"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == EXIT_OK
    assert "W_O: order-2" in proc.stdout


def _child_env(pythonpath: str) -> dict:
    return dict(os.environ, PYTHONPATH=pythonpath)


def test_in_process_main_does_not_freeze_the_gc(capsys):
    import gc

    before = gc.get_freeze_count()
    assert run(capsys, "tables", "--family", "short-positive")[0] == EXIT_OK
    assert gc.get_freeze_count() == before


def test_the_process_entry_freezes_the_gc_before_exit(tmp_path):
    # python -m g2hecke runs __main__, which exits through cli.run; an atexit
    # hook registered first sees the frozen generation
    code = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: sys.stderr.write(f'frozen {gc.get_freeze_count()}'))\n"
        "sys.argv = ['g2hecke', 'mu', '--case', 'short-I']\n"
        "runpy.run_module('g2hecke', run_name='__main__')\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path,
                          env=_child_env(src), timeout=60)
    assert proc.returncode == EXIT_OK
    assert "W_O: order-2" in proc.stdout  # stdout still flushes at exit
    assert proc.stderr.startswith("frozen ") and int(proc.stderr.split()[1]) > 0


def test_golden_tables_read_from_a_zipped_package(tmp_path):
    import zipfile

    src = Path(__file__).resolve().parent.parent / "src"
    archive = tmp_path / "g2hecke.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in sorted((src / "g2hecke").rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                zf.write(path, path.relative_to(src).as_posix())
    code = (
        "import sys\n"
        "from g2hecke import blocks, cli\n"
        "print(blocks.__file__)\n"
        "sys.exit(cli.main(['check', '--part', 'tables', '--part', 'blocks']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path,
                          env=_child_env(str(archive)), timeout=60)
    assert proc.returncode == EXIT_OK, proc.stderr
    where, *lines = proc.stdout.splitlines()
    assert where.startswith(str(archive))
    assert "[ok ] tables/long-depth-zero: 7 rows" in lines
    assert lines[-1] == "0 failures"


def test_allowed_lusztig_override(tmp_path, capsys):
    allowed = tmp_path / "allowed.json"
    allowed.write_text(json.dumps({"allowed_pairs": [[9, 9]]}))
    code, out, _ = run(
        capsys, "check", "--part", "blocks", "--allowed-lusztig", str(allowed)
    )
    assert code == EXIT_CHECK_FAILED
    assert "lusztig False" in out
    for malformed in (
        {"pairs": [[9, 9]]},
        {"allowed_pairs": [1, 2]},
        {"allowed_pairs": [[1, [2]]]},
        {"allowed_pairs": [["a", "b"]]},
        {"allowed_pairs": [[True, 1]]},
        {"allowed_pairs": [[-1, 1]]},
    ):
        allowed.write_text(json.dumps(malformed))
        code, _, err = run(capsys, "check", "--part", "blocks", "--allowed-lusztig", str(allowed))
        assert code == EXIT_USAGE
        assert err.startswith("error:")


def test_check_suite_reads_each_golden_table_once(monkeypatch):
    # the tables diff is the only reader of the packaged golden tables
    honest = blocks._read_golden
    reads = []

    def counting(family):
        reads.append(family)
        return honest(family)

    monkeypatch.setattr(blocks, "_read_golden", counting)
    report = cli.run_check_suite()
    assert report["failures"] == 0
    assert sorted(reads) == sorted(blocks.FAMILIES)


def test_text_tables_match_fixture_byte_for_byte(capsys):
    fixture = (Path(__file__).resolve().parent / "data" / "tables_all.txt").read_bytes()
    assert hashlib.sha256(fixture).hexdigest() == (
        "f148d32fa66282d90b4d80a6a290017a40b6125646050051bc7d87b3c8bd6814"
    )
    assert len(fixture.splitlines()) == 36
    code, out, _ = run(capsys, "tables", "--family", "all", "--format", "text")
    assert code == EXIT_OK
    assert out.encode() == fixture


def test_mu_output_matches_fixture_byte_for_byte(capsys):
    # every case at both residue degrees, in text and JSON
    fixture = (Path(__file__).resolve().parent / "data" / "mu_all.txt").read_bytes()
    assert hashlib.sha256(fixture).hexdigest() == (
        "d4b82db4af26ff359d50cd40614c671af3002481e854256a649a7231a104e9d3"
    )
    chunks = []
    for case in plancherel.CASE_IDS:
        for f in ("1", "2"):
            for fmt in ("text", "json"):
                argv = ["mu", "--case", case, "--residue-degree", f, "--format", fmt]
                code, out, err = run(capsys, *argv)
                assert code == EXIT_OK and err == ""
                chunks.append(f"== {' '.join(argv)} ==\n{out}")
    assert len(chunks) == 24
    assert "".join(chunks).encode() == fixture


def test_check_output_matches_fixture_byte_for_byte(capsys):
    # the JSON suite at seeds 0, 1 and 2, then the text suite
    fixture = (Path(__file__).resolve().parent / "data" / "check_all.txt").read_bytes()
    assert hashlib.sha256(fixture).hexdigest() == (
        "c1b04782d20d14e59ca18ec27b768917ca71c3db743b0a65797e39c3e5c31df3"
    )
    chunks = []
    for argv in [["check", "--all", "--format", "json", "--seed", s] for s in "012"] + [["check", "--all"]]:
        code, out, err = run(capsys, *argv)
        assert code == EXIT_OK and err == ""
        chunks.append(f"== {' '.join(argv)} ==\n{out}")
    assert "".join(chunks).encode() == fixture


def test_refused_good_map_fails_the_matching_check(monkeypatch, capsys):
    def refuse(m1, m2, point_map):
        return extquot.PropertyVerdict(False, "refused by the test")

    monkeypatch.setattr(extquot, "check_property", refuse)
    code, out, err = run(capsys, "check", "--part", "matching")
    assert code == EXIT_CHECK_FAILED
    assert out.startswith("[FAIL] extquot/matching-corpus: good map refused on")
    assert "refusing to construct the matching: refused by the test" in out
    assert err == ""


def test_faulty_transfer_fails_the_matching_check(monkeypatch, capsys):
    # check pairs each good map once, through matching_bijection
    def faulty(m1, m2, point_map):
        raise extquot.ExtQuotError("transfer is not a bijection onto the target")

    monkeypatch.setattr(extquot, "matching_bijection", faulty)
    code, out, _ = run(capsys, "check", "--part", "matching")
    assert code == EXIT_CHECK_FAILED
    assert out.startswith("[FAIL] extquot/matching-corpus: good map refused on")
    assert "transfer is not a bijection onto the target" in out


def test_an_accept_all_property_check_fails_the_matching_check(monkeypatch, capsys):
    # the injected bad maps are built, not sampled through check_property, so
    # a check that accepts everything lets one through instead of hanging:
    # the swapped map on the first model of three points
    code, out, _ = run(capsys, "check", "--part", "matching")
    assert code == EXIT_OK
    assert out.startswith("[ok ] extquot/matching-corpus: 60 paired models, torsion 2..12, "
                          "85 injected bad maps rejected\n")

    def accept(m1, m2, point_map):
        return extquot.PropertyVerdict(True, "", None)

    monkeypatch.setattr(extquot, "check_property", accept)
    code, out, _ = run(capsys, "check", "--part", "matching")
    assert code == EXIT_CHECK_FAILED
    assert out.startswith("[FAIL] extquot/matching-corpus: non-equivariant map accepted on "
                          "<FiniteOrbitModel |X|=3 Gamma=1>\n")


def test_a_symmetry_blind_property_check_fails_the_matching_check(monkeypatch, capsys):
    # shifting a good map by one keeps translation equivariance and breaks
    # only the inversion's
    honest = extquot.check_property

    def blind(m1, m2, point_map):
        verdict = honest(m1, m2, point_map)
        if verdict.reason == "symmetry equivariance fails":
            return extquot.PropertyVerdict(True, "", None)
        return verdict

    monkeypatch.setattr(extquot, "check_property", blind)
    code, out, _ = run(capsys, "check", "--part", "matching")
    assert code == EXIT_CHECK_FAILED
    assert out.startswith("[FAIL] extquot/matching-corpus: non-equivariant map accepted on")


def test_a_target_short_of_one_point_fails_the_matching_check(monkeypatch, capsys):
    # the pairing reads the source's quotient first and the target's second;
    # dropping one point from every target must trip the bijection check
    honest = extquot._quotient_pairs
    calls = []

    def spoiled(m):
        calls.append(m)
        return honest(m)[:-1] if len(calls) % 2 == 0 else honest(m)

    monkeypatch.setattr(extquot, "_quotient_pairs", spoiled)
    code, out, _ = run(capsys, "check", "--part", "matching")
    assert code == EXIT_CHECK_FAILED
    assert "[FAIL] extquot/matching-corpus" in out
    assert "transfer is not a bijection onto the target" in out


@pytest.mark.parametrize("word", ["bogus", "tabels"])
def test_unknown_command_lists_the_commands(capsys, word):
    with pytest.raises(SystemExit) as exc:
        main([word, "--format", "json"])
    assert exc.value.code == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: unknown command '{word}' (choose from tables, check, mu, hecke, extquot)\n"
    )


def test_unknown_flag_before_a_command_keeps_its_message(capsys):
    with pytest.raises(SystemExit):
        main(["--bogus"])
    assert capsys.readouterr().err == "error: unrecognized argument --bogus\n"


# every flag of every command with its default; "case" and "weights" are required
DEFAULTS = {
    "tables": {"family": "all", "format": "json"},
    "check": {"all": False, "part": (), "format": "text", "seed": 0, "degree_bound": 3,
              "allowed_lusztig": None},
    "mu": {"residue_degree": 2, "format": "text"},
    "hecke": {"degree_bound": 3, "format": "text"},
    "extquot": {"model": None, "torsion_level": 6, "gamma": "inversion", "offset": 0, "format": "json"},
}


@pytest.mark.parametrize(
    "argv,given",
    [
        (["tables"], {}),
        (["tables", "--family", "short-positive", "--format", "text"],
         {"family": "short-positive", "format": "text"}),
        (["tables", "--family=long-positive", "--family", "long-depth-zero"], {"family": "long-depth-zero"}),
        (["tables", "--fam", "short-depth-zero", "--form=text"],
         {"family": "short-depth-zero", "format": "text"}),
        (["check"], {}),
        (["check", "--all", "--format=json"], {"all": True, "format": "json"}),
        (["check", "--part", "tables", "--part=hecke", "--part", "tables"],
         {"part": ("tables", "hecke", "tables")}),
        (["check", "--seed", "-1", "--degree", "5"], {"seed": -1, "degree_bound": 5}),
        (["check", "--allowed-lusztig=a.json", "--all"], {"allowed_lusztig": "a.json", "all": True}),
        (["mu", "--case", "long-I"], {"case": "long-I"}),
        (["mu", "--case=short-II", "--residue-degree", "1", "--format", "json"],
         {"case": "short-II", "residue_degree": 1, "format": "json"}),
        (["hecke", "--weights", "3,1"], {"weights": "3,1"}),
        (["hecke", "--weights", "-1,2", "--degree-bound=8", "--format", "json"],
         {"weights": "-1,2", "degree_bound": 8, "format": "json"}),
        (["extquot", "--model", "m.json", "--torsion-level", "9", "--gamma", "shift-half", "--offset", "-7",
          "--format", "text"],
         {"model": "m.json", "torsion_level": 9, "gamma": "shift-half", "offset": -7, "format": "text"}),
        (["extquot", "--tors", "4"], {"torsion_level": 4}),
        (["extquot", "--torsion-level=5", "--gam", "identity"], {"torsion_level": 5, "gamma": "identity"}),
    ],
)
def test_option_table_parses_every_flag(argv, given):
    command, opts = cli._parse(argv)
    assert command == argv[0]
    assert opts == {**DEFAULTS[command], **given}


@pytest.mark.parametrize(
    "argv",
    [
        ["hecke", "--weights", "3,1", "--seed", "1"],
        ["tables", "--f", "json"],
        ["tables", "--family", "bogus"],
        ["mu", "--case", "long-V"],
        ["check", "--seed", "abc"],
        ["mu", "--case", "long-I", "--residue-degree", "3"],
        ["tables", "--format"],
        ["mu", "--format", "json"],
        ["hecke"],
        ["--config"],
        ["--config", "run.cfg"],
        [],
        ["bogus"],
        ["tables", "extra"],
        ["check", "--all=yes"],
        ["tables", "--config", "run.cfg"],
        ["check", "--golden-dir", "x"],
        ["extquot", "--size", "4"],
        ["--config", "run.cfg", "tables"],
    ],
    ids=[
        "unknown-flag", "ambiguous-prefix", "bad-choice", "bad-case", "bad-int", "bad-int-choice",
        "missing-value", "missing-required", "missing-weights", "missing-config-value", "no-command",
        "empty", "unknown-command", "stray-argument", "switch-with-value", "config-after-command",
        "no-golden-dir", "no-size-alias", "no-config",
    ],
)
def test_malformed_command_line_is_one_error_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    if "--config" in argv:  # flags are the only input path
        assert out.err == "error: unrecognized argument --config\n"


@pytest.mark.parametrize(
    "command,flags",
    [
        (None, set()),
        ("tables", {"--family", "--format"}),
        ("check", {"--all", "--part", "--format", "--seed", "--degree-bound", "--allowed-lusztig"}),
        ("mu", {"--case", "--residue-degree", "--format"}),
        ("hecke", {"--weights", "--degree-bound", "--format"}),
        ("extquot", {"--model", "--torsion-level", "--gamma", "--offset", "--format"}),
    ],
)
def test_help_names_every_command_and_flag(capsys, command, flags):
    assert {name for flag in cli._COMMANDS[command][2].values() for name in flag[0]} == flags
    with pytest.raises(SystemExit) as exc:
        main(["-h"] if command is None else [command, "--help"])
    assert exc.value.code == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("usage: g2hecke")
    entries = [line.split() for line in out.splitlines() if line[:2] == "  " and line[2:3] != " "]
    assert {w.rstrip(",") for words in entries for w in words if w.startswith("--")} == flags
    assert ("\noptions:\n" in out) == bool(flags)
    if command is None:
        assert {words[0] for words in entries} - flags == set(DEFAULTS)


def test_check_all_and_part_exclude_each_other(capsys):
    code, out, err = run(capsys, "check", "--all", "--part", "tables")
    assert code == EXIT_USAGE and out == ""
    assert err == "error: --all and --part exclude each other\n"


def test_flag_values_that_start_with_a_dash(capsys):
    # the value goes to the program's own check, not to the option parser
    code, out, err = run(capsys, "hecke", "--weights", "-1,2")
    assert code == EXIT_USAGE and out == ""
    assert err == "error: weight labels must be nonnegative integers\n"
    # x -> -7 - x and x -> 2 - x are the same inversion mod 9
    _, minus_seven, _ = run(capsys, "extquot", "--torsion-level", "9", "--offset", "-7")
    _, two, _ = run(capsys, "extquot", "--torsion-level", "9", "--offset", "2")
    assert minus_seven == two and json.loads(two)["count"] == 6
    code, out, _ = run(capsys, "check", "--part", "matching", "--seed", "-1", "--format", "json")
    assert code == EXIT_OK and json.loads(out)["seed"] == -1


def test_a_check_part_that_raises_fails_alone(monkeypatch, capsys):
    # a fault that makes the Hecke harness raise is a failed result, not a
    # traceback: the other parts still report and the exit code is 1
    def broken(y):
        raise TypeError("no commutation quotient")

    monkeypatch.setattr(hecke, "_TABLE", hecke._ProductTable())
    monkeypatch.setattr(hecke, "_commutation_quotient", broken)
    code, out, err = run(capsys, "check", "--all", "--format", "json")
    assert code == EXIT_CHECK_FAILED and err == ""
    doc = strict_json(out)
    error = {"name": "hecke/error", "ok": False, "detail": "raised TypeError: no commutation quotient"}
    assert [r for r in doc["results"] if not r["ok"]] == [error] and doc["failures"] == 1
    parts = [r["name"].split("/")[0] for r in doc["results"]]
    assert parts == ["tables"] * 4 + ["hecke"] + ["blocks"] * 4 + ["extquot"] * 2
    code, out, _ = run(capsys, "check", "--part", "hecke")
    assert code == EXIT_CHECK_FAILED
    assert out == "[FAIL] hecke/error: raised TypeError: no commutation quotient\n1 failures\n"


def test_a_usage_error_raised_inside_a_part_fails_that_part_alone(monkeypatch, capsys):
    # HeckeError is what bad input raises, but raised from inside the harness it
    # is a fault of the hecke part: only bad command-line input ends the suite before any part
    def broken(y):
        raise hecke.HeckeError("internal")

    monkeypatch.setattr(hecke, "_TABLE", hecke._ProductTable())
    monkeypatch.setattr(hecke, "_commutation_quotient", broken)
    code, out, err = run(capsys, "check", "--all", "--format", "json")
    assert code == EXIT_CHECK_FAILED and err == ""
    doc = strict_json(out)
    error = {"name": "hecke/error", "ok": False, "detail": "raised HeckeError: internal"}
    assert [r for r in doc["results"] if not r["ok"]] == [error]
    parts = [r["name"].split("/")[0] for r in doc["results"]]
    assert parts == ["tables"] * 4 + ["hecke"] + ["blocks"] * 4 + ["extquot"] * 2


def test_a_missing_packaged_golden_table_fails_the_tables_part_alone(monkeypatch, capsys):
    # the packaged tables are read inside the tables part, so a missing file is
    # that part's fault: no traceback, and the other four parts still report
    def missing(family):
        raise FileNotFoundError(f"no golden table for {family}")

    monkeypatch.setattr(blocks, "_read_golden", missing)
    code, out, err = run(capsys, "check", "--all", "--format", "json")
    assert code == EXIT_CHECK_FAILED and err == ""
    doc = strict_json(out)
    error = {"name": "tables/error", "ok": False,
             "detail": "raised FileNotFoundError: no golden table for long-depth-zero"}
    assert [r for r in doc["results"] if not r["ok"]] == [error] and doc["failures"] == 1
    names = [r["name"] for r in doc["results"]]
    assert [n.split("/")[0] for n in names] == ["tables"] + ["hecke"] * 2 + ["blocks"] * 4 + ["extquot"] * 2
    assert names[-1] == "extquot/matching-corpus"


def test_a_bad_degree_bound_ends_check_before_any_part(capsys):
    # the bound is refused whatever parts are selected, not only when the hecke part runs
    for parts in (["--all"], ["--part", "tables"], ["--part", "blocks"]):
        for bound in ("0", "33", "999", "-5"):
            code, out, err = run(capsys, "check", *parts, "--degree-bound", bound)
            assert code == EXIT_USAGE and out == ""
            assert err == "error: degree bound must be between 1 and 32\n"


def test_the_measure_oracle_runs_once_per_distinct_measure(monkeypatch, capsys):
    # the oracle reads only a measure's factors; the rows with a measure case use 4 pairs of them
    honest = plancherel.agrees_with_oracle
    measures = []

    def counting(m):
        measures.append((m.num_factors, m.den_factors))
        return honest(m)

    monkeypatch.setattr(plancherel, "agrees_with_oracle", counting)
    code, _, _ = run(capsys, "check", "--part", "blocks")
    assert code == EXIT_OK
    assert len(measures) == len(set(measures)) == 4


def test_shifted_labels_fail_check_without_a_lusztig_set(monkeypatch, capsys):
    # every label pair one higher: the tables diff sees it on every family, and
    # the blocks part still fails where a shifted pair breaks the Weyl isomorphism
    honest = blocks.labels
    monkeypatch.setattr(blocks, "labels", lambda m: WeightFunction(*(x + 1 for x in honest(m).pair())))
    monkeypatch.setattr(blocks, "_CACHE", {})
    code, out, _ = run(capsys, "check", "--all", "--format", "json")
    assert code == EXIT_CHECK_FAILED
    failed = [r["name"] for r in strict_json(out)["results"] if not r["ok"]]
    assert [n for n in failed if n.startswith("tables/")] == [f"tables/{f}" for f in blocks.FAMILIES]
    code, out, _ = run(capsys, "check", "--part", "blocks")
    assert code == EXIT_CHECK_FAILED
    for family in ("long-positive", "short-positive"):
        assert f"[FAIL] blocks/{family}: weyl-iso False, labels True" in out.splitlines()


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("tables", "--family", "all", "--format", "json"),
         "db66599bcc9a274bf6906c29d926bbb124bceef39609d114aa97aee2f5e2de25"),
        (("hecke", "--weights", "3,1", "--format", "json"),
         "af9410189aaa78fd0729f8d826277cc0056f676ce57c8ab8c1ee9352b49e1d57"),
        (("extquot", "--torsion-level", "1000", "--gamma", "shift-half", "--format", "json"),
         "c718a69f3c6c97f884b2079f9d6906223c7aa6805ebbdb4e5abf8192cefa1f83"),
    ],
    ids=["tables", "hecke", "extquot"],
)
def test_json_output_matches_pinned_bytes(capsys, argv, digest):
    # the bytes json.dumps(indent=2) wrote before the package had its own writer
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if argv[0] == "tables":
        assert len(out.encode()) == 24790


_TEXT = ["", "plain", '"', "\\", "\b\f\n\r\t", "\x00\x1f\x7f", " ~", "é", " ", "\ud800", "￿",
         "\U0001f600", "\U0010ffff", "a\"b\\c\nd\U0001d11e"]


def _random_document(rng, depth=0):
    kind = rng.randrange(9 if depth < 4 else 5)
    if kind == 0:
        return rng.choice(_TEXT) + "".join(chr(rng.randrange(0x110000)) for _ in range(rng.randrange(3)))
    if kind == 1:
        return rng.choice([0, -1, 7, 10 ** 40, -(10 ** 40), rng.randrange(-(2 ** 70), 2 ** 70)])
    if kind == 2:
        return rng.choice([0.0, -0.0, 1e300, -1e-300, 0.1, 2.5, rng.uniform(-1e6, 1e6)])
    if kind == 3:
        return rng.choice([True, False, None])
    if kind == 4:
        return rng.choice([[], (), {}])
    items = [_random_document(rng, depth + 1) for _ in range(rng.randrange(1, 4))]
    if kind == 5:
        return items
    if kind == 6:
        return tuple(items)
    keys = [rng.choice(_TEXT + ["key", 3, -2.5, True, False, None]) for _ in items]
    return dict(zip(keys, items))


def test_print_json_writes_what_json_dumps_writes(capsys):
    rng = random.Random(2028)
    for _ in range(400):
        doc = _random_document(rng)
        cli._print_json(doc)
        assert capsys.readouterr().out == json.dumps(doc, indent=2, allow_nan=False) + "\n", doc
    for bad in ({"k": object()}, {object(): 1}, [{1, 2}]):
        with pytest.raises(TypeError):
            cli._print_json(bad)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_print_json_refuses_non_finite_numbers(capsys, value):
    for doc in (value, [1, value], {"k": value}, {value: 1}):
        with pytest.raises(ValueError):
            cli._print_json(doc)
    assert capsys.readouterr().out == ""
