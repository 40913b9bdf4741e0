import hashlib
import json
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from g2hecke import blocks, cli, extquot, plancherel
from g2hecke.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, main


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


def test_check_fails_on_tampered_golden(tmp_path, capsys):
    src = resources.files("g2hecke").joinpath("data/tables")
    for fam in ("long_depth_zero", "long_positive", "short_depth_zero", "short_positive"):
        shutil.copy(str(src / f"{fam}.json"), tmp_path / f"{fam}.json")
    doc = json.loads((tmp_path / "long_depth_zero.json").read_text())
    doc["rows"][0]["classification"]["W_O"] = "trivial"
    (tmp_path / "long_depth_zero.json").write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check", "--part", "tables", "--golden-dir", str(tmp_path))
    assert code == EXIT_CHECK_FAILED
    assert "FAIL" in out
    (tmp_path / "short_positive.json").unlink()
    code, _, err = run(capsys, "check", "--part", "tables", "--golden-dir", str(tmp_path))
    assert code == EXIT_USAGE
    assert err.startswith("error:")


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
    assert "[ok] quadratic" in out
    code, _, err = run(capsys, "hecke", "--weights", "nope")
    assert code == EXIT_USAGE


HECKE_JSON_CHECKS = [
    "quadratic", "quadratic-s1", "bernstein-exact-division", "group-algebra-degeneration", "representation",
]


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
    [
        ["--config", "{file}", "tables"],
        ["extquot", "--model", "{file}"],
        ["check", "--part", "blocks", "--allowed-lusztig", "{file}"],
        ["check", "--part", "tables", "--golden-dir", "{dir}"],
    ],
    ids=["config", "model", "allowed-lusztig", "golden-dir"],
)
def test_input_file_not_utf8(tmp_path, capsys, argv):
    bad = tmp_path / "long_depth_zero.json"
    bad.write_bytes(b"\xff\xfe")
    code, _, err = run(capsys, *(a.format(file=bad, dir=tmp_path) for a in argv))
    assert code == EXIT_USAGE
    assert err.startswith("error: unreadable") and err.count("\n") == 1


def test_config_file_overrides_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = short-depth-zero\nformat = json\n")
    code, out, _ = run(capsys, "--config", str(cfg), "tables", "--family", "long-positive", "--format", "text")
    assert code == EXIT_OK
    doc = json.loads(out)  # json because config overrides the flag
    assert doc["tables"][0]["family"] == "short-depth-zero"


def test_config_errors(tmp_path, capsys):
    code, _, err = run(capsys, "--config", str(tmp_path / "missing.cfg"), "tables")
    assert code == EXIT_USAGE
    bad = tmp_path / "bad.cfg"
    bad.write_text("no equals sign here\n")
    code, _, err = run(capsys, "--config", str(bad), "tables")
    assert code == EXIT_USAGE
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("mystery = 1\n")
    code, _, err = run(capsys, "--config", str(unknown), "tables")
    assert code == EXIT_USAGE
    # config values pass the same type and choice checks as flags
    for entry, command in (("seed = abc", "check"), ("format = xml", "tables")):
        invalid = tmp_path / "invalid.cfg"
        invalid.write_text(entry + "\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(invalid), command])
        assert exc.value.code == EXIT_USAGE


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


def test_check_blocks_reads_the_lusztig_pairs_once(monkeypatch, capsys):
    from g2hecke import hecke

    honest = hecke.default_lusztig_allowed
    reads = []

    def counting():
        reads.append(1)
        return honest()

    monkeypatch.setattr(hecke, "default_lusztig_allowed", counting)
    code, out, _ = run(capsys, "check", "--part", "blocks")
    assert code == EXIT_OK and "lusztig True" in out
    assert len(reads) == 1


def test_check_suite_reads_each_golden_table_once(monkeypatch):
    # the tables diff and the default Lusztig set share one memoized reader
    honest = blocks._read_golden
    reads = []

    def counting(family):
        reads.append(family)
        return honest(family)

    monkeypatch.setattr(blocks, "_GOLDEN", {})
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
        "2a85b47cf4904d149f8e382ed828bd409bb5f2c0e0e8f6bfb1403cbb3f50d67a"
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
              "allowed_lusztig": None, "golden_dir": None},
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
        (["check", "--allowed-lusztig", "a.json", "--golden-dir=gold"],
         {"allowed_lusztig": "a.json", "golden_dir": "gold"}),
        (["mu", "--case", "long-I"], {"case": "long-I"}),
        (["mu", "--case=short-II", "--residue-degree", "1", "--format", "json"],
         {"case": "short-II", "residue_degree": 1, "format": "json"}),
        (["hecke", "--weights", "3,1"], {"weights": "3,1"}),
        (["hecke", "--weights", "-1,2", "--degree-bound=8", "--format", "json"],
         {"weights": "-1,2", "degree_bound": 8, "format": "json"}),
        (["extquot", "--model", "m.json", "--torsion-level", "9", "--gamma", "shift-half", "--offset", "-7",
          "--format", "text"],
         {"model": "m.json", "torsion_level": 9, "gamma": "shift-half", "offset": -7, "format": "text"}),
        (["extquot", "--size", "4"], {"torsion_level": 4}),
        (["extquot", "--size=5", "--gam", "identity"], {"torsion_level": 5, "gamma": "identity"}),
    ],
)
def test_option_table_parses_every_flag(argv, given):
    command, opts = cli._parse(argv)
    assert command == argv[0]
    assert opts == {**DEFAULTS[command], **given}


def test_config_values_replace_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    # family is a tables flag, so check skips it
    cfg.write_text("part = blocks\nformat = json\nfamily = long-positive\n")
    argv = ["check", "--part", "tables", "--part", "hecke", "--format", "text"]
    for config in (["--config", str(cfg)], [f"--config={cfg}"], ["--conf", str(cfg)]):
        command, opts = cli._parse(config + argv)
        assert command == "check"
        assert opts == {**DEFAULTS["check"], "part": ("blocks",), "format": "json"}


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
    ],
    ids=[
        "unknown-flag", "ambiguous-prefix", "bad-choice", "bad-case", "bad-int", "bad-int-choice",
        "missing-value", "missing-required", "missing-weights", "missing-config-value", "no-command",
        "empty", "unknown-command", "stray-argument", "switch-with-value", "config-after-command",
    ],
)
def test_malformed_command_line_is_one_error_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


@pytest.mark.parametrize(
    "command,flags",
    [
        (None, {"--config"}),
        ("tables", {"--family", "--format"}),
        ("check", {"--all", "--part", "--format", "--seed", "--degree-bound", "--allowed-lusztig",
                   "--golden-dir"}),
        ("mu", {"--case", "--residue-degree", "--format"}),
        ("hecke", {"--weights", "--degree-bound", "--format"}),
        ("extquot", {"--model", "--torsion-level", "--size", "--gamma", "--offset", "--format"}),
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
