import json
import re

import pytest

from otkit import cli
from otkit.cli import main
from otkit.config import PrecisionError
from otkit.tables import (load_expected, regen_minvol, regen_prop5index,
                          regen_volumebounds)


def test_expected_data_provenance():
    data = load_expected()
    assert set(data) == {"computeJ", "prop5index", "volumebounds", "minvol",
                         "quartics"}
    for cell in data["computeJ"]["F"].values():
        assert cell["src"] == "published"
        assert cell["convention"] in ("tp", "alt")


def test_regen_prop5index():
    checks = regen_prop5index()
    assert checks and all(c.ok for c in checks)


def test_regen_volumebounds():
    checks = regen_volumebounds()
    assert checks and all(c.ok for c in checks)
    by_cell = {c.cell: c for c in checks}
    assert by_cell["torsion_3"].got == "2856582"


def test_regen_minvol():
    checks = regen_minvol()
    assert all(c.ok for c in checks)
    # every row recomputed: disc, volume and second-volume bound for s = 1..5
    assert [c.cell for c in checks] == [f"{cell}_s{s}" for s in range(1, 6)
                                        for cell in ("disc1st", "vol1st", "v2nd")]
    # for s = 4 and 5 the second-volume bound is below the first volume
    notes = {c.cell: c.note for c in checks if c.cell.startswith("v2nd")}
    assert notes == {"v2nd_s1": "", "v2nd_s2": "", "v2nd_s3": "",
                     "v2nd_s4": "below vol1st: does not prove the minimum",
                     "v2nd_s5": "below vol1st: does not prove the minimum"}


def test_cli_field_text(capsys):
    rc = main(["field", "T^3 + T^2 - 1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0.3371464457" in out
    assert "J norm         1" in out


@pytest.mark.parametrize("poly", [
    "T^3 - T + 6",
    # (T + 100000000007)(T^2 + 5): a constant term above 10^10
    "T^3 + 100000000007*T^2 + 5*T + 500000000035",
])
def test_cli_field_reducible(capsys, poly):
    rc = main(["field", poly])
    err = json.loads(capsys.readouterr().err)
    assert rc == 2 and err["exit_code"] == 2
    assert "not irreducible" in err["error"]


def test_cli_field_malformed(capsys):
    rc = main(["field", "T^^3"])
    assert rc == 1


@pytest.mark.parametrize("argv", [
    pytest.param(["field", "2*T^3 + 1"], id="2*T^3 + 1"),           # not monic
    pytest.param(["field", "T^3 - 3*T + 1"], id="T^3 - 3*T + 1"),   # totally real
    pytest.param(["field", "T^6 + T + 1"], id="T^6 + T + 1"),       # no real place
    pytest.param(["units", "T^4 + 1"], id="units T^4 + 1"),         # no real place
    pytest.param(["field", "T^3 - T + 1", "--precision", "10"], id="--precision 10"),
    pytest.param(["mcvol", "T^3 - T + 1", "--samples", "10"], id="mcvol --samples 10"),
    pytest.param(["field", "T^3 - T + 1", "--mc", "--samples", "10"],
                 id="field --mc --samples 10"),
    # usage errors: exit 1 with the JSON error, not argparse's exit 2
    pytest.param(["field"], id="field without poly"),
    pytest.param(["field", "T^3 - T + 1", "--format", "xml"], id="--format xml"),
    pytest.param(["scan", "--s", "4", "--disc-max", "9"], id="scan --s 4"),
    # options a command does not read
    pytest.param(["scan", "--s", "1", "--disc-max", "50", "--bound", "3"],
                 id="scan --bound"),
    pytest.param(["field", "T^3 - T + 1", "--bound", "3"], id="field --bound"),
    pytest.param(["inoue", "5", "--samples", "2000"], id="inoue --samples"),
    pytest.param(["inoue", "0"], id="inoue 0"),
    pytest.param(["volume", "T^3 - T + 2", "--seed", "3"], id="volume --seed"),
    pytest.param(["paper-tables", "prop5index", "--format", "json"],
                 id="paper-tables --format"),
    pytest.param(["field", "T^3 - T + 1", "--samples", "10"],
                 id="field --samples 10"),
    # not integers: the message gives the reason, not a private type name
    pytest.param(["field", "T^3 - T + 1", "--precision", "abc"], id="--precision abc"),
    pytest.param(["inoue", "abc"], id="inoue abc"),
    pytest.param(["mcvol", "T^3 - T + 1", "--samples", "1e6"], id="mcvol --samples 1e6"),
])
def test_cli_field_rejects_with_json_error(capsys, argv):
    rc = main(argv)
    err = json.loads(capsys.readouterr().err)
    assert rc == 1 and err["exit_code"] == 1 and err["error"]
    assert not re.search(r"\b_\w", err["error"])


def test_cli_out_of_range_options_keep_the_reason(capsys):
    assert main(["field", "T^3 - T + 1", "--precision", "10"]) == 1
    assert "precision must be >= 64 bits" in json.loads(capsys.readouterr().err)["error"]
    assert main(["mcvol", "T^3 - T + 1", "--samples", "10"]) == 1
    assert "at least 10^3 samples" in json.loads(capsys.readouterr().err)["error"]


def test_cli_precision_error_is_json(capsys, monkeypatch):
    def undecided(*args, **kwargs):
        raise PrecisionError("undecidable even at 8192 bits")

    monkeypatch.setattr(cli, "unit_group", undecided)
    rc = main(["units", "T^3 - T + 5"])
    err = json.loads(capsys.readouterr().err)
    assert rc == 1 and err == {"error": "undecidable even at 8192 bits", "exit_code": 1}


def test_cli_field_json_large(capsys):
    rc = main(["field", "T^3 + 2*T + 2000", "--format", "json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["J"]["factors"][-1] == ["1649120827309715616889", 1]
    assert report["torsion"]["order"] == report["J"]["norm"]
    assert report["units"]["certified_index_bound"] == 1


def test_cli_certified_only_rejects_unproven_floor(capsys):
    # degree 6 with two complex places: no proven regulator floor applies
    assert main(["units", "T^6 - T - 1", "--certified-only"]) == 3
    # the s = 4 minimum (unit rank 4) has one and certifies
    assert main(["field", "T^6 - T^5 - 2*T^4 + 3*T^3 - T^2 - 2*T + 1",
                 "--certified-only"]) == 0


def test_cli_units_and_jideal(capsys):
    rc = main(["units", "T^3 - T + 5", "--format", "json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["certified_index_bound"] == 1
    assert data["J_norm"] == "5"
    rc = main(["jideal", "T^3 - 2*T - 7", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["norm"] == "1526"
    assert data["factorization_complete"]


def test_cli_h1_roundtrip(tmp_path, capsys):
    pres = tmp_path / "p.json"
    rc = main(["h1", "--poly", "T^3 - T + 2", "--save-presentation", str(pres),
               "--format", "json"])
    assert rc == 0
    first = json.loads(capsys.readouterr().out)
    assert first["torsion_order"] == "4"
    rc = main(["h1", "--presentation", str(pres), "--format", "json"])
    second = json.loads(capsys.readouterr().out)
    assert rc == 0 and second == first
    rc = main(["h1", "--presentation", str(tmp_path / "missing.json")])
    assert rc == 1


@pytest.mark.parametrize("argv", [
    ["h1", "--poly", "T^3 - T + 2", "--save-presentation", "{missing}/p.json"],
    ["paper-tables", "prop5index", "--out", "{missing}/x.csv"],
], ids=["h1 --save-presentation", "paper-tables --out"])
def test_cli_unwritable_output_is_json(tmp_path, capsys, argv):
    missing = tmp_path / "missing"
    rc = main([a.format(missing=missing) for a in argv])
    err = json.loads(capsys.readouterr().err)
    assert rc == 1 and err["exit_code"] == 1 and str(missing) in err["error"]


def test_cli_h1_malformed_presentation(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["h1", "--presentation", str(bad)]) == 1
    bad.write_text(json.dumps({"n": 2, "matrices": [[[2, 0], [0, 1]]]}))
    assert main(["h1", "--presentation", str(bad)]) == 1


def test_cli_reconstruct(tmp_path, capsys):
    pres = tmp_path / "p.json"
    main(["h1", "--poly", "T^3 + T^2 - 1", "--save-presentation", str(pres),
          "--format", "json"])
    capsys.readouterr()
    rc = main(["reconstruct", str(pres), "--source", "T^3 + T^2 - 1",
               "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["round_trip"]["disc_match"]
    assert data["round_trip"]["regulator_overlap"]
    assert data["cubic_galois_closure_degree"] == 6


def test_cli_reconstruct_non_primitive(tmp_path, capsys):
    pres = tmp_path / "ident.json"
    pres.write_text(json.dumps(
        {"n": 3, "matrices": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]}))
    rc = main(["reconstruct", str(pres), "--format", "json"])
    assert rc == 4
    assert json.loads(capsys.readouterr().out)["primitive"] is False


def test_cli_inoue_and_bound(capsys):
    rc = main(["inoue", "5", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0 and data["h1"]["torsion_factors"] == ["5"]
    rc = main(["bound", "T^3 + 8*T - 2", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0 and data["bound_holds"] and data["torsion_order"] == "2"


def test_cli_scan_csv(capsys):
    rc = main(["scan", "--s", "1", "--coeff-bound", "2", "--disc-max", "50",
               "--format", "csv"])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert out[0].startswith("poly,disc,index,regulator,certified")
    assert any("-23" in line for line in out[1:])


def test_cli_scan_empty(capsys):
    rc = main(["scan", "--s", "1", "--coeff-bound", "1", "--disc-max", "5"])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0 and len(out) == 1  # header only


def test_cli_paper_tables(tmp_path, capsys):
    out = tmp_path / "t.csv"
    rc = main(["paper-tables", "prop5index", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("table,cell,expected,got,status")
    assert all(",ok," in line or line.startswith("table,") for line in lines)


def test_cli_mcvol(capsys):
    rc = main(["mcvol", "T^3 - T + 1", "--samples", "20000", "--seed", "11",
               "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["agreement_3se"]
    assert data["monte_carlo"]["samples"] == 20000


def test_cli_field_with_mc(capsys):
    rc = main(["field", "T^3 - T + 1", "--mc", "--samples", "20000",
               "--seed", "2", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    vols = data["volume"]
    assert set(vols) == {"closed_form", "determinant_path", "monte_carlo"}
    assert vols["monte_carlo"]["seed"] == 2


def test_cli_determinism(capsys):
    assert main(["volume", "T^3 - T + 2", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["volume", "T^3 - T + 2", "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_cli_precision_reaches_the_computation(capsys):
    def regulator_rad(*extra):
        assert main(["units", "T^3 - T + 5", "--format", "json", *extra]) == 0
        return float(json.loads(capsys.readouterr().out)["regulator"]["rad"])

    assert regulator_rad("--precision", "320") < regulator_rad()


def test_precision_sets_and_restores_interval_context():
    from mpmath import iv

    from otkit.config import precision, working_precision

    before = working_precision()
    assert before == iv.prec
    with precision(320):
        assert working_precision() == iv.prec == 320
        with precision(64):
            assert iv.prec == 64
        assert iv.prec == 320
    assert iv.prec == before
    with pytest.raises(ValueError):
        with precision(63):
            pass
    assert iv.prec == before
