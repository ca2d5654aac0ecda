import json

import pytest

from bcode import formats
from bcode.bitmatrix import BitMatrix
from bcode.cli import main
from bcode.construct import general_bcc, minimal_bcc


def run_cli(*args):
    return main(list(args))


def test_construct_writes_readable_code(tmp_path, capsys):
    out = tmp_path / "c.bcode"
    assert run_cli("construct", "--kind", "bcc", "--k", "2", "--r", "4", "--n", "8",
                   "-o", str(out)) == 0
    printed = capsys.readouterr().out
    assert "rows: 6  columns: 8" in printed
    assert "PASS" in printed
    doc = formats.load(out)
    assert doc.matrix == general_bcc(2, 4, 8)
    assert doc.kind == "BCC"


def test_construct_partition_and_random(tmp_path, capsys):
    out = tmp_path / "a.bcode"
    assert run_cli("construct", "--kind", "partition", "--m", "12", "--n", "12",
                   "-o", str(out)) == 0
    assert formats.load(out).matrix == BitMatrix.identity(12)

    rnd = tmp_path / "r.bcode"
    assert run_cli("construct", "--kind", "random", "--m", "6", "--n", "12",
                   "--row-weight", "4", "--seed", "5", "-o", str(rnd)) == 0
    printed = capsys.readouterr().out
    assert "seed: 5" in printed


def test_construct_rejects_impossible_parameters(capsys):
    assert run_cli("construct", "--kind", "bcc", "--k", "2", "--r", "2", "--n", "3") == 2
    assert "need n >= k + r" in capsys.readouterr().err


def test_construct_resource_limit_is_status_three(capsys):
    assert run_cli("construct", "--kind", "minimal-bdc", "--k", "12", "--r", "12") == 3
    assert run_cli("construct", "--kind", "partition", "--m", "32769", "--n", "32769") == 3
    assert run_cli("construct", "--kind", "bcc", "--k", "32767", "--r", "1",
                   "--n", "32768") == 3
    err = capsys.readouterr().err
    assert err.count("error:") == 3 and "entries" in err
    assert "Traceback" not in err


def test_verify_pass_and_fail(tmp_path, capsys):
    good = tmp_path / "good.bcode"
    formats.save(good, minimal_bcc(2, 2), "BCC", 2, 2)
    assert run_cli("verify", "--kind", "bcc", "--k", "2", "--r", "2", str(good)) == 0
    assert "PASS" in capsys.readouterr().out

    bad = tmp_path / "bad.bcode"
    formats.save(bad, BitMatrix.identity(3), "RAW", 0, 0)
    assert run_cli("verify", "--kind", "bcc", "--k", "2", "--r", "1", str(bad)) == 1
    printed = capsys.readouterr().out
    assert "FAIL" in printed and "columns" in printed


def test_verify_rejects_bad_inputs(tmp_path, capsys):
    mangled = tmp_path / "mangled.bcode"
    mangled.write_text("not a bcode file\n")
    assert run_cli("verify", "--kind", "bdc", "--k", "1", "--r", "1", str(mangled)) == 2
    good = tmp_path / "good.bcode"
    formats.save(good, BitMatrix.identity(3))
    assert run_cli("verify", "--kind", "bdc", "--k", "0", "--r", "1", str(good)) == 2
    assert run_cli("verify", "--kind", "bdc", "--k", "1", "--r", "1", str(tmp_path / "none")) == 2


def test_enumeration_over_budget_is_status_three(tmp_path, capsys):
    code = tmp_path / "wide.bcode"
    formats.save(code, general_bcc(4, 4, 100), "BCC", 4, 4)
    assert run_cli("verify", "--kind", "bdc", "--k", "50", "--r", "1", str(code)) == 3
    assert run_cli("decode", "--code", str(code), "--outputs", "0,0,0,0,0,0",
                   "--classes", "2", "--q", "uniform:0:50") == 3
    err = capsys.readouterr().err
    assert err.count("error:") == 2
    assert "Traceback" not in err


def test_search_reports_minimum(capsys, tmp_path):
    report = tmp_path / "search.json"
    assert run_cli("search", "--kind", "bdc", "--k", "2", "--r", "2", "--n", "4",
                   "--max-m", "8", "--out", str(report)) == 0
    printed = capsys.readouterr().out
    assert "minRows=6, classes=1" in printed
    doc = json.loads(report.read_text())
    assert doc["minRows"] == 6 and doc["classes"] == 1
    parsed = formats.loads(doc["codes"][0])
    assert parsed.matrix.m == 6


def test_decode_worked_example(tmp_path, capsys):
    code = tmp_path / "three.bcode"
    formats.save(code, BitMatrix.from_rows([[1, 0], [0, 1], [1, 1]]), "BCC", 1, 1)
    report = tmp_path / "decode.json"
    assert run_cli(
        "decode", "--code", str(code), "--outputs", "1,0,1", "--confusion", "id",
        "--classes", "2", "--success-rate", "1.0", "--q", "uniform:0:1",
        "--out", str(report),
    ) == 0
    printed = capsys.readouterr().out
    assert "decoded label: 0" in printed
    assert "decoded attackers: {0}" in printed
    doc = json.loads(report.read_text())
    assert doc["decodedLabel"] == 0
    assert doc["decodedAttackers"] == [0]
    assert doc["attackerPosterior"]["10"] == pytest.approx(1.0)


def test_decode_degenerate_evidence_is_status_one(tmp_path, capsys):
    code = tmp_path / "three.bcode"
    formats.save(code, BitMatrix.from_rows([[1, 0], [0, 1], [1, 1]]), "BCC", 1, 1)
    assert run_cli(
        "decode", "--code", str(code), "--outputs", "1,2,0", "--confusion", "id",
        "--classes", "3", "--success-rate", "1.0", "--q", "uniform:0:1",
    ) == 1


def test_decode_validates_q_spec(tmp_path):
    code = tmp_path / "three.bcode"
    formats.save(code, BitMatrix.from_rows([[1, 0], [0, 1], [1, 1]]), "BCC", 1, 1)
    assert run_cli("decode", "--code", str(code), "--outputs", "0,0,0",
                   "--classes", "2", "--q", "bogus") == 2
    # default prior allows up to 3 attackers, impossible on 2 users
    assert run_cli("decode", "--code", str(code), "--outputs", "0,0,0",
                   "--classes", "2") == 2


def test_decode_refuses_huge_q_before_building_the_prior(tmp_path, capsys):
    code = tmp_path / "three.bcode"
    formats.save(code, BitMatrix.from_rows([[1, 0], [0, 1], [1, 1]]), "BCC", 1, 1)
    assert run_cli("decode", "--code", str(code), "--outputs", "0,0,0",
                   "--classes", "2", "--q", "uniform:0:1000000000") == 2
    err = capsys.readouterr().err
    assert "error: attacker count 3 exceeds the 2 users" in err
    assert "Traceback" not in err
    assert run_cli("decode", "--code", str(code), "--outputs", "0,0,0",
                   "--classes", "2", "--q", "uniform:7:1000000000") == 2
    assert "error: attacker count 7 exceeds the 2 users" in capsys.readouterr().err


def test_simulate_writes_reports(tmp_path, capsys):
    code = tmp_path / "c.bcode"
    run_cli("construct", "--kind", "bcc", "--k", "2", "--r", "4", "--n", "8", "-o", str(code))
    out = tmp_path / "rep"
    assert run_cli(
        "simulate", "--code", str(code), "--alpha", "iid", "--classes", "5",
        "--trials", "30", "--runs", "2", "--attackers", "0,1", "--seed", "7",
        "--threads", "1", "--out", str(out),
    ) == 0
    payload = json.loads((tmp_path / "rep.json").read_text())
    assert [p["attackerCount"] for p in payload["points"]] == [0, 1]
    csv_lines = (tmp_path / "rep.csv").read_text().strip().splitlines()
    assert csv_lines[0].startswith("code,alpha,attackerCount")
    assert len(csv_lines) == 3


def test_simulate_is_byte_identical_across_invocations(tmp_path, capsys):
    code = tmp_path / "c.bcode"
    run_cli("construct", "--kind", "bcc", "--k", "1", "--r", "2", "--n", "4", "-o", str(code))
    capsys.readouterr()
    outputs = []
    for rep in ("one", "two"):
        out = tmp_path / rep
        assert run_cli(
            "simulate", "--code", str(code), "--alpha", "0.5", "--classes", "4",
            "--trials", "25", "--runs", "2", "--attackers", "0,1", "--seed", "3",
            "--threads", "1", "--out", str(out),
        ) == 0
        outputs.append(capsys.readouterr().out.replace(rep, "X"))
    assert outputs[0] == outputs[1]
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()


def test_randomized_constructions_are_byte_identical(tmp_path):
    for name in ("a.bcode", "b.bcode"):
        assert run_cli("construct", "--kind", "btc", "--k", "1", "--r", "1", "--n", "4",
                       "--seed", "9", "--max-rows", "16", "-o", str(tmp_path / name)) == 0
    assert (tmp_path / "a.bcode").read_bytes() == (tmp_path / "b.bcode").read_bytes()


def test_constructed_files_feed_every_other_subcommand(tmp_path):
    code = tmp_path / "c.bcode"
    assert run_cli("construct", "--kind", "btc", "--k", "1", "--r", "1", "--n", "4",
                   "--seed", "2", "-o", str(code)) == 0
    assert run_cli("verify", "--kind", "btc", "--k", "1", "--r", "1", str(code)) == 0
    m = formats.load(code).matrix.m
    outputs = ",".join("0" for _ in range(m))
    assert run_cli("decode", "--code", str(code), "--outputs", outputs,
                   "--classes", "3", "--q", "uniform:0:1") == 0
    assert run_cli("simulate", "--code", str(code), "--classes", "3", "--trials", "10",
                   "--runs", "1", "--attackers", "0,1", "--q", "uniform:0:1",
                   "--threads", "1") == 0


def test_verify_separable_kind(tmp_path, capsys):
    code = tmp_path / "sep.bcode"
    formats.save(code, BitMatrix.identity(3), "SEP", 1, 1)
    assert run_cli("verify", "--kind", "separable", "--k", "1", str(code)) == 0
    dup = tmp_path / "dup.bcode"
    formats.save(dup, BitMatrix.from_rows([[1, 1], [1, 1]]), "RAW", 0, 0)
    assert run_cli("verify", "--kind", "separable", "--k", "1", str(dup)) == 1


def test_decode_confusion_sources(tmp_path):
    import numpy as np
    from bcode.formats import save_confusions

    code = tmp_path / "three.bcode"
    formats.save(code, BitMatrix.from_rows([[1, 0], [0, 1], [1, 1]]), "BCC", 1, 1)
    conf = tmp_path / "conf.json"
    save_confusions(conf, np.array([[[0.9, 0.1], [0.2, 0.8]]] * 3))
    assert run_cli("decode", "--code", str(code), "--outputs", "0,0,0",
                   "--classes", "2", "--q", "uniform:0:1",
                   "--confusion", str(conf)) == 0
    assert run_cli("decode", "--code", str(code), "--outputs", "0,0,0",
                   "--classes", "2", "--q", "uniform:0:1",
                   "--confusion", "synth:iid") == 0
    assert run_cli("decode", "--code", str(code), "--outputs", "0,0,0",
                   "--classes", "2", "--q", "uniform:0:1",
                   "--confusion", "synth:0.5", "--seed", "4") == 0


def test_construct_without_output_prints_bcode(capsys):
    assert run_cli("construct", "--kind", "minimal-bcc", "--k", "1", "--r", "1") == 0
    printed = capsys.readouterr().out
    assert printed.startswith("bcode v1\n")


def test_usage_error_exits_with_two():
    with pytest.raises(SystemExit) as info:
        main(["construct"])  # missing --kind
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["bogus-subcommand"])
    assert info.value.code == 2
