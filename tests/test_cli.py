import contextlib
import io
import json
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from bcode import bitmatrix, cli, construct, formats
from bcode.bitmatrix import BitMatrix
from bcode.cli import build_parser, main
from bcode.construct import general_bcc, minimal_bcc
from bcode.decoder import identity_confusions
from bcode.formats import save_confusions


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
    # The same wording as verify and search refuse the parameters with.
    for kind in ("bcc", "btc"):
        assert run_cli("construct", "--kind", kind, "--k", "2", "--r", "2", "--n", "3") == 2
        assert capsys.readouterr() == ("", "error: BCC(2,2,3) cannot exist: need n >= k + r\n")
        assert run_cli("construct", "--kind", kind, "--k", "0", "--r", "2", "--n", "3") == 2
        assert capsys.readouterr() == ("", "error: k, r and n must be positive\n")


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


def test_verify_fail_report(tmp_path, capsys):
    code, report = tmp_path / "c.bcode", tmp_path / "verify.json"
    assert run_cli("construct", "--kind", "bcc", "--k", "2", "--r", "4", "--n", "8",
                   "-o", str(code)) == 0
    capsys.readouterr()
    assert run_cli("verify", "--kind", "btc", "--k", "2", "--r", "4", "--out", str(report),
                   str(code)) == 1
    assert capsys.readouterr() == ("FAIL: two Boolean sums coincide: columns {0} and {4}\n", "")
    assert json.loads(report.read_text()) == {
        "result": "fail",
        "kind": "btc",
        "witness": {"reason": "two Boolean sums coincide", "columnSets": [[0], [4]]},
    }


def test_verify_rejects_bad_inputs(tmp_path, capsys):
    mangled = tmp_path / "mangled.bcode"
    mangled.write_text("not a bcode file\n")
    assert run_cli("verify", "--kind", "bdc", "--k", "1", "--r", "1", str(mangled)) == 2
    good = tmp_path / "good.bcode"
    formats.save(good, BitMatrix.identity(3))
    assert run_cli("verify", "--kind", "bdc", "--k", "0", "--r", "1", str(good)) == 2
    assert run_cli("verify", "--kind", "bdc", "--k", "1", "--r", "1", str(tmp_path / "none")) == 2


@pytest.mark.parametrize("kind,k,r,err", [
    ("bcc", "3", "2", "error: BCC(3,2,4) cannot exist: need n >= k + r\n"),
    ("bdc", "0", "1", "error: k, r and n must be positive\n"),
    ("bcc", "1", "0", "error: k, r and n must be positive\n"),
])
def test_verify_refuses_impossible_parameters(tmp_path, capsys, kind, k, r, err):
    code = tmp_path / "eye.bcode"
    formats.save(code, BitMatrix.identity(4))
    capsys.readouterr()
    assert run_cli("verify", "--kind", kind, "--k", k, "--r", r, str(code)) == 2
    assert capsys.readouterr() == ("", err)


def test_verify_separable_takes_any_row_weight(tmp_path, capsys):
    code = tmp_path / "eye.bcode"
    formats.save(code, BitMatrix.identity(4))
    capsys.readouterr()
    assert run_cli("verify", "--kind", "separable", "--k", "1", "--r", "0", str(code)) == 0
    assert capsys.readouterr() == (f"PASS: {code} is separable(k=1, r=0)\n", "")


def test_enumeration_over_budget_is_status_three(tmp_path, capsys):
    code = tmp_path / "wide.bcode"
    formats.save(code, general_bcc(4, 4, 100), "BCC", 4, 4)
    assert run_cli("verify", "--kind", "bdc", "--k", "50", "--r", "1", str(code)) == 3
    # The decoder tables count supports per (size, mask), so about 10^30
    # supports on 32 masks decode; the report's attacker posterior has one
    # key per support, so --out exits 3 before writing anything.
    decode = ("decode", "--code", str(code), "--outputs", "0,0,0,0,0,0",
              "--classes", "2", "--q", "uniform:0:50")
    assert run_cli(*decode) == 0
    report = tmp_path / "decode.json"
    assert run_cli(*decode, "--out", str(report)) == 3
    assert not report.exists()
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


def test_search_over_the_walk_budget_is_status_three(capsys):
    # Separability prunes nothing: C(255, 6) candidates at the first height.
    assert run_cli("search", "--kind", "separable", "--k", "2", "--r", "1", "--n", "8",
                   "--max-m", "12") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget of 1000000 walk nodes" in captured.err


def test_search_bcc_on_seven_columns_fits_the_walk_budget(capsys):
    assert run_cli("search", "--kind", "bcc", "--k", "2", "--r", "2", "--n", "7",
                   "--max-m", "12") == 0
    assert capsys.readouterr().out.startswith("minRows=4, classes=2, explored=135131\n")


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


@pytest.mark.parametrize("outputs, status", [
    ("9,9,9,9,9,9", 2),  # class indices out of range
    ("0,1,0,1,0,1", 1),  # degenerate: every user is on every model, which disagree
])
def test_refused_synth_decode_prints_nothing(tmp_path, capsys, outputs, status):
    code = tmp_path / "c.bcode"
    formats.save(code, BitMatrix(6, 2, (0b11,) * 6))
    assert run_cli("decode", "--code", str(code), "--outputs", outputs, "--classes", "3",
                   "--confusion", "synth:iid", "--attack-rate", "1.0", "--success-rate", "1.0",
                   "--q", "uniform:1:2") == status
    assert capsys.readouterr().out == ""


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


CONSTRUCT_FLAGS = {
    "minimal-bdc": ["--k", "2", "--r", "2"],
    "minimal-bcc": ["--k", "2", "--r", "1"],
    "bcc": ["--k", "2", "--r", "4", "--n", "8"],
    "btc": ["--k", "1", "--r", "1", "--n", "4", "--max-rows", "16"],
    "partition": ["--m", "3", "--n", "6"],
    "random": ["--m", "4", "--n", "6", "--row-weight", "2"],
}


@pytest.mark.parametrize("kind", list(construct.CONSTRUCTIONS))
def test_exactly_the_seeded_kinds_print_and_report_their_seed(tmp_path, capsys, kind):
    seeded = "seed" in construct.CONSTRUCTIONS[kind][1]
    assert seeded is (kind in ("btc", "random"))
    report = tmp_path / "report.json"
    assert run_cli("construct", "--kind", kind, *CONSTRUCT_FLAGS[kind], "--seed", "4",
                   "-o", str(tmp_path / "c.bcode"), "--out", str(report)) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("seed: 4\n") if seeded else "seed:" not in printed
    assert json.loads(report.read_text())["seed"] == (4 if seeded else None)


@pytest.mark.parametrize("flag", ["--max-rows", "--attempts"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_construct_refuses_an_empty_search_budget(capsys, flag, value):
    assert run_cli("construct", "--kind", "btc", "--k", "1", "--r", "1", "--n", "4",
                   "--seed", "2", flag, value) == 2
    assert capsys.readouterr().err == (
        "error: the row budget and the draws per height must be positive\n"
    )


@pytest.mark.parametrize("flag", ["--trials", "--runs"])
def test_simulate_out_of_memory_is_status_three(tmp_path, capsys, flag):
    code = tmp_path / "c.bcode"
    formats.save(code, general_bcc(1, 1, 2), "BCC", 1, 1)
    # 10**17 counts cannot be allocated on any host, so numpy fails at once.
    sizes = {"--trials": "1", "--runs": "1", flag: str(10**17)}
    assert run_cli("simulate", "--code", str(code), "--classes", "2", "--q", "uniform:0:1",
                   "--attackers", "0", "--threads", "1",
                   *(arg for item in sizes.items() for arg in item)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and "Traceback" not in err


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


def test_construct_verifies_duplicated_code_beyond_the_full_budget(tmp_path, capsys):
    # The full verifier would enumerate 3.9M sums of 100 columns; the 5
    # distinct columns of the code decide the same property.
    out = tmp_path / "big.bcode"
    assert run_cli("construct", "--kind", "bcc", "--k", "4", "--r", "4", "--n", "100",
                   "-o", str(out)) == 0
    assert "verifier BCC(k=4, r=4): PASS" in capsys.readouterr().out
    assert formats.load(out).matrix == general_bcc(4, 4, 100)


def test_verify_decides_duplicated_code_beyond_the_full_budget(tmp_path, capsys):
    out = tmp_path / "big.bcode"
    assert run_cli("construct", "--kind", "bcc", "--k", "4", "--r", "4", "--n", "100",
                   "-o", str(out)) == 0
    capsys.readouterr()
    assert run_cli("verify", "--kind", "bcc", "--k", "4", "--r", "4", str(out)) == 0
    assert capsys.readouterr().out == f"PASS: {out} is bcc(k=4, r=4)\n"
    # Column 5 repeats column 0: the tracking witness needs no walk of all 100.
    for kind in ("btc", "separable"):
        assert run_cli("verify", "--kind", kind, "--k", "4", "--r", "4", str(out)) == 1
        assert capsys.readouterr().out == "FAIL: two Boolean sums coincide: columns {0} and {5}\n"


def test_construct_refused_verification_writes_nothing(tmp_path, monkeypatch, capsys):
    # general_bcc(2, 4, 8) builds from 6 sums; its BCC check needs 10.
    monkeypatch.setattr(bitmatrix, "MAX_COLUMN_SETS", 9)
    assert general_bcc(2, 4, 8).n == 8
    out, report = tmp_path / "c.bcode", tmp_path / "c.json"
    assert run_cli("construct", "--kind", "bcc", "--k", "2", "--r", "4", "--n", "8",
                   "-o", str(out), "--out", str(report)) == 3
    assert "exceeds the budget" in capsys.readouterr().err
    assert not out.exists() and not report.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--attackers", ",", "need at least one attacker count"),
    ("--threads", "0", "need at least one worker, got 0"),
    ("--threads", "-1", "need at least one worker, got -1"),
])
def test_simulate_refuses_an_empty_sweep(tmp_path, capsys, flag, value, message):
    code = tmp_path / "c.bcode"
    formats.save(code, minimal_bcc(2, 2))
    out = tmp_path / "e"
    argv = {"--trials": "2", "--runs": "1", "--attackers": "0", "--threads": "1", flag: value}
    assert run_cli("simulate", "--code", str(code), "--out", str(out),
                   *(part for item in argv.items() for part in item)) == 2
    printed = capsys.readouterr()
    assert message in printed.err
    assert printed.out == ""
    assert not (tmp_path / "e.json").exists() and not (tmp_path / "e.csv").exists()


def test_simulate_threads_default_to_the_usable_cpus(tmp_path, monkeypatch):
    # Read when the command runs, so one parser serves every host setting.
    code = tmp_path / "c.bcode"
    formats.save(code, minimal_bcc(2, 2))
    workers = []
    monkeypatch.setattr(cli.simulate, "sweep", lambda *a, **kw: workers.append(kw["workers"]) or [])

    def run():
        assert run_cli("simulate", "--code", str(code)) == 0
        return workers[-1]

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert run() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 7)
    assert run() == 7
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert run() == 1
    assert run_cli("simulate", "--code", str(code), "--threads", "2") == 0
    assert workers == [3, 7, 1, 2]


def test_importing_the_package_loads_no_process_pool():
    probe = ("import sys, bcode, bcode.cli; "
             "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout == "[]\n"


def test_main_builds_one_parser_per_process(monkeypatch):
    built = []

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    assert run_cli("construct", "--kind", "minimal-bcc", "--k", "1", "--r", "1") == 0
    assert run_cli("search", "--kind", "bdc", "--k", "1", "--r", "1", "--n", "3",
                   "--max-m", "3") == 0
    assert len(built) == 1


def test_repeated_commands_in_one_process_print_alike(tmp_path):
    code = str(tmp_path / "c.bcode")
    sequence = [
        ["construct", "--kind", "bcc", "--k", "1", "--r", "2", "--n", "4", "-o", code],
        ["verify", "--kind", "bcc", "--k", "1", "--r", "2", code],
        ["verify", "--kind", "bcc", "--k", "1", "--bogus", code],
        ["search", "--kind", "nope", "--k", "1", "--r", "1", "--n", "3", "--max-m", "3"],
        [],
        ["verify", "--help"],
        ["decode", "--code", code, "--outputs", "0,1,0", "--classes", "2"],
        ["simulate", "--code", code, "--classes", "2", "--trials", "3", "--runs", "1",
         "--attackers", "0,1", "--q", "uniform:0:1", "--threads", "1"],
        ["search", "--kind", "bdc", "--k", "1", "--r", "1", "--n", "3", "--max-m", "3"],
    ]

    def run_all():
        seen = []
        for argv in sequence:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    status = main(argv)
                except SystemExit as exc:
                    status = exc.code
            seen.append((status, out.getvalue(), err.getvalue()))
        return seen

    first = run_all()
    assert [status for status, _, _ in first] == [0, 0, 2, 2, 2, 0, 0, 0, 0]
    assert first[5][1].startswith("usage: bcode verify")
    assert run_all() == first


def test_comma_lists_are_rejected_alike(tmp_path, capsys):
    code = tmp_path / "three.bcode"
    formats.save(code, BitMatrix.from_rows([[1, 0], [0, 1], [1, 1]]), "BCC", 1, 1)
    for flag, argv in (
        ("--outputs", ["decode", "--code", str(code), "--classes", "2", "--outputs", "0,x"]),
        ("--attackers", ["simulate", "--code", str(code), "--threads", "1", "--attackers", "0,x"]),
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be comma-separated integers: '0,x'" in err
        assert "Traceback" not in err


def test_decode_rejects_outputs_beyond_a_machine_int(tmp_path, capsys):
    code = tmp_path / "three.bcode"
    formats.save(code, BitMatrix.from_rows([[1, 0], [0, 1], [1, 1]]), "BCC", 1, 1)
    assert run_cli("decode", "--code", str(code), "--outputs", "99999999999999999999,0,0",
                   "--classes", "2", "--q", "uniform:0:1") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_decode_rejects_nan_confusions(tmp_path, capsys):
    code = tmp_path / "three.bcode"
    formats.save(code, BitMatrix.from_rows([[1, 0], [0, 1], [1, 1]]), "BCC", 1, 1)
    conf = tmp_path / "conf.json"
    save_confusions(conf, [[[float("nan"), 0.5], [0.5, 0.5]]] * 3)
    assert run_cli("decode", "--code", str(code), "--outputs", "0,0,0", "--classes", "2",
                   "--q", "uniform:0:1", "--confusion", str(conf)) == 2
    assert "confusion entries must lie in [0, 1]" in capsys.readouterr().err


def test_decode_rejects_slightly_negative_confusions(tmp_path, capsys):
    code = tmp_path / "bcc.bcode"
    formats.save(code, general_bcc(2, 2, 4), "BCC", 2, 2)
    stack = identity_confusions(6, 3)
    stack[0, 0] = [1 + 5e-10, -5e-10, 0]
    conf = tmp_path / "f.json"
    save_confusions(conf, stack)
    assert run_cli("decode", "--code", str(code), "--outputs", "1,0,0,0,0,0",
                   "--classes", "3", "--q", "uniform:0:2", "--confusion", str(conf)) == 2
    assert "confusion entries must lie in [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "document",
    [
        b'{"c": [2], "models": []}',
        b'{"c": 2, "models": {"a": 1}}',
        b'{"c": 1e999, "models": []}',
        b'{"c": "two", "models": []}',
        b'{"c": NaN, "models": []}',
        b'{"c": 2, "models": [[[0.5, "x"], [0.5, 0.5]]]}',
        b'{"c": 2, "models": [[[0.5, 0.5], [0.5]]]}',
        pytest.param(b'{"c": 2, "models": [[[' + b"1" * 400 + b", 0], [0, 1]]]}",
                     id="number-beyond-float"),
        b'{"c": 2, "models": "\xff"}',
        b'["c", "models"]',
        b'{"c": 2, "models": ',
        pytest.param(b"[" * 100_000, id="nested-too-deep"),
        b'{"c": 2.9, "models": [[[1, 0], [0, 1]]]}',
        b'{"c": true, "models": [[[1]]]}',
        b'{"c": "2", "models": [[[1, 0], [0, 1]]]}',
    ],
)
def test_decode_rejects_malformed_confusion_json(tmp_path, capsys, document):
    code = tmp_path / "three.bcode"
    formats.save(code, BitMatrix.from_rows([[1, 0], [0, 1], [1, 1]]), "BCC", 1, 1)
    conf = tmp_path / "conf.json"
    conf.write_bytes(document)
    assert run_cli("decode", "--code", str(code), "--outputs", "0,0,0", "--classes", "2",
                   "--q", "uniform:0:1", "--confusion", str(conf)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "flags,named",
    [
        (("decode", "--confusion", "synth:inf"), "alpha"),
        (("decode", "--confusion", "synth:nan"), "alpha"),
        (("simulate", "--alpha", "inf"), "alpha"),
        (("simulate", "--kappa", "nan"), "kappa"),
        (("simulate", "--kappa", "inf"), "kappa"),
    ],
)
def test_non_finite_synthetic_parameters_are_named(tmp_path, capsys, flags, named):
    code = tmp_path / "three.bcode"
    formats.save(code, BitMatrix.from_rows([[1, 0], [0, 1], [1, 1]]), "BCC", 1, 1)
    command, *rest = flags
    extra = (["--outputs", "0,0,0"] if command == "decode"
             else ["--trials", "2", "--runs", "1", "--threads", "1"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(command, "--code", str(code), "--classes", "2", "--q", "uniform:0:1",
                       *extra, *rest) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named} must be positive and finite")


@pytest.mark.parametrize("command", ["decode", "simulate"])
def test_confusion_stack_budget_boundary(tmp_path, capsys, monkeypatch, command):
    code = tmp_path / "three.bcode"
    formats.save(code, BitMatrix.from_rows([[1, 0], [0, 1], [1, 1]]), "BCC", 1, 1)
    extra = (["--outputs", "0,0,0"] if command == "decode"
             else ["--trials", "2", "--runs", "1", "--threads", "1", "--attackers", "0,1"])
    argv = [command, "--code", str(code), "--classes", "4", "--q", "uniform:0:1", *extra]
    monkeypatch.setattr(cli, "MAX_CONFUSION_ENTRIES", 3 * 4 * 4)
    assert main(argv) == 0
    monkeypatch.setattr(cli, "MAX_CONFUSION_ENTRIES", 3 * 4 * 4 - 1)
    assert main(argv) == 3
    assert "48 confusion entries" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["decode", "simulate"])
def test_huge_class_counts_are_refused_before_allocation(tmp_path, capsys, command):
    code = tmp_path / "three.bcode"
    formats.save(code, BitMatrix.from_rows([[1, 0], [0, 1], [1, 1]]), "BCC", 1, 1)
    extra = ["--outputs", "0,0,0"] if command == "decode" else ["--threads", "1"]
    assert run_cli(command, "--code", str(code), "--classes", "100000", *extra) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def mostly(valid, invalid):
    """Draw from ``valid`` nine times in ten."""
    return st.integers(0, 9).flatmap(lambda i: invalid if i == 0 else valid)


JUNK = st.text(max_size=10)
SIZES = mostly(st.integers(1, 6), st.integers(-1, 0)).map(str)
FLOATS = mostly(
    st.sampled_from(["0", "0.3", "0.5", "0.99", "1"]),
    st.one_of(st.sampled_from(["-1", "2", "nan", "inf", "-inf", "1e-300"]),
              st.floats().map(str), JUNK),
)
OUTPUTS = mostly(
    st.sampled_from([3, 6]).flatmap(lambda m: st.lists(st.integers(0, 3), min_size=m, max_size=m)),
    st.lists(st.integers(-1, 6), max_size=8),
).map(lambda v: ",".join(map(str, v)))
COUNTS = mostly(st.lists(st.integers(0, 3), min_size=1, max_size=4),
                st.lists(st.integers(-1, 6), max_size=8)).map(lambda v: ",".join(map(str, v)))
Q_SPECS = mostly(
    st.sampled_from(["uniform:0:1", "uniform:0:2", "uniform:1:2", "uniform:0:3"]),
    st.one_of(st.tuples(SIZES, JUNK).map(lambda t: f"uniform:{t[0]}:{t[1]}"), JUNK),
)


@st.composite
def cli_argvs(draw, paths):
    """Argument vectors with small sizes and some junk lists and specs;
    outputs go only to ``paths``, and simulate never starts a second process."""

    def opt(flag, values):
        return [flag, draw(values)] if draw(st.integers(0, 4)) else []

    command = draw(st.sampled_from(["construct", "verify", "search", "decode", "simulate"]))
    kinds = st.sampled_from(["bdc", "bcc", "btc", "separable"])
    code = mostly(st.sampled_from(paths["codes"]), st.sampled_from(paths["bad_codes"]))
    if command == "construct":
        kind = draw(st.sampled_from(
            ["minimal-bdc", "minimal-bcc", "bcc", "btc", "partition", "random"]))
        return (["construct", "--kind", kind] + opt("--k", SIZES) + opt("--r", SIZES)
                + opt("--n", SIZES) + opt("--m", SIZES) + opt("--row-weight", SIZES)
                + opt("--seed", SIZES)
                + ["--max-rows", draw(SIZES), "--attempts", draw(st.integers(-1, 3).map(str))]
                + opt("-o", st.just(paths["output"])) + opt("--out", st.just(paths["report"])))
    if command == "verify":
        return (["verify", "--kind", draw(kinds), "--k", draw(SIZES)] + opt("--r", SIZES)
                + [draw(code)] + opt("--out", st.just(paths["report"])))
    if command == "search":
        return (["search", "--kind", draw(kinds), "--k", draw(SIZES), "--r", draw(SIZES),
                 "--n", draw(st.integers(-1, 4).map(str)),
                 "--max-m", draw(st.integers(-1, 4).map(str))]
                + opt("--out", st.just(paths["report"])))
    classes = mostly(st.integers(2, 4), st.integers(-1, 1)).map(str)
    common = (["--code", draw(code), "--classes", draw(classes)]
              + opt("--attack-rate", FLOATS) + opt("--success-rate", FLOATS) + opt("--q", Q_SPECS)
              + opt("--seed", SIZES))
    if command == "decode":
        confusions = mostly(
            st.sampled_from(["id", "synth:iid", "synth:0.5", *paths["confusions"]]),
            FLOATS.map(lambda a: "synth:" + a),
        )
        return (["decode", "--outputs", draw(mostly(OUTPUTS, JUNK))] + common
                + opt("--confusion", confusions) + opt("--threshold", FLOATS)
                + opt("--out", st.just(paths["report"])))
    return (["simulate", "--trials", draw(st.integers(-1, 3).map(str)), "--runs", "1",
             "--threads", draw(st.sampled_from(["-1", "0", "1"]))] + common
            + opt("--alpha", mostly(st.sampled_from(["iid", "0.1", "1"]), FLOATS))
            + opt("--attackers", mostly(COUNTS, JUNK))
            + opt("--a-max", FLOATS) + opt("--kappa", FLOATS)
            + opt("--out", st.just(paths["prefix"])))


@pytest.fixture
def fuzz_paths(tmp_path):
    codes = {"bcc.bcode": minimal_bcc(2, 2), "id.bcode": BitMatrix.identity(3)}
    for name, matrix in codes.items():
        formats.save(tmp_path / name, matrix)
    (tmp_path / "mangled.bcode").write_text("bcode v1\nkind=RAW\n")
    save_confusions(tmp_path / "conf.json", [[[0.9, 0.1], [0.2, 0.8]]] * 6)
    save_confusions(tmp_path / "conf3.json", [[[1.0]]] * 3)
    (tmp_path / "badconf.json").write_text('{"c": [2], "models": []}')
    (tmp_path / "raggedconf.json").write_text('{"c": 2, "models": {"a": 1}}')
    return {
        "codes": [str(tmp_path / name) for name in codes],
        "bad_codes": [str(tmp_path / name) for name in ("mangled.bcode", "missing.bcode")],
        "confusions": [str(tmp_path / name)
                       for name in ("conf.json", "conf3.json", "badconf.json", "raggedconf.json")],
        "output": str(tmp_path / "out.bcode"),
        "report": str(tmp_path / "report.json"),
        "prefix": str(tmp_path / "sim"),
    }


@given(st.data())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_exits_with_a_status_and_never_a_traceback(fuzz_paths, data):
    argv = data.draw(cli_argvs(fuzz_paths), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    event(f"{argv[0]} exit {status}")
    assert status in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
