import json
import os
import tempfile

import pytest

from oelab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def test_selftest_quick(capsys):
    code, out, err = run_cli(capsys, "selftest", "--quick")
    assert code == 0
    # the check lines go to stderr, so stdout is one strict JSON document
    report = _strict_loads(out)
    assert all(item["pass"] for item in report["results"])
    assert report["version"]
    assert err.count("PASS") == len(report["results"])


def test_tiling_verify_epsilon(capsys):
    code, report, _ = run_json(
        capsys, "tiling", "verify", "--builtin", "zn:1", "--k", "3", "--exact-diameter"
    )
    assert code == 0
    last = report["results"][-1]
    assert last["epsilon_computed"] == [1, 16]
    assert last["diameter"] <= last["radius_claimed"]


def test_couple_tail_csv_and_exit(capsys):
    code, out, _ = run_cli(
        capsys,
        "couple",
        "tail",
        "--left",
        "zn:2",
        "--right",
        "zn:1:grouped:2",
        "--gamma",
        "zn:1,0",
        "--k",
        "2",
        "--samples",
        "4000",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,exact_tail,mc_freq,stderr"
    assert lines[1].startswith("0,1/2,")


def test_couple_integrate(capsys):
    code, report, _ = run_json(
        capsys,
        "couple",
        "integrate",
        "--left",
        "zn:2",
        "--right",
        "zn:1:grouped:2",
        "--gamma",
        "zn:0,1",
        "--gauge",
        "power:0.4",
        "--samples",
        "500",
        "--strata-depth",
        "8",
    )
    assert code == 0
    res = report["results"]
    assert res["estimate"] <= res["stratified_bound"]
    assert res["truncated"] is True


def test_couple_return_time(capsys):
    code, report, _ = run_json(
        capsys,
        "couple",
        "return-time",
        "--left",
        "zn:2",
        "--right",
        "zn:1:grouped:2",
        "--x0",
        "0;1;2",
        "--n",
        "2",
        "--samples",
        "150",
    )
    assert code == 0
    assert report["results"]["rhs"] == 0.5
    assert report["results"]["pass"]


def test_bsll_tail(capsys):
    code, report, _ = run_json(
        capsys,
        "bs-ll",
        "tail",
        "--k",
        "2",
        "--g",
        "bs:a=1,s=0,n=0",
        "--M",
        "3",
        "--samples",
        "5000",
    )
    assert code == 0
    res = report["results"]
    assert res["pass"] and res["bound"] == 0.25


def test_profile_csv(capsys):
    code, out, _ = run_cli(capsys, "profile", "--group", "zn:1", "--n", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,value_num,value_den,witness"
    assert lines[1].startswith("3,3,4,")


def test_wreath_check(capsys):
    code, report, _ = run_json(
        capsys,
        "wreath",
        "check",
        "--base",
        "zn:2,zn:1:grouped:2",
        "--lamp",
        "cyclic:3,cyclic:3",
        "--samples",
        "4",
    )
    assert code == 0
    for side in report["results"]:
        assert side["pure_base_identity"]["pass"] == 4
        assert side["pure_lamp_identity"]["pass"] == 4


def test_hyp_delta_family_and_edges(capsys):
    code, report, _ = run_json(capsys, "hyp", "delta", "--family", "cycle:8", "--four-point")
    assert code == 0
    assert report["results"]["rips_delta"] == [2, 1]
    with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as fh:
        fh.write("0 1\n1 2\n2 3\n3 0\n")
        name = fh.name
    try:
        code, report, _ = run_json(capsys, "hyp", "delta", "--edges", name)
        assert code == 0 and report["results"]["vertices"] == 4
    finally:
        os.unlink(name)


def test_hyp_audit_cycle(capsys):
    cyc = ",".join(str(v) for v in range(8))
    code, report, _ = run_json(
        capsys, "hyp", "audit-cycle", "--family", "cycle:8", "--cycle", cyc
    )
    assert code == 0
    assert report["results"]["within_bound"]


def test_hyp_extract(capsys):
    code, report, _ = run_json(capsys, "hyp", "extract", "--family", "grid:9")
    assert code == 0
    assert report["results"]["self_audit"]["pass"]


def test_usage_errors_exit_1(capsys):
    code, _, err = run_cli(capsys, "tiling", "verify", "--builtin", "nope:1", "--k", "2")
    assert code == 1 and "usage error" in err
    code, _, err = run_cli(
        capsys,
        "couple",
        "tail",
        "--left",
        "zn:2",
        "--right",
        "zn:1",
        "--gamma",
        "zn:1,0",
    )
    assert code == 1 and "letter counts differ" in err
    code, _, err = run_cli(
        capsys, "couple", "tail", "--left", "zn:2", "--right", "zn:1:grouped:2",
        "--gamma", "zn:9",
    )
    assert code == 1


def test_determinism_bit_for_bit(capsys):
    argv = [
        "couple", "tail", "--left", "zn:2", "--right", "zn:1:grouped:2",
        "--gamma", "zn:0,1", "--k", "3", "--samples", "3000", "--seed", "5",
        "--format", "csv",
    ]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_csv_json_equivalence(capsys):
    argv = [
        "couple", "tail", "--left", "zn:2", "--right", "zn:1:grouped:2",
        "--gamma", "zn:1,0", "--k", "3", "--samples", "2000", "--seed", "21",
    ]
    code, report, _ = run_json(capsys, *argv)
    assert code == 0
    code, csv_out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in csv_out.strip().splitlines()[1:]]
    for row, res in zip(rows, report["results"], strict=True):
        num, den = res["exact_tail"]
        assert row[0] == str(res["k"])
        assert row[1] == f"{num}/{den}"
        assert float(row[2]) == res["mc_freq"]
        assert float(row[3]) == res["stderr"]


def test_couple_tail_band_holds_in_rare_tails(capsys):
    # from k = 4 on no sample of 50 lands in the tail, so the plug-in stderr
    # is 0; the band is taken at the exact p and the audit still passes
    for seed in range(5):
        code, report, _ = run_json(
            capsys, "couple", "tail", "--left", "zn:2", "--right", "zn:1:grouped:2",
            "--gamma", "zn:1,0", "--k", "8", "--samples", "50", "--seed", str(seed),
        )
        assert code == 0, seed
        assert all(row["within_4_stderr"] for row in report["results"]), seed
        assert report["results"][8]["stderr"] == 0.0


def _strict_loads(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def test_reports_are_strict_json(capsys):
    # the whole-space cylinder returns every time: zero stderr, infinite margin
    code, out, _ = run_cli(
        capsys, "couple", "return-time", "--left", "zn:2", "--right", "zn:1:grouped:2",
        "--x0", "0;1;2;3", "--n", "1", "--samples", "5",
    )
    assert code == 0
    assert _strict_loads(out)["results"]["margin_sigmas"] == "inf"
    # every sample exhausts the rewrite depth: the estimate is not a number
    code, out, _ = run_cli(
        capsys, "couple", "integrate", "--left", "zn:2", "--right", "zn:1:grouped:2",
        "--gamma", "zn:5,0", "--max-depth", "0", "--samples", "5",
    )
    assert code == 0
    results = _strict_loads(out)["results"]
    assert results["estimate"] == "nan" and results["exhausted_fraction"] == 1.0


_COUPLE = ["--left", "zn:2", "--right", "zn:1:grouped:2"]
_SAMPLES_ZERO = [
    ["couple", "tail", *_COUPLE, "--gamma", "zn:1,0"],
    ["couple", "integrate", *_COUPLE, "--gamma", "zn:1,0"],
    ["couple", "return-time", *_COUPLE, "--x0", "0;1"],
    ["bs-ll", "tail", "--k", "2", "--g", "bs:a=1,s=0,n=0", "--M", "3"],
    ["wreath", "check", "--base", "zn:2,zn:1:grouped:2", "--lamp", "cyclic:3,cyclic:3"],
]


@pytest.mark.parametrize("argv", _SAMPLES_ZERO, ids=lambda a: " ".join(a[:2]))
def test_zero_samples_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--samples", "0")
    assert code == 1 and "usage error" in err
    assert out == ""


_OUT_OF_RANGE = [
    # each of these used to pass vacuously, fail every sample, or crash
    ("tiling verify --samples -3", ["tiling", "verify", "--builtin", "zn:1", "--k", "1", "--samples", "-3"]),
    ("tiling verify --k -1", ["tiling", "verify", "--builtin", "zn:1", "--k", "-1"]),
    ("couple tail --k -1", ["couple", "tail", *_COUPLE, "--gamma", "zn:1,0", "--k", "-1", "--samples", "20"]),
    ("couple return-time --n -1", ["couple", "return-time", *_COUPLE, "--x0", "0;1", "--n", "-1", "--samples", "5"]),
    ("couple integrate --strata-depth -1", ["couple", "integrate", *_COUPLE, "--gamma", "zn:1,0", "--strata-depth", "-1", "--samples", "20"]),
    ("couple tail --max-depth -1", ["couple", "tail", *_COUPLE, "--gamma", "zn:1,0", "--max-depth", "-1", "--samples", "20"]),
    ("bs-ll tail --M 1", ["bs-ll", "tail", "--k", "2", "--g", "bs:a=1,s=0,n=0", "--M", "1", "--samples", "20"]),
]


@pytest.mark.parametrize("argv", [a for _, a in _OUT_OF_RANGE], ids=[i for i, _ in _OUT_OF_RANGE])
def test_out_of_range_argument_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and "usage error" in err
    assert out == ""


_CHEAP_RUNS = [
    ("tiling verify", ["tiling", "verify", "--builtin", "zn:1", "--k", "1"]),
    ("couple tail", ["couple", "tail", *_COUPLE, "--gamma", "zn:1,0", "--k", "1", "--samples", "20"]),
    ("couple integrate", ["couple", "integrate", *_COUPLE, "--gamma", "zn:1,0", "--samples", "20"]),
    ("couple return-time", ["couple", "return-time", *_COUPLE, "--x0", "0;1", "--n", "1", "--samples", "5"]),
    ("bs-ll tail", ["bs-ll", "tail", "--k", "2", "--g", "bs:a=1,s=0,n=0", "--M", "3", "--samples", "20"]),
    ("profile", ["profile", "--group", "zn:1", "--n", "2"]),
    ("wreath check", ["wreath", "check", "--base", "zn:2,zn:1:grouped:2", "--lamp", "cyclic:3,cyclic:3", "--samples", "1"]),
    ("hyp delta", ["hyp", "delta", "--family", "path:4"]),
    ("hyp audit-cycle", ["hyp", "audit-cycle", "--family", "cycle:4", "--cycle", "0,1,2,3"]),
    ("hyp extract", ["hyp", "extract", "--family", "path:4"]),
    ("selftest", ["selftest", "--quick"]),
]


@pytest.mark.parametrize("command,argv", _CHEAP_RUNS, ids=[c for c, _ in _CHEAP_RUNS])
def test_every_subcommand_reports_through_one_path(capsys, command, argv):
    code, out, _ = run_cli(capsys, *argv, "--seed", "3")
    assert code in (0, 2)
    # only the report is pinned here; test_selftest_quick pins a clean stdout
    report = json.loads(out[out.index("{"):])
    assert set(report) == {"command", "parameters", "seed", "results", "timing_seconds", "version"}
    assert report["command"] == command
    assert report["seed"] == 3 == report["parameters"]["seed"]
    assert report["parameters"]["format"] == "json"
