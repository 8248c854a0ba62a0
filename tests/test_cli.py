import argparse
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest

import oelab
from oelab import cli
from oelab.cli import _emit, build_parser, main
from oelab.errors import ResourceExhausted
from oelab.tilings import HeisTiling


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


def test_selftest_full(capsys):
    # without --quick the heis tiling, cycle delta and bs-ll checks run too
    code, out, err = run_cli(capsys, "selftest")
    assert code == 0
    report = _strict_loads(out)
    names = [item["name"] for item in report["results"]]
    assert {"heis tiling k=2 within claim", "cycle delta", "bs-ll shift distance"} <= set(names)
    assert all(item["pass"] for item in report["results"])
    assert err.count("PASS") == len(names)


def test_tiling_verify_epsilon(capsys):
    code, report, _ = run_json(
        capsys, "tiling", "verify", "--builtin", "zn:1", "--k", "3", "--exact-diameter"
    )
    assert code == 0
    last = report["results"][-1]
    assert last["epsilon_computed"] == [1, 16]
    assert last["diameter"] <= last["radius_claimed"]


def test_exact_diameter_honours_the_budget(capsys):
    # heis's exact diameter proves T_k disjoint, so a budget below |T_0| = 16 stops it
    argv = ["tiling", "verify", "--k", "2", "--exact-diameter", "--budget", "10"]
    code, out, err = run_cli(capsys, *argv, "--builtin", "heis")
    assert code == 1 and out == ""
    assert err.startswith("ResourceExhausted: |T_0| = 16 exceeds budget 10")
    # the box tilings' diameter is a closed form that builds nothing
    code, report, _ = run_json(capsys, *argv, "--builtin", "zn:2")
    assert code == 0 and report["results"][-1]["diameter"] == 2 * 7


def test_exact_diameter_reads_each_tilings_structure(capsys):
    # heis scans the ends of T_k's columns, not the pairs of its 65,536 elements at k = 3
    argv = ["tiling", "verify", "--exact-diameter", "--builtin"]
    code, report, _ = run_json(capsys, *argv, "heis", "--k", "3")
    assert code == 0 and [row["diameter"] for row in report["results"]] == [8, 17, 35, 73]
    # ll:M's closed form builds no tile, so |T_3| = 2^20 above the budget does not stop it
    code, report, _ = run_json(capsys, *argv, "ll:2", "--k", "4", "--budget", "100000")
    assert code == 0 and [row["diameter"] for row in report["results"]] == [4, 10, 22, 46, 94]


def test_exact_diameter_proves_each_tile_once(capsys, monkeypatch):
    # tiling verify proves T_0..T_k, and heis's column ends reuse that proof
    proofs, builds = [], []
    real_arrays, real_build = HeisTiling._tile_arrays, HeisTiling.build_tiles
    monkeypatch.setattr(HeisTiling, "_tile_arrays", lambda t, K: proofs.append(K) or real_arrays(t, K))
    monkeypatch.setattr(HeisTiling, "build_tiles", lambda t, K, budget: builds.append(K) or real_build(t, K, budget))
    code, report, _ = run_json(capsys, "tiling", "verify", "--builtin", "heis", "--k", "3", "--exact-diameter")
    assert code == 0 and [row["diameter"] for row in report["results"]] == [8, 17, 35, 73]
    assert proofs == [3] and builds == [0]


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
    assert report["results"]["exhausted_fraction"] == 0


def test_couple_return_time_reports_exhausted_fraction(capsys):
    # at --max-depth 0 every ball element that leaves T_0 exhausts the
    # rewrite depth and counts as a non-return: 21 of the 25, in every sample
    argv = ["couple", "return-time", *_COUPLE, "--x0", "0;1", "--n", "3", "--samples", "5"]
    code, report, _ = run_json(capsys, *argv, "--max-depth", "0")
    assert code == 0
    assert report["results"]["exhausted_fraction"] == pytest.approx(0.84)


def test_couple_return_time_undecided_by_exhaustion_is_depth_exhausted(capsys):
    # the whole-space cylinder returns every time; at --max-depth 0, 21 of the
    # 25 ball elements exhaust and count as non-returns: lhs 0.16 against rhs 1,
    # a failure that counting them as returns (lhs + mu 0.84 = 1) would reverse
    argv = ["couple", "return-time", *_COUPLE, "--x0", "0;1;2;3", "--n", "3", "--samples", "100"]
    code, out, err = run_cli(capsys, *argv, "--max-depth", "0")
    assert code == 1 and out == ""
    assert err.startswith("DepthExhausted: no rewrite depth <= 0")
    code, report, _ = run_json(capsys, *argv)
    assert code == 0
    res = report["results"]
    assert (res["lhs"], res["rhs"], res["exhausted_fraction"], res["pass"]) == (1.0, 1.0, 0.0, True)


def test_couple_integrate_stops_at_a_saturated_gauge():
    # the zmatch:ll:2 radii are doubly exponential in k: formed up to the
    # default depth 32 they hung this command; past the first +inf stratum
    # they are no longer formed
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(oelab.__file__))
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    argv = ["couple", "integrate", "--left", "ll:2", "--right", "zmatch:ll:2",
            "--gamma", "ll:m=2;lamps=;pos=1", "--samples", "50"]
    proc = subprocess.run(
        [sys.executable, "-m", "oelab.cli", *argv], env=env, capture_output=True, text=True, timeout=20
    )
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout)["results"]
    terms = res["bound_terms"]
    assert len(terms) == 33 and res["stratified_bound"] == "inf"
    first = terms.index("inf")
    assert 0 < first < 32 and terms[first:] == ["inf"] * (33 - first)


@pytest.mark.xfail(strict=True, reason="logpow never saturates, so every zmatch:ll:2 radius is formed")
def test_couple_integrate_logpow_finishes():
    # with --strata-depth 12 this finishes at once; at the default depth 32
    # log R_k needs R_k itself, about 2^(k+1) bits, for every k
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(oelab.__file__))
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    argv = ["couple", "integrate", "--left", "ll:2", "--right", "zmatch:ll:2",
            "--gamma", "ll:m=2;lamps=;pos=1", "--samples", "50", "--gauge", "logpow:1.0"]
    proc = subprocess.run(
        [sys.executable, "-m", "oelab.cli", *argv], env=env, capture_output=True, text=True, timeout=3
    )
    assert proc.returncode == 0, proc.stderr


_TAIL_13 = ["couple", "tail", "--left", "zmatch:ll:2", "--right", "ll:2", "--gamma", "zn:1", "--k", "13",
            "--max-depth", "13", "--samples", "10"]
_UNPRINTABLE = [
    # --budget 64 keeps the disjointness proof to T_1 of ll:2
    pytest.param(["tiling", "verify", "--builtin", "ll:2", "--k", "13", "--budget", "64"], id="tiling verify --builtin ll:2"),
    pytest.param(["tiling", "verify", "--builtin", "zmatch:ll:2", "--k", "13"], id="tiling verify --builtin zmatch:ll:2"),
    # only couple tail has a table to write as CSV
    *(pytest.param([*_TAIL_13, "--format", fmt], id=f"couple tail --left zmatch:ll:2-{fmt}") for fmt in ("json", "csv")),
]


@pytest.mark.parametrize("spec", ["ll:2", "zmatch:ll:2"])
def test_tiling_verify_stops_at_the_first_level_it_cannot_print(spec):
    # the tile sizes are doubly exponential in k: formed up to k = 30 they
    # took seconds to minutes before the report refused level 13
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(oelab.__file__))
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    argv = ["tiling", "verify", "--builtin", spec, "--k", "30"]
    proc = subprocess.run(
        [sys.executable, "-m", "oelab.cli", *argv], env=env, capture_output=True, text=True, timeout=5
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("ResourceExhausted: level k=13 cannot be printed: ")


def test_couple_tail_stops_at_the_first_level_it_cannot_print_before_drawing(monkeypatch):
    # drawn first, the zmatch:ll:2 letters past level 5 (about 2^(k+1) bits
    # each) ran past 12 s before the report refused level 13
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(oelab.__file__))
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    argv = [a if a != "13" else "30" for a in _TAIL_13]
    proc = subprocess.run(
        [sys.executable, "-m", "oelab.cli", *argv], env=env, capture_output=True, text=True, timeout=5
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("ResourceExhausted: level k=13 cannot be printed: ")
    monkeypatch.setattr(cli, "mc_tail_frequencies", lambda *a: pytest.fail("drew samples"))
    args = build_parser().parse_args(argv)
    with pytest.raises(ResourceExhausted) as exc:
        args.fn(args)
    assert exc.value.progress == 12


@pytest.mark.parametrize("argv", _UNPRINTABLE)
def test_an_integer_too_long_to_print_is_resource_exhausted(capsys, argv):
    # level 13 holds integers of more digits than Python converts to text:
    # nothing is written, and the error names the level
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("ResourceExhausted: level k=13 ")
    argv = [a if a != "13" else "12" for a in argv]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out


def test_an_unwritable_report_writes_nothing(capsys):
    rows = [{"k": 0, "v": 1}, {"k": 1, "v": Fraction(1, 10**5000)}]
    with pytest.raises(ResourceExhausted) as exc:
        _emit(argparse.Namespace(format="json"), "x", rows, 0.0, None)
    assert exc.value.progress == 0
    # what JSON cannot hold is an error, not a string, and found after the
    # report has begun, it still leaves stdout empty
    with pytest.raises(TypeError):
        _emit(argparse.Namespace(format="json"), "x", {"a": 1, "v": {1}}, 0.0, None)
    assert capsys.readouterr().out == ""


def test_profile_of_a_finite_group_is_a_usage_error(capsys):
    # cyclic:3 is its own support of size 3, with an empty boundary; this
    # used to end in a ZeroDivisionError traceback
    code, out, err = run_cli(capsys, "profile", "--group", "cyclic:3", "--n", "3")
    assert code == 1 and out == ""
    assert err.startswith("usage error: cyclic:3 is finite") and "empty boundary" in err


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


# results recorded from the per-sample sweep, before the batched odometer
_BSLL_GOLDEN = [
    (
        ["--k", "3", "--g", "bs:a=2,s=0,n=1", "--M", "3", "--samples", "9000", "--seed", "9"],
        {"freq": 0.0, "stderr": 0.0, "bound": 0.1111111111111111, "threshold": 60, "g_length": 3,
         "exhausted": 0, "pass": True},
    ),
    (
        ["--k", "2", "--g", "bs:a=-3,s=1,n=-2", "--M", "4", "--samples", "9000", "--seed", "4"],
        {"freq": 0.0, "stderr": 0.0, "bound": 0.125, "threshold": 69, "g_length": 6,
         "exhausted": 0, "pass": True},
    ),
    (
        ["--k", "2", "--g", "bs:a=1,s=0,n=0", "--M", "2", "--samples", "9000", "--seed", "5"],
        {"freq": 0.002111111111111111, "stderr": 0.0004838106058489847, "bound": 0.5, "threshold": 27,
         "g_length": 1, "exhausted": 0, "pass": True},
    ),
]


@pytest.mark.parametrize("argv,results", _BSLL_GOLDEN)
def test_bsll_tail_results_are_unchanged(capsys, argv, results):
    code, report, _ = run_json(capsys, "bs-ll", "tail", *argv)
    assert code == 0
    assert report["results"] == results


def test_bsll_tail_g_length_is_linear_in_its_height(capsys):
    # a carry pass on the values a k**(n - W) themselves would take 23 s here
    argv = ["--k", "2", "--g", "bs:a=1,s=0,n=100000", "--M", "5", "--samples", "10"]
    code, report, _ = run_json(capsys, "bs-ll", "tail", *argv)
    assert code == 0 and report["results"]["g_length"] == 100_001


# the results perfbench/references.json records for this command
_HEIS_PROFILE_7 = {
    "n": 7,
    "mode": "sets",
    "value": [7, 32],
    "witness": [
        "heis:-3,0,2", "heis:-2,0,2", "heis:-2,1,0", "heis:-1,0,2", "heis:-1,1,0", "heis:0,0,0", "heis:0,1,0",
    ],
    "witness_values": None,
    "convention": (
        "denominator = ell^1 left gradient of the function (sum over generators s of "
        "sum_g |f(g) - f(s^-1 g)|); supports restricted to connected sets containing the identity"
    ),
    "subsets_searched": 16580,
}


def test_profile_results_are_the_recorded_ones(capsys):
    code, report, _ = run_json(capsys, "profile", "--group", "heis", "--n", "7")
    assert code == 0
    assert report["results"] == _HEIS_PROFILE_7


# the results of the exact-cli tiling commands, recorded before the exact
# diameter moved to rows and before the key ranges became column reductions
# (heis-k1-exact, zn3-k5), and before the sampled diameter gathered from the
# proved rows, the keys narrowed and the heis escapes read one cross table
# (the others)
_HEIS_K1_EXACT_DIAMETER = [
    {"k": 0, "size": 16, "epsilon_computed": [9, 16], "epsilon_claimed": [1, 1], "ok": True,
     "diameter": 8, "radius_claimed": 40},
    {"k": 1, "size": 256, "epsilon_computed": [39, 128], "epsilon_claimed": [1, 2], "ok": True,
     "diameter": 17, "radius_claimed": 80},
]
_ZN3_K5 = [
    {"k": k, "size": 8 ** (k + 1), "epsilon_computed": [1, 2 ** (k + 1)], "epsilon_claimed": [1, 2 ** (k + 1)], "ok": True}
    for k in range(6)
]
_HEIS_K1_ARGV = ["tiling", "verify", "--builtin", "heis", "--k", "1", "--exact-diameter"]
_LL2_K2_SAMPLED = [
    {"k": k, "size": size, "epsilon_computed": [1, 2 << k], "epsilon_claimed": [1, 2 << k], "ok": True,
     "diameter_lower_bound": d, "radius_claimed": 6 << k}
    for k, size, d in ((0, 8, 4), (1, 64, 10), (2, 2048, 22))
]
_HEIS_EPSILON = [[9, 16], [39, 128], [163, 1024], [667, 8192], [2699, 65536], [10859, 524288], [43563, 4194304]]
_HEIS_K6 = [
    {"k": k, "size": 16 ** (k + 1), "epsilon_computed": eps, "epsilon_claimed": [1, 1 << k], "ok": True}
    for k, eps in enumerate(_HEIS_EPSILON)
]
_ZMATCH_K2 = [
    {"k": k, "size": size, "epsilon_computed": [1, size], "epsilon_claimed": [1, size // 2], "ok": True}
    for k, size in enumerate((8, 64, 2048))
]
_HEIS_K3_EXACT = [dict(row, diameter=d, radius_claimed=40 << k) for k, (row, d) in enumerate(zip(_HEIS_K6, (8, 17, 35, 73)))]
# --budget 5000 proves T_0..T_2 only: the sampled diameter gathers from those
# rows, then grows T_3's points from T_2's
_HEIS_K3_PAST_THE_PROOF = [
    dict(row, diameter_lower_bound=d, radius_claimed=40 << k) for k, (row, d) in enumerate(zip(_HEIS_K6, (8, 17, 31, 64)))
]
_RECORDED = {
    "heis-k1-exact": (_HEIS_K1_ARGV, _HEIS_K1_EXACT_DIAMETER),
    "zn3-k5": (["tiling", "verify", "--builtin", "zn:3", "--k", "5"], _ZN3_K5),
    "ll2-k2-sampled": (
        ["tiling", "verify", "--builtin", "ll:2", "--k", "2", "--samples", "3000", "--seed", "3735928559"],
        _LL2_K2_SAMPLED,
    ),
    "heis-k6": (["tiling", "verify", "--builtin", "heis", "--k", "6", "--budget", "70000"], _HEIS_K6),
    "zmatch-ll2-k2": (["tiling", "verify", "--builtin", "zmatch:ll:2", "--k", "2"], _ZMATCH_K2),
    "heis-k3-exact": (["tiling", "verify", "--builtin", "heis", "--k", "3", "--exact-diameter"], _HEIS_K3_EXACT),
    "heis-k3-sampled-past-the-proof": (
        ["tiling", "verify", "--builtin", "heis", "--k", "3", "--samples", "500", "--seed", "5", "--budget", "5000"],
        _HEIS_K3_PAST_THE_PROOF,
    ),
}


@pytest.mark.parametrize("argv,results", list(_RECORDED.values()), ids=list(_RECORDED))
def test_tiling_verify_results_are_the_recorded_ones(capsys, argv, results):
    code, report, _ = run_json(capsys, *argv)
    assert code == 0
    assert report["results"] == results


def test_one_parser_serves_every_call(capsys):
    assert build_parser() is build_parser()
    # a usage error leaves the shared parser as it was: the next command
    # exits and reports as it did alone in a fresh process, when recorded
    code, _, err = run_cli(capsys, "profile", "--group", "zn:1", "--n", "3", "--mode", "sets")
    assert code == 1 and err.startswith("usage error")
    code, report, _ = run_json(capsys, *_HEIS_K1_ARGV)
    assert (code, report["results"]) == (0, _HEIS_K1_EXACT_DIAMETER)


def test_profile_csv(capsys):
    code, out, _ = run_cli(capsys, "profile", "--group", "zn:1", "--n", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,value_num,value_den,witness"
    assert lines[1].startswith("3,3,4,")


def assert_wreath_identities_hold(capsys, base, lamp):
    code, report, _ = run_json(capsys, "wreath", "check", "--base", base, "--lamp", lamp, "--samples", "4")
    assert code == 0
    for side in report["results"]:
        assert side["pure_base_identity"]["pass"] == 4
        assert side["pure_lamp_identity"]["pass"] == 4


def test_wreath_check(capsys):
    assert_wreath_identities_hold(capsys, "zn:2,zn:1:grouped:2", "cyclic:3,cyclic:3")


@pytest.mark.parametrize("base", ["ll:2,zmatch:ll:2", "cyclic:5,cyclic:5"])
def test_wreath_check_off_z_bases(capsys, base):
    # the wreath word length used to take coordinate differences of base elements
    assert_wreath_identities_hold(capsys, base, "cyclic:5,cyclic:5")


_PAST_THE_OLD_WORD_CAP = [
    ["wreath", "check", "--base", "heis,zn:4", "--lamp", "cyclic:5,cyclic:5"],
    ["tiling", "verify", "--builtin", "heis", "--k", "2", "--samples", "300", "--seed", "4"],
    ["tiling", "verify", "--builtin", "heis", "--k", "3", "--samples", "300", "--seed", "0"],
    ["couple", "integrate", "--left", "zn:4", "--right", "heis", "--gamma", "zn:1,0,0,0",
     "--gauge", "power:0.4", "--samples", "200"],
    ["couple", "integrate", "--left", "zn:4", "--right", "heis", "--gamma", "zn:1,0,0,0",
     "--gauge", "power:0.6", "--samples", "200"],
    ["couple", "return-time", "--left", "zn:2", "--right", "zn:1:grouped:2", "--x0", "0;1",
     "--n", "25", "--samples", "3"],
    ["hyp", "delta", "--family", "cayley-ball:zn:1:30"],
]


@pytest.mark.parametrize("argv", _PAST_THE_OLD_WORD_CAP, ids=lambda a: " ".join(a[:2]))
def test_runs_past_the_old_word_cap(capsys, argv):
    # each of these needed a word length or a ball past radius 24
    code, report, err = run_json(capsys, *argv)
    assert code == 0, err
    if argv[1] == "integrate":
        res = report["results"]
        assert res["exhausted_fraction"] == 0
        assert res["estimate"] <= res["stratified_bound"]


def test_distance_matrix_budget_is_a_typed_error(capsys, monkeypatch):
    import oelab.hyperbolicity

    # 6 n^2 bytes: 0.015 MB for n = 50
    monkeypatch.setattr(oelab.hyperbolicity, "DEFAULT_MATRIX_BUDGET_MB", 0.01)
    code, out, err = run_cli(capsys, "hyp", "delta", "--family", "cycle:50")
    assert code == 1 and not out
    assert err.startswith("ResourceExhausted: distance matrix")


def test_hyp_delta_family_and_edges(capsys):
    code, report, _ = run_json(capsys, "hyp", "delta", "--family", "cycle:8", "--four-point")
    assert code == 0
    assert report["results"]["rips_delta"] == [2, 1]
    code, report, _ = run_json(capsys, "hyp", "delta", "--family", "grid:3x5")
    assert code == 0 and report["results"]["vertices"] == 15
    with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as fh:
        fh.write("0 1\n1 2\n2 3\n3 0\n")
        name = fh.name
    try:
        code, report, _ = run_json(capsys, "hyp", "delta", "--edges", name)
        assert code == 0 and report["results"]["vertices"] == 4
    finally:
        os.unlink(name)


def test_hyp_delta_four_point_bounds_cells_not_vertices(capsys, monkeypatch):
    import oelab.hyperbolicity

    # 225 vertices: refused (exit 1) while the four-point scan had a vertex cap
    code, report, _ = run_json(capsys, "hyp", "delta", "--family", "grid:15", "--four-point")
    assert code == 0
    assert report["results"]["vertices"] == 225 and report["results"]["four_point_delta"] == [14, 1]
    # the first batch of the 8-cycle, its 4 antipodal pairs, spans 4 * 64 cells
    monkeypatch.setattr(oelab.hyperbolicity, "FOUR_POINT_MAX_CELLS", 63)
    code, out, err = run_cli(capsys, "hyp", "delta", "--family", "cycle:8", "--four-point")
    assert code == 1 and not out
    assert err.startswith("ResourceExhausted: four-point scan needs more than 63 cells")


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


def test_hyp_extract_past_its_budget_exits_1(capsys):
    # 299 vertices, scanned in a block of 187: the first page of interval rows
    # passes 1 MB, and the extraction stops there with nothing on stdout; it
    # samples no triangles
    code, out, err = run_cli(capsys, "hyp", "extract", "--family", "cayley-ball:heis:5", "--budget", "1")
    assert code == 1 and not out
    assert err.startswith("ResourceExhausted: interval rows need ~1.68 MB > budget 1 MB (|V| = 187)")


def test_hyp_commands_take_no_seed(capsys):
    # none of them reads randomness (tree:N:SEED carries its own seed)
    code, out, err = run_cli(capsys, "hyp", "extract", "--family", "grid:4", "--seed", "3")
    assert code == 1 and not out
    assert err.startswith("usage error") and "--seed" in err
    code, report, _ = run_json(capsys, "hyp", "delta", "--family", "grid:4")
    assert code == 0 and report["seed"] is None and "seed" not in report["parameters"]


def test_hyp_grid_40_is_exact_under_the_default_budget(capsys):
    # all interval rows would take 2 n^3 bytes, 8,192 MB; the scan reads 4 sources
    code, report, _ = run_json(capsys, "hyp", "delta", "--family", "grid:40")
    assert code == 0 and report["results"]["rips_delta"] == [39, 1]
    code, report, _ = run_json(capsys, "hyp", "extract", "--family", "grid:40")
    assert code == 0 and report["results"]["delta"] == [39, 1]
    assert report["results"]["self_audit"]["pass"]


@pytest.mark.parametrize("family", ["tree:400:1", "path:250"])
def test_hyp_trees_answer_both_deltas_at_once(capsys, family):
    code, report, _ = run_json(capsys, "hyp", "delta", "--family", family, "--four-point")
    assert code == 0
    assert report["results"]["rips_delta"] == [0, 1] == report["results"]["four_point_delta"]


def test_hyp_block_graph_answers_both_deltas_at_once(tmp_path):
    # a path with one triangle is no tree, but every block is a clique: both
    # scans used to visit every pair (the four-point one stopped with exit 1)
    edges = tmp_path / "path-with-chord.txt"
    edges.write_text("".join(f"{i} {i + 1}\n" for i in range(249)) + "0 2\n")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(oelab.__file__))
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    argv = ["hyp", "delta", "--edges", str(edges), "--four-point"]
    proc = subprocess.run(
        [sys.executable, "-m", "oelab.cli", *argv], env=env, capture_output=True, text=True, timeout=10
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)["results"]
    assert results["vertices"] == 250
    assert results["rips_delta"] == [0, 1] == results["four_point_delta"]


def test_profile_budget_stops_a_long_search_quickly():
    # each step of the frozenset search cost O(n |S|), so this ran past 60 s
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(oelab.__file__))
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    argv = ["profile", "--group", "zn:2", "--n", "2000"]
    proc = subprocess.run(
        [sys.executable, "-m", "oelab.cli", *argv], env=env, capture_output=True, text=True, timeout=10
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert "profile search budget hit after 200000 supports" in proc.stderr


def test_hyp_extract_on_a_large_tree_is_not_applicable(capsys):
    code, report, _ = run_json(capsys, "hyp", "extract", "--family", "tree:2000:1")
    assert code == 0
    assert report["results"] == {"not_applicable": "graph is 0-thin (a tree-like interval structure)"}


_README_HYP = [
    (
        ["hyp", "delta", "--family", "grid:10", "--four-point"],
        {
            "vertices": 100,
            "rips_delta": [9, 1],
            "convention": "metric-interval Rips constant (exact for vertex intervals)",
            "four_point_delta": [9, 1],
        },
    ),
    (
        ["hyp", "audit-cycle", "--family", "cycle:12", "--cycle", "0,1,2,3,4,5,6,7,8,9,10,11"],
        {
            "distortion": {"n": 12, "a": [1, 1], "b": [1, 1], "witness_a": [0, 1], "witness_b": [0, 1]},
            "rips_delta": [3, 1],
            "bound": 6.169925001442312,
            "within_bound": True,
        },
    ),
    (
        ["hyp", "extract", "--family", "grid:20"],
        {
            "delta": [19, 1],
            "cycle_length": 76,
            # the boundary of the 20x20 grid, from vertex 20 round to vertex 0
            "cycle": [*range(20, 381, 20), *range(381, 400), *range(379, 18, -20), *range(18, -1, -1)],
            "distortion": {"n": 76, "a": [19, 37], "b": [1, 1], "witness_a": [8, 47], "witness_b": [0, 1]},
            "discrete_slack": 2,
            "self_audit": {"min_length": 1, "contraction_floor": [1, 35640], "pass": True},
        },
    ),
]


@pytest.mark.parametrize("argv,results", _README_HYP, ids=[argv[1] for argv, _ in _README_HYP])
def test_readme_hyp_commands_keep_their_results(capsys, argv, results):
    code, report, _ = run_json(capsys, *argv)
    assert code == 0 and report["results"] == results


def test_hyp_extract_reads_the_block_that_attains_delta(capsys):
    # the ll:2 ball of radius 5 (84 vertices) attains delta 2 in its
    # 26-vertex block; the cycle comes from that block's witness (14, 52, 0, 22)
    code, report, _ = run_json(capsys, "hyp", "extract", "--family", "cayley-ball:ll:2:5")
    assert code == 0
    assert report["results"] == {
        "delta": [2, 1],
        "cycle_length": 8,
        "cycle": [21, 22, 74, 73, 7, 8, 15, 14],
        "distortion": {"n": 8, "a": [1, 1], "b": [1, 1], "witness_a": [0, 1], "witness_b": [0, 1]},
        "discrete_slack": 2,
        "self_audit": {"min_length": 1, "contraction_floor": [1, 35640], "pass": True},
    }


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
    code, out, err = run_cli(capsys, "tiling", "verify", "--builtin", "zn:2", "--group", "zn:3", "--k", "1")
    assert code == 1 and out == ""
    assert "tiles zn:2, not 'zn:3'" in err


def test_budget_environment_must_be_an_integer(capsys, monkeypatch):
    # only commands without --budget read OELAB_BUDGET_MB
    monkeypatch.setenv("OELAB_BUDGET_MB", "abc")
    for argv in (["tiling", "verify", "--builtin", "zn:1", "--k", "1"], ["hyp", "delta", "--family", "path:4"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert "OELAB_BUDGET_MB must be an integer" in err
    code, _, _ = run_cli(capsys, "hyp", "delta", "--family", "path:4", "--budget", "8")
    assert code == 0


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
    # each of these used to pass vacuously, fail every sample, crash, or
    # exit 2 as if an audit had failed
    ("tiling verify --samples -3", ["tiling", "verify", "--builtin", "zn:1", "--k", "1", "--samples", "-3"]),
    ("tiling verify --k -1", ["tiling", "verify", "--builtin", "zn:1", "--k", "-1"]),
    ("couple tail --k -1", ["couple", "tail", *_COUPLE, "--gamma", "zn:1,0", "--k", "-1", "--samples", "20"]),
    ("couple return-time --n -1", ["couple", "return-time", *_COUPLE, "--x0", "0;1", "--n", "-1", "--samples", "5"]),
    ("couple integrate --strata-depth -1", ["couple", "integrate", *_COUPLE, "--gamma", "zn:1,0", "--strata-depth", "-1", "--samples", "20"]),
    ("couple tail --max-depth -1", ["couple", "tail", *_COUPLE, "--gamma", "zn:1,0", "--max-depth", "-1", "--samples", "20"]),
    ("bs-ll tail --M 1", ["bs-ll", "tail", "--k", "2", "--g", "bs:a=1,s=0,n=0", "--M", "1", "--samples", "20"]),
    ("couple tail --k abc", ["couple", "tail", *_COUPLE, "--gamma", "zn:1,0", "--k", "abc"]),
    ("unknown command", ["nosuch"]),
    ("hyp delta --family grid:abc", ["hyp", "delta", "--family", "grid:abc"]),
    ("hyp delta --family tree:5:x", ["hyp", "delta", "--family", "tree:5:x"]),
    ("hyp delta --family cayley-ball:zn:2:x", ["hyp", "delta", "--family", "cayley-ball:zn:2:x"]),
    ("hyp audit-cycle --cycle 0,1,x", ["hyp", "audit-cycle", "--family", "cycle:5", "--cycle", "0,1,x"]),
    ("couple return-time --x0 a", ["couple", "return-time", *_COUPLE, "--x0", "a", "--samples", "5"]),
    # the profile has one search, so --mode is an unknown option
    ("profile --mode int:2", ["profile", "--group", "zn:1", "--n", "3", "--mode", "int:2"]),
    ("profile --mode sets", ["profile", "--group", "zn:1", "--n", "3", "--mode", "sets"]),
    ("couple tail --k above --max-depth", ["couple", "tail", *_COUPLE, "--gamma", "zn:1,0", "--k", "6", "--samples", "1500", "--seed", "2", "--max-depth", "3"]),
    ("hyp audit-cycle --cycle 9,0,1", ["hyp", "audit-cycle", "--family", "cycle:5", "--cycle", "9,0,1"]),
    ("hyp delta --edges 'a b'", ["hyp", "delta", "--edges", "<bad-edges>"]),
    # a budget below 1 used to mean the default (0), skip the disjointness
    # proof (tiling verify) or fail as an exhausted resource
    ("tiling verify --budget -3", ["tiling", "verify", "--builtin", "zn:1", "--k", "1", "--budget", "-3"]),
    ("profile --budget 0", ["profile", "--group", "zn:1", "--n", "3", "--budget", "0"]),
    ("hyp delta --budget 0", ["hyp", "delta", "--family", "path:4", "--budget", "0"]),
    ("hyp audit-cycle --budget -1", ["hyp", "audit-cycle", "--family", "cycle:5", "--cycle", "0,1,2,3,4", "--budget", "-1"]),
    ("hyp extract --budget 0", ["hyp", "extract", "--family", "grid:4", "--budget", "0"]),
    ("hyp delta --budget abc", ["hyp", "delta", "--family", "path:4", "--budget", "abc"]),
    ("hyp audit-cycle without --cycle", ["hyp", "audit-cycle", "--family", "cycle:5"]),
    # malformed specs that used to run: a zero size past --k, an ignored
    # identity parameter, non-finite gauge parameters
    ("tiling verify zblocks:3,0,2", ["tiling", "verify", "--builtin", "zblocks:3,0,2", "--k", "0"]),
    ("couple integrate --gauge identity:abc", ["couple", "integrate", *_COUPLE, "--gamma", "zn:1,0", "--gauge", "identity:abc", "--samples", "20"]),
    ("couple integrate --gauge power:nan", ["couple", "integrate", *_COUPLE, "--gamma", "zn:1,0", "--gauge", "power:nan", "--samples", "20"]),
    ("couple integrate --gauge exp:inf", ["couple", "integrate", *_COUPLE, "--gamma", "zn:1,0", "--gauge", "exp:inf", "--samples", "20"]),
    # every --samples below 1 stops in the sample engine
    ("wreath check --samples 0", ["wreath", "check", "--base", "zn:2,zn:1:grouped:2", "--lamp", "cyclic:3,cyclic:3", "--samples", "0"]),
    ("couple return-time --samples 0", ["couple", "return-time", *_COUPLE, "--x0", "0;1", "--samples", "0"]),
    # an option that was parsed and ignored
    ("bs-ll tail --cap", ["bs-ll", "tail", "--k", "2", "--g", "bs:a=1,s=0,n=0", "--M", "3", "--samples", "20", "--cap", "24"]),
    # a flag that another one left unread: the exact diameter drew no samples,
    # and --family never opened the --edges file
    ("tiling verify --exact-diameter --samples 5", ["tiling", "verify", "--builtin", "zn:1", "--k", "1", "--exact-diameter", "--samples", "5"]),
    ("hyp delta --family --edges", ["hyp", "delta", "--family", "path:4", "--edges", "/nonexistent"]),
    ("hyp delta without a graph", ["hyp", "delta"]),
]


@pytest.mark.parametrize("argv", [a for _, a in _OUT_OF_RANGE], ids=[i for i, _ in _OUT_OF_RANGE])
def test_out_of_range_argument_is_a_usage_error(capsys, tmp_path, argv):
    bad_edges = tmp_path / "edges.txt"
    bad_edges.write_text("0 1\na b\n")
    argv = [str(bad_edges) if a == "<bad-edges>" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and "usage error" in err
    assert out == ""


_REASONS = [
    # a constructor's own reason passes through; text that does not parse gets the generic one
    (["tiling", "verify", "--builtin", "zblocks:3,0,2", "--k", "0"], "letter counts must be >= 1"),
    (["tiling", "verify", "--builtin", "zn:x", "--k", "0"], "bad tiling spec: 'zn:x'"),
    (["couple", "integrate", *_COUPLE, "--gamma", "zn:1,0", "--gauge", "power:0", "--samples", "20"], "power gauge needs p > 0"),
    (["couple", "integrate", *_COUPLE, "--gamma", "zn:1,0", "--gauge", "power:x", "--samples", "20"], "bad gauge spec 'power:x'"),
    (["tiling", "verify", "--builtin", "zn:1", "--k", "1", "--samples", "-2"], "Monte Carlo needs samples >= 1, got -2"),
    (["tiling", "verify", "--builtin", "zn:1", "--k", "1", "--samples", "2", "--exact-diameter"], "--exact-diameter scans every pair, so it takes no --samples"),
]


@pytest.mark.parametrize("argv,reason", _REASONS, ids=[r for _, r in _REASONS])
def test_a_usage_error_states_its_reason(capsys, argv, reason):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"usage error: {reason}\n"


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["couple", "tail", "--help"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "oelab" in capsys.readouterr().out


@pytest.mark.parametrize("samples", ["1", "3"])
def test_couple_return_time_band_survives_zero_stderr(capsys, samples):
    # the plug-in stderr is 0 (or float cancellation) here, which put the
    # margin at -inf (or -1e7); the distribution-free band still passes
    code, report, _ = run_json(
        capsys, "couple", "return-time", *_COUPLE, "--x0", "0;1;2", "--n", "1",
        "--samples", samples, "--seed", "1",
    )
    assert code == 0
    assert report["results"]["pass"] is True


_CHEAP_RUNS = [
    ("tiling verify", ["tiling", "verify", "--builtin", "zn:1", "--k", "1", "--samples", "10"]),
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


# the subcommands that draw take --seed; those that return a table take --format
_DRAWS = {"tiling verify", "couple tail", "couple integrate", "couple return-time", "bs-ll tail", "wreath check"}
_TABLES = {"couple tail", "couple integrate", "profile"}


@pytest.mark.parametrize("command,argv", _CHEAP_RUNS, ids=[c for c, _ in _CHEAP_RUNS])
def test_every_subcommand_reports_through_one_path(capsys, command, argv):
    seed = 3 if command in _DRAWS else None
    code, out, _ = run_cli(capsys, *argv, *([] if seed is None else ["--seed", str(seed)]))
    assert code in (0, 2)
    # only the report is pinned here; test_selftest_quick pins a clean stdout
    report = json.loads(out[out.index("{"):])
    assert set(report) == {"command", "parameters", "seed", "results", "timing_seconds", "version"}
    assert report["command"] == command
    assert report["seed"] == seed == report["parameters"].get("seed")
    assert report["parameters"].get("format") == ("json" if command in _TABLES else None)


@pytest.mark.parametrize("command,argv", _CHEAP_RUNS, ids=[c for c, _ in _CHEAP_RUNS])
def test_an_option_is_taken_only_where_it_changes_the_run(capsys, command, argv):
    code, out, err = run_cli(capsys, *argv, "--format", "csv")
    if command in _TABLES:
        assert code == 0 and not out.startswith("{") and "," in out.splitlines()[0]
    else:
        assert (code, out) == (1, "") and err.startswith("usage error") and "--format" in err
    code, out, err = run_cli(capsys, *argv, "--seed", "3")
    if command in _DRAWS:
        assert code in (0, 2) and json.loads(out)["seed"] == 3
    else:
        assert (code, out) == (1, "") and err.startswith("usage error") and "--seed" in err
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)["seed"] is None
    if command == "tiling verify":
        # it draws only with --samples N (N >= 1), so --seed needs it, and a run without it has no seed
        bare = argv[: argv.index("--samples")]
        code, out, err = run_cli(capsys, *bare, "--seed", "3")
        assert (code, out) == (1, "") and err.startswith("usage error") and "--samples" in err
        code, out, _ = run_cli(capsys, *bare)
        assert code == 0 and json.loads(out)["seed"] is None
