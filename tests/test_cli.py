import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from latslice import cli, slicing
from latslice.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run_module(*argv, timeout=30):
    """Run ``python -m latslice`` on the checkout's sources in a child process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "latslice", *argv], capture_output=True, text=True, env=env, timeout=timeout
    )


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_cube3(capsys):
    code, out, _ = run(capsys, "count", "--body", "cube:3")
    assert code == 0
    assert out == "27\n"


def test_slice_cross3_diagonal(capsys):
    code, out, _ = run(capsys, "slice", "--body", "cross:3", "--normal", "1,1,1")
    assert code == 0
    assert out == "1\n"


def test_slice_normal_u_prefix(capsys):
    code, out, _ = run(capsys, "slice", "--body", "cross:3", "--normal", "u:1,1,1")
    assert code == 0 and out == "1\n"


def test_slice_basis_spec(capsys):
    code, out, _ = run(capsys, "slice", "--body", "cube:3", "--normal", "1,0,0;0,1,0")
    assert code == 0 and out == "9\n"


def test_slice_max_search(capsys):
    code, out, _ = run(capsys, "slice", "--body", "cube:3", "--m", "2")
    assert code == 0
    assert "best: 9" in out


@pytest.mark.parametrize("body, d", [("cube:3", 3), ("cross:4", 4)])
def test_slice_witness_reads_back_as_its_subspace(capsys, body, d):
    # a line's witness ends in ';', so --normal reads it as a basis, not as a normal
    for m in range(1, d):
        code, out, _ = run(capsys, "slice", "--body", body, "--m", str(m), "--format", "json")
        assert code == 0
        res = json.loads(out)
        assert res["witness"].endswith(";") == (m == 1)
        code, out, _ = run(capsys, "slice", "--body", body, "--normal", res["witness"])
        assert (code, out) == (0, f"{res['best_count']}\n"), (m, res["witness"])


def test_verify_main_json(capsys):
    code, out, _ = run(
        capsys, "verify", "main", "--body", "cross:4", "--m", "3", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "main"
    assert data["count"] == 9
    assert data["max_slice"]["best_count"] == 7
    assert all(e["passed"] for e in data["chain"])


def test_verify_unconditional_text(capsys):
    code, out, _ = run(capsys, "verify", "unconditional", "--body", "cube:3")
    assert code == 0
    assert "[pass]" in out and "FAIL" not in out


def test_verify_hypothesis_violated_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "dim2", "--body", "box:1,2/5")
    assert code == 0
    assert "hypothesis violated" in out


def test_brunn_json_profile_shape(capsys):
    code, out, _ = run(
        capsys, "brunn", "--body", "cross:3", "--normal", "1,1,1", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["normal"] == [1, 1, 1]
    assert data["levels"] == {"-1": 3, "0": 1, "1": 3}
    assert data["holds"] is True


def test_brunn_labels_the_points_once(capsys, monkeypatch):
    calls = []
    original = slicing.slice_profile

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(slicing, "slice_profile", counted)
    monkeypatch.setattr(cli, "slice_profile", counted)
    assert run(capsys, "brunn", "--body", "cube:2", "--normal", "1,1") == (
        0,
        "levels: (-2,):1 (-1,):2 (0,):3 (1,):2 (2,):1\n"
        "central: 3  max translate: 3\n"
        "min ratio: 1  bound: 1/9  holds: True\n",
        "",
    )
    assert len(calls) == 1


def test_pick_subcommand(capsys):
    code, out, _ = run(capsys, "pick", "--body", "cube:2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert (data["A"], data["I"], data["B"]) == ("4", 1, 8)


def test_pick_on_collinear_lattice_points_names_them_exit1(capsys):
    # box:1/2,3 holds only the points (0, y): a segment, not a polygon
    code, out, err = run(capsys, "pick", "--body", "box:1/2,3")
    assert code == 1
    assert out == ""
    assert err == "error: the lattice points of box:1/2,3 are collinear, so their hull has no area\n"


def test_gauss_subcommand(capsys):
    code, out, _ = run(capsys, "gauss", "--body", "cube:2", "--radii", "1,2,3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["counts"] == [9, 25, 49]
    assert data["strictly_decreasing"] is True


def test_volume_exact_string(capsys):
    code, out, _ = run(capsys, "volume", "--body", "cross:3", "--format", "json")
    assert code == 0
    assert json.loads(out)["volume"] == "4/3"


def test_unknown_body_exit1(capsys):
    code, _, err = run(capsys, "count", "--body", "dodecahedron:3")
    assert code == 1
    assert "error" in err


def test_malformed_rational_exit1(capsys):
    code, _, err = run(capsys, "count", "--body", "box:1/0,2")
    assert code == 1


def test_bad_subspace_exit1(capsys):
    code, _, err = run(capsys, "slice", "--body", "cube:2", "--normal", "0,0")
    assert code == 1


@pytest.mark.parametrize(
    "argv, entry",
    [
        (("slice", "--body", "cube:3", "--normal", "1.5,0,0"), "1.5"),
        (("brunn", "--body", "cube:3", "--normal", "1,x,0"), "x"),
        (("gauss", "--body", "cube:2", "--normal", "1,0;0,1/2"), "1/2"),
        (("slice", "--body", "cube:3", "--normal", "u:"), ""),
    ],
)
def test_non_integer_normal_entry_exit1(capsys, argv, entry):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: bad entry {entry!r} in --normal\n"


def test_integral_normal_entries_still_parse(capsys):
    assert run(capsys, "slice", "--body", "cube:3", "--normal", "2,0,0") == (0, "9\n", "")
    assert run(capsys, "slice", "--body", "cube:3", "--normal", "u:0,-2,0") == (0, "9\n", "")


def test_usage_error_exit1(capsys):
    code = main(["count"])
    capsys.readouterr()
    assert code == 1


def test_scan_rows_carry_seed(capsys):
    code, out, _ = run(
        capsys,
        "scan",
        "main",
        "--body",
        "random:2",
        "--trials",
        "3",
        "--seed",
        "11",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4  # header + 3 trials
    assert [l.split(",")[0] for l in lines[1:]] == ["11", "12", "13"]


def test_scan_determinism_byte_identical(capsys):
    argv = ["scan", "main", "--body", "random:2", "--trials", "4", "--seed", "3", "--format", "json"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_scan_jobs_ordering_matches_serial(capsys):
    for base in (
        ["scan", "main", "--body", "random:2", "--trials", "5", "--seed", "2", "--format", "csv"],
        ["scan", "main", "--body", "random:3", "--m", "2", "--trials", "4", "--format", "json"],
    ):
        _, serial, _ = run(capsys, *base)
        _, parallel, _ = run(capsys, *base, "--jobs", "2")
        assert serial == parallel


def test_scan_jobs_start_no_more_workers_than_trials(capsys, monkeypatch):
    # a fork pool starts all of its workers at the first submit, so the pool size is what gets forked
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    base = ["scan", "main", "--body", "random:3", "--trials", "2"]
    _, serial, _ = run(capsys, *base)
    code, out, _ = run(capsys, *base, "--jobs", "64")
    assert (code, out, sizes) == (0, serial, [2])
    for trials in ("1", "0"):  # one task or none runs in process
        code, out, _ = run(capsys, "scan", "main", "--body", "random:3", "--trials", trials, "--jobs", "8")
        assert code == 0
    assert sizes == [2]


def test_scan_bad_counts_exit1(capsys):
    base = ["scan", "main", "--body", "random:3"]
    for flags in (["--trials", "-2"], ["--jobs", "0"], ["--jobs", "-3"]):
        code, out, err = run(capsys, *base, *flags)
        assert code == 1
        assert out == ""
        assert "error:" in err


def test_slice_non_positive_normal_bound_exit1(capsys):
    for bound in ("0", "-1"):
        code, out, err = run(
            capsys, "slice", "--body", "cube:5", "--m", "4", f"--normal-bound={bound}"
        )
        assert code == 1
        assert out == ""
        assert "error:" in err


@pytest.mark.parametrize("flag, value", [("--m", "2"), ("--normal-bound", "0"), ("--normal-bound", "3")])
def test_slice_normal_takes_no_search_flags(capsys, flag, value):
    # --normal counts one given subspace; the max-slice flags would be ignored
    code, out, err = run(capsys, "slice", "--body", "cube:3", "--normal", "1,0,0", flag, value)
    assert code == 1
    assert out == ""
    assert err == f"error: slice --normal counts one given subspace and takes no {flag}\n"
    assert run(capsys, "slice", "--body", "cube:3", "--normal", "1,0,0") == (0, "9\n", "")


@pytest.mark.parametrize("kind", ["main", "dim2"])
@pytest.mark.parametrize("body", ["cube:3", "box:1/2,3"])
def test_verify_non_positive_normal_bound_exit1(capsys, kind, body):
    # box:1/2,3 violates the hypothesis; the bound is still rejected first
    code, out, err = run(capsys, "verify", kind, "--body", body, "--normal-bound", "0")
    assert code == 1
    assert out == ""
    assert err == "error: normal_bound must be at least 1\n"


def test_verify_unconditional_takes_no_normal_bound(capsys):
    for bound in ("0", "3"):
        code, out, err = run(capsys, "verify", "unconditional", "--body", "box:1/2,3", "--normal-bound", bound)
        assert code == 1
        assert out == ""
        assert err == "error: the unconditional chain takes no --normal-bound\n"


@pytest.mark.parametrize(
    "argv, m, checked",
    [
        (["verify", "unconditional", "--body", "cube:3"], 1, 2),
        (["verify", "dim2", "--body", "cube:2"], 2, 1),
        (["scan", "unconditional", "--body", "random-unconditional:4", "--trials", "1"], 2, 3),
        (["scan", "dim2", "--body", "random:2", "--trials", "1"], 2, 1),
    ],
    ids=["verify-unconditional", "verify-dim2", "scan-unconditional", "scan-dim2"],
)
def test_chain_rejects_an_m_it_does_not_check(capsys, argv, m, checked):
    code, out, err = run(capsys, *argv, "--m", str(m))
    assert code == 1
    assert out == ""
    assert err == f"error: the {argv[1]} chain checks m = {checked}, not --m {m}\n"
    code, out, err = run(capsys, *argv, "--m", str(checked))
    assert code == 0
    assert err == ""
    assert out == run(capsys, *argv)[1]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "dim2", "--body", "cube:2", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    data = json.loads(target.read_text())
    assert data["kind"] == "dim2"


def test_env_cap_respected(capsys, monkeypatch):
    monkeypatch.setenv("LATSLICE_EXACT_DIM_CAP", "6")
    code, out, _ = run(capsys, "volume", "--body", "cube:6")
    assert code == 0
    assert out.strip() == "64"
    monkeypatch.delenv("LATSLICE_EXACT_DIM_CAP")
    code, _, err = run(capsys, "volume", "--body", "cube:6")
    assert code == 1
    assert "cap" in err


def test_math_failure_exit2(capsys, monkeypatch):
    # fabricate a failing chain entry to exercise the exit-code contract
    import latslice.cli as cli
    from latslice.verify import ChainEntry, SlicingReport

    def fake_verify(body, normal_bound=None, seed=None):
        return SlicingReport(
            kind="dim2", body=body.name, d=2, m=1, count_total=9,
            max_slice_count=3, max_slice_witness="u:0,1", max_slice_exhaustive=True,
            candidates_searched=5, volume=4, volume_polar=None, mahler=None,
            observed_constant_power=None, observed_constant=None,
            chain=(ChainEntry("slicing-inequality", False, "fabricated"),),
        )

    monkeypatch.setattr(cli, "verify_dim2", fake_verify)
    code = cli.main(["verify", "dim2", "--body", "cube:2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "slicing-inequality" in captured.err


def test_gauss_with_normal_cli(capsys):
    code = main(["gauss", "--body", "cube:2", "--radii", "1,2", "--normal", "0,1", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["slice"]["counts"] == [3, 5]
    assert data["slice"]["normal"] == [0, 1]


def test_gauss_zero_radius_exit1(capsys):
    code, out, err = run(capsys, "gauss", "--body", "cube:2", "--radii", "0,1")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_volume_mc_non_positive_samples_exit1(capsys):
    for n in ("0", "-5"):
        code, out, err = run(capsys, "volume", "--body", "cube:2", "--mode", "mc", "--samples", n)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


def test_gauss_empty_radii_exit1(capsys):
    code, out, err = run(capsys, "gauss", "--body", "cube:2", "--radii", ",")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_gauss_bad_radius_exit1(capsys):
    for radii, token in (("1/0", "'1/0'"), ("1,x", "'x'")):
        code, out, err = run(capsys, "gauss", "--body", "cube:2", "--radii", radii)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and token in err


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "main", "--body", "random:0"),
        ("scan", "unconditional", "--body", "random:-2"),
        ("scan", "unconditional", "--body", "random-unconditional:0"),
    ],
    ids=["main-d0", "unconditional-d-2", "uncond-generator-d0"],
)
def test_scan_dimension_below_one_exit1(argv):
    # a generator that never stops redrawing would hang; the child process's timeout bounds it
    proc = run_module(*argv, timeout=20)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and "dimension must be >= 1" in proc.stderr


def test_main_chain_on_d1_body_exit1(capsys):
    for argv in (("verify", "main", "--body", "cube:1"), ("scan", "main", "--body", "random:1", "--trials", "1")):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "needs d >= 2" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "unconditional", "--body", "box:2"),
        ("verify", "unconditional", "--body", "box:1/2"),
        ("scan", "unconditional", "--body", "random-unconditional:1", "--trials", "2"),
    ],
    ids=["verify-d1", "verify-d1-no-lattice-span", "scan-d1"],
)
def test_unconditional_chain_on_d1_body_exit1(capsys, argv):
    assert run(capsys, *argv) == (1, "", "error: the unconditional chain needs d >= 2, got d = 1\n")


@pytest.mark.parametrize("command", ["slice", "brunn", "gauss"])
@pytest.mark.parametrize("normal, vector", [("1,0;0,1", "1,0"), ("1,0;", "1,0"), ("1,0,0;0,1", "0,1")])
def test_normal_basis_vector_of_wrong_length_exit1(capsys, command, normal, vector):
    code, out, err = run(capsys, command, "--body", "cube:3", "--normal", normal)
    assert (code, out) == (1, "")
    assert err == f"error: basis vector {vector!r} has length 2, body dimension is 3\n"


def test_slice_on_d1_body_exit1(capsys):
    # the max-slice search and a basis given by --normal
    for argv in (("slice", "--body", "cube:1", "--m", "1"), ("slice", "--body", "cube:1", "--normal", "1;")):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "needs d >= 2, got d = 1" in err


def test_python_m_entry_point(capsys):
    proc = run_module("count", "--body", "cube:3", "--format", "json")
    code, out, _ = run(capsys, "count", "--body", "cube:3", "--format", "json")
    assert proc.returncode == code == 0
    assert proc.stdout == out


@pytest.mark.parametrize(
    "text",
    [
        '{"vrep": [5]}',
        '{"dim": 2, "hrep": 5}',
        '"vrep"',
        '["hrep", "dim"]',
        '{"dim": [2], "hrep": []}',
        '{"vrep": [[[1]]]}',
        '{"vrep": [[]]}',
        '{"dim": 0, "vrep": [[1]]}',
        '{"dim": 2.5, "hrep": [[["1","0"],"1"],[["0","1"],"1"]]}',
        '{"dim": true, "hrep": [[["1"],"1"],[["-1"],"1"]]}',
    ],
    ids=[
        "vertex-int", "hrep-int", "top-string", "top-list", "dim-list", "coord-list", "vertex-empty", "dim-0",
        "dim-fraction", "dim-bool",
    ],
)
def test_malformed_body_file_exit1(tmp_path, capsys, text):
    path = tmp_path / "body.json"
    path.write_text(text)
    code, out, err = run(capsys, "volume", "--body", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_body_file_float_literals_are_exact(tmp_path, capsys):
    path = tmp_path / "body.json"
    path.write_text('{"dim": 2.0, "vrep": [[0.1, 0], [0, 1]]}')
    code, out, _ = run(capsys, "volume", "--body", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["volume"] == "1/5"


def test_env_cap_not_an_integer_exit1(capsys, monkeypatch):
    monkeypatch.setenv("LATSLICE_EXACT_DIM_CAP", "abc")
    code, out, err = run(capsys, "volume", "--body", "cube:2")
    assert code == 1
    assert out == ""
    assert "LATSLICE_EXACT_DIM_CAP" in err and "'abc'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--body", "cross:2"),
        ("volume", "--body", "cross:2"),
        ("minima", "--body", "cross:2"),
        ("slice", "--body", "cube:3", "--normal", "1,1,1"),
        ("brunn", "--body", "cross:3", "--normal", "1,1,1"),
        ("pick", "--body", "cube:2"),
        ("verify", "dim2", "--body", "cube:2"),
        ("gauss", "--body", "cube:2", "--radii", "1,2"),
    ],
    ids=lambda argv: argv[0],
)
def test_csv_format_outside_scan_exit1(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "csv" in err and err.count("\n") == 1


@pytest.mark.parametrize("kind", ["main", "unconditional", "dim2"])
@pytest.mark.parametrize("d", ["1", "3"])
def test_scan_random_rational_needs_d2_exit1(capsys, kind, d):
    code, out, err = run(capsys, "scan", kind, "--body", f"random-rational:{d}", "--trials", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "random-rational:2" in err


def test_gauss_slice_below_a_hyperplane_scales_with_its_rank(capsys):
    # a line through cube(3): counts 2r + 1 against r^1 * 2, not r^2 * 2
    code, out, _ = run(capsys, "gauss", "--body", "cube:3", "--normal", "1,0,0;", "--radii", "2,4,5/2", "--format", "json")
    assert code == 0
    data = json.loads(out)["slice"]
    assert data["counts"] == [5, 9, 5]
    assert data["expected"] == ["4", "8", "5"]
    assert data["abs_dev"] == ["1", "1", "0"]


@pytest.mark.parametrize(
    "argv, slice_data",
    [
        (
            ("--body", "cross:3", "--normal", "1,1,1", "--radii", "1,2,5/2"),
            {"normal": [1, 1, 1], "counts": [1, 7, 7], "expected": ["3/4", "3", "75/16"],
             "abs_dev": ["1/4", "4", "37/16"]},
        ),
        (
            ("--body", "box:3,1/2,2", "--normal", "1,0,0;0,1,0", "--radii", "1,3"),
            {"normal": [0, 0, 1], "counts": [7, 57], "expected": ["6", "54"], "abs_dev": ["1", "3"]},
        ),
    ],
    ids=["normal", "basis"],
)
def test_gauss_hyperplane_slice_report_unchanged(capsys, argv, slice_data):
    code, out, _ = run(capsys, "gauss", *argv, "--format", "json")
    assert code == 0
    data = json.loads(out)["slice"]
    data.pop("note")
    assert data == slice_data
