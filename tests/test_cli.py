"""Command-line interface, exercised in process plus one real subprocess."""

import json
import re
import subprocess
import sys

import pytest

from nsfd import cli
from nsfd.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_simulate_writes_trajectory_csv(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--model", "model1", "--scheme", "nsfd",
        "--h", "0.1", "--x0", "0.5", "--y0", "0.5", "--t-end", "20",
        "--out", str(tmp_path))
    assert code == 0
    path = tmp_path / "model1_nsfd_h0.1.csv"
    assert path.exists()
    assert str(path) in out
    assert "final t=20" in out
    lines = path.read_text().splitlines()
    assert lines[0] == "k,t,x,y"
    assert len(lines) == 202  # header + 201 grid points
    assert lines[1] == "0,0,0.5,0.5"


def test_simulate_accepts_weighted_scheme(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--model", "model2", "--scheme", "ensfd",
        "--weight", "exp:2", "--h", "5", "--x0", "0.4", "--y0", "0.4",
        "--t-end", "100", "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "model2_ensfd-exp2_h5.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "ghosts"])
@pytest.mark.parametrize("first,second", [
    (("--weight", "exp:0.5", "--h", "0.5"), ("--weight", "exp:2", "--h", "0.5")),
    (("--weight", "exp:0.5", "--h", "0.1"), ("--weight", "exp:0.5", "--h", "0.1000001")),
    (("--weight", "exp:1.0000001", "--h", "2"), ("--weight", "exp:1", "--h", "2")),
])
def test_distinct_runs_write_distinct_files(tmp_path, capsys, command, first, second):
    if command == "simulate":
        base = (command, "--model", "model2", "--scheme", "ensfd", "--x0", "0.4",
                "--y0", "0.4", "--t-end", "5", "--out", str(tmp_path))
    else:
        base = (command, "--model", "model2", "--scheme", "ensfd", "--box", "2,2",
                "--out", str(tmp_path))
    assert run_cli(capsys, *base, *first)[0] == 0
    assert run_cli(capsys, *base, *second)[0] == 0
    assert len(list(tmp_path.iterdir())) == 2


def test_equilibria_reports_model2_payload(capsys):
    code, out, _ = run_cli(capsys, "equilibria", "--model", "model2",
                           "--h", "0.5,2.0")
    assert code == 0
    payload = json.loads(out)
    assert payload["model"] == "model2"
    assert payload["degenerate_families"] == []
    eqs = payload["equilibria"]
    assert [e["family"] for e in eqs] == ["O", "E3", "E1"]
    coex = eqs[1]
    assert coex["point"]["x"] == pytest.approx(0.25, abs=1e-9)
    assert [d["h"] for d in coex["discrete"]] == [0.5, 2.0]
    assert coex["discrete"][0]["verdict"] == "asymptotically_stable"
    assert coex["discrete"][1]["verdict"] == "unstable"
    assert coex["critical_step"]["bound"] == pytest.approx(1.0, abs=1e-9)
    assert coex["critical_step"]["bound_a"] == "unbounded"
    # boundary families carry no step bound
    assert eqs[0]["critical_step"] is None
    assert eqs[2]["critical_step"] is None


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_equilibria_at_huge_steps_is_strict_json(capsys):
    # an asymptotically stable coexistence point with no critical step: its
    # verdict holds at every finite step, and no NaN reaches the payload
    code, out, _ = run_cli(capsys, "equilibria", "--model", "rma:3,0.5,2,0.3",
                           "--h", "1e150,1e160,1e300,1.7e308")
    assert code == 0
    payload = json.loads(out, parse_constant=_refuse_constant)
    (coex,) = [e for e in payload["equilibria"] if e["family"] == "E3"]
    assert coex["critical_step"]["bound"] == "unbounded"
    assert [d["verdict"] for d in coex["discrete"]] == ["asymptotically_stable"] * 4
    # 1 + e f+ overflows at the origin: its multiplier is the string "Infinity"
    code, out, _ = run_cli(capsys, "equilibria", "--model", "rma:0.5,2,1.5,0.4",
                           "--h", "1.7e308")
    assert code == 0
    payload = json.loads(out, parse_constant=_refuse_constant)
    (origin,) = [e for e in payload["equilibria"] if e["family"] == "O"]
    assert origin["discrete"][0]["gamma1"]["re"] == "Infinity"


def test_equilibria_can_also_write_a_file(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "equilibria", "--model", "model1",
                           "--out", str(tmp_path))
    assert code == 0
    path = tmp_path / "model1_equilibria.json"
    assert path.exists()
    assert json.loads(path.read_text()) == json.loads(out)


def test_custom_parameter_selector_matches_named_model(capsys):
    code_a, out_a, _ = run_cli(capsys, "equilibria", "--model", "model2")
    code_b, out_b, _ = run_cli(capsys, "equilibria", "--model", "rma:2,1,1,0.2")
    assert code_a == code_b == 0
    a, b = json.loads(out_a), json.loads(out_b)
    assert a["equilibria"] == b["equilibria"]


def test_compare_writes_one_row_per_scheme_step_pair(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--model", "model1", "--scheme", "nsfd,euler,rk4",
        "--h", "0.1,1", "--x0", "15", "--y0", "0.1", "--t-end", "5",
        "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "model1_compare.csv").read_text().splitlines()
    assert len(lines) == 7
    assert lines[1].startswith("nsfd,")
    assert lines[3].startswith("euler,")
    euler_small = lines[3].split(",")
    assert euler_small[8] == "1"  # positivity lost on the first step


def test_convergence_writes_errors_and_slope(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "convergence", "--model", "model1", "--scheme", "nsfd",
        "--h", "0.1,0.05,0.025,0.0125", "--x0", "0.4", "--y0", "0.4",
        "--t-end", "5", "--out", str(tmp_path))
    assert code == 0
    assert "slope 0.98" in out
    reference = re.fullmatch(r"reference h=(\S+) error=(\S+)", out.splitlines()[2])
    assert 0.0 < float(reference[2]) <= 1e-7 * 0.006
    lines = (tmp_path / "model1_nsfd_convergence.csv").read_text().splitlines()
    assert lines[0] == "scheme,h,sup_error,slope,residual"
    assert len(lines) == 5


def test_convergence_files_keep_the_weight(tmp_path, capsys):
    base = ("convergence", "--model", "model1", "--scheme", "ensfd",
            "--h", "0.1,0.05,0.025,0.0125", "--x0", "0.4", "--y0", "0.4",
            "--t-end", "1", "--out", str(tmp_path))
    for weight in ("exp:0.5", "exp:2", "identity"):
        assert run_cli(capsys, *base, "--weight", weight)[0] == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "model1_ensfd-exp0.5_convergence.csv", "model1_ensfd-exp2_convergence.csv",
        "model1_ensfd_convergence.csv"]


def test_compare_files_keep_the_weight(tmp_path, capsys):
    base = ("compare", "--model", "model2", "--scheme", "ensfd", "--h", "0.5,2",
            "--x0", "0.4", "--y0", "0.4", "--t-end", "5", "--out", str(tmp_path))
    names = {"exp:2": "model2_compare-exp2.csv", "exp:0.5": "model2_compare-exp0.5.csv",
             "identity": "model2_compare.csv"}
    for weight, name in names.items():
        code, out, _ = run_cli(capsys, *base, "--weight", weight)
        assert code == 0
        assert out == f"{tmp_path / name}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names.values())
    # each file holds its own weight's rows
    assert len({(tmp_path / name).read_text() for name in names.values()}) == 3


def test_compare_weighs_only_the_ensfd_entries(tmp_path, capsys):
    base = ("compare", "--model", "model2", "--h", "0.5", "--x0", "1", "--y0", "1",
            "--t-end", "5")
    code, out, _ = run_cli(capsys, *base, "--scheme", "nsfd,ensfd", "--weight", "exp:2",
                           "--out", str(tmp_path / "both"))
    assert code == 0 and out == f"{tmp_path / 'both' / 'model2_compare-exp2.csv'}\n"
    header, nsfd_row, ensfd_row = (tmp_path / "both" / "model2_compare-exp2.csv").read_text() \
        .splitlines()
    # each row is the row its scheme gives when listed alone
    for scheme, weight, row in (("nsfd", "identity", nsfd_row), ("ensfd", "exp:2", ensfd_row)):
        assert run_cli(capsys, *base, "--scheme", scheme, "--weight", weight,
                       "--out", str(tmp_path / scheme))[0] == 0
        alone = next((tmp_path / scheme).iterdir()).read_text().splitlines()
        assert alone == [header, row]
    assert nsfd_row.split(",")[1:] != ensfd_row.split(",")[1:]

    # a weight with no ensfd entry to go to is a usage error
    for schemes in ("nsfd", "nsfd,rk4"):
        with pytest.raises(SystemExit) as exc:
            main([*base, "--scheme", schemes, "--weight", "exp:2", "--out", str(tmp_path / "no")])
        assert exc.value.code == 2
        assert "--weight only applies to the ensfd scheme" in capsys.readouterr().err
    assert not (tmp_path / "no").exists()


def test_equilibria_files_keep_the_weight(tmp_path, capsys):
    base = ("equilibria", "--model", "model2", "--h", "0.5,2", "--out", str(tmp_path))
    texts = {}
    for weight in ("exp:2", "exp:1.0000001", "identity"):
        code, out, _ = run_cli(capsys, *base, "--weight", weight)
        assert code == 0
        texts[weight] = out
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "model2_equilibria-exp1.0000001.json", "model2_equilibria-exp2.json",
        "model2_equilibria.json"]
    assert (tmp_path / "model2_equilibria-exp2.json").read_text() == texts["exp:2"]
    assert (tmp_path / "model2_equilibria.json").read_text() == texts["identity"]


def test_ghosts_reports_spurious_points_as_json(capsys):
    code, out, _ = run_cli(capsys, "ghosts", "--model", "model1",
                           "--scheme", "rk2", "--h", "0.1")
    assert code == 0
    payload = json.loads(out)
    assert payload["scheme"] == "rk2"
    assert payload["ghost_count"] >= 1
    genuine = [p for p in payload["fixed_points"] if p["genuine"]]
    assert len(genuine) == 2


def test_ghosts_empty_for_positivity_scheme_in_requested_box(capsys):
    code, out, _ = run_cli(capsys, "ghosts", "--model", "model2",
                           "--scheme", "nsfd", "--h", "2", "--box", "10,10")
    assert code == 0
    payload = json.loads(out)
    assert payload["box"] == [10.0, 10.0]
    assert payload["ghost_count"] == 0
    assert len(payload["fixed_points"]) == 3


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--model", "model1", "--scheme", "leapfrog",
              "--h", "0.1", "--x0", "1", "--y0", "1", "--t-end", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["orbit"])
    assert exc.value.code == 2
    # a malformed --weight of equilibria, as of every other subcommand
    for weight in ("bogus", "exp:-1"):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["equilibria", "--model", "model2", "--h", "1", "--weight", weight])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


def test_the_shared_parser_survives_usage_errors(tmp_path, capsys, monkeypatch):
    # main reuses one parser; a usage error from argparse or from the
    # dispatcher must leave it giving the bytes of a fresh parser
    assert cli._shared_parser() is cli._shared_parser()
    argv = ["simulate", "--model", "model2", "--scheme", "rk4", "--h", "0.5",
            "--x0", "0.4", "--y0", "0.4", "--t-end", "20", "--out", str(tmp_path)]
    results = []
    for parser_for_call in (cli._shared_parser, cli.build_parser):
        monkeypatch.setattr(cli, "_shared_parser", parser_for_call)
        for bad in (["simulate", "--model", "model2"],
                    ["compare", "--model", "model2", "--scheme", "leapfrog", "--h", "0.1",
                     "--x0", "1", "--y0", "1", "--t-end", "1"]):
            with pytest.raises(SystemExit) as exc:
                main(bad)
            assert exc.value.code == 2
            assert capsys.readouterr().err.startswith("usage: nsfd")
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        results.append((out, (tmp_path / "model2_rk4_h0.5.csv").read_bytes()))
    assert results[0] == results[1]


def test_runtime_errors_exit_1(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--model", "rma:2,-1,1,0.2", "--scheme", "nsfd",
        "--h", "0.1", "--x0", "1", "--y0", "1", "--t-end", "1")
    assert code == 1
    assert err.startswith("error:")
    code, _, err = run_cli(
        capsys, "simulate", "--model", "model1", "--scheme", "nsfd",
        "--h", "-0.5", "--x0", "1", "--y0", "1", "--t-end", "1")
    assert code == 1
    assert "step size" in err


@pytest.mark.parametrize("bad", ["0", "-0.1", "nan", "inf"])
@pytest.mark.parametrize("scheme", ["nsfd", "ensfd", "euler", "rk2", "rk4"])
def test_ghosts_refuses_a_bad_step(capsys, scheme, bad):
    code, out, err = run_cli(capsys, "ghosts", "--model", "model1", "--scheme", scheme,
                             f"--h={bad}")
    assert (code, out) == (1, "")
    assert err.startswith("error: step size must be positive and finite")


@pytest.mark.filterwarnings("error")
def test_ghosts_refuses_a_box_whose_extension_overflows(capsys):
    # rk2's seed grid reaches 1.1 * 1.7e308, which overflows: a refusal,
    # not a report of no fixed points, not even O
    code, out, err = run_cli(capsys, "ghosts", "--model", "model2", "--scheme", "rk2",
                             "--h", "1", "--box", "1.7e308,1")
    assert (code, out) == (1, "")
    assert err.startswith("error: search box (1.7e+308, 1.0) is too large for rk2")


@pytest.mark.parametrize("weight", ["identity", "exp:2"])
@pytest.mark.parametrize("bad", ["0", "-0.1", "nan", "inf"])
def test_equilibria_refuses_a_bad_step(tmp_path, capsys, weight, bad):
    code, out, err = run_cli(capsys, "equilibria", "--model", "model2", f"--h=0.5,{bad}",
                             "--weight", weight, "--out", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith("error: step size must be positive and finite")
    assert list(tmp_path.iterdir()) == []


def test_console_entry_point_runs_in_a_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "nsfd", "simulate", "--model", "model2",
         "--scheme", "nsfd", "--h", "0.5", "--x0", "0.4", "--y0", "0.4",
         "--t-end", "10", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert (tmp_path / "model2_nsfd_h0.5.csv").exists()
