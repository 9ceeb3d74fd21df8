"""Command line surface: argument handling, exit codes, output
formats, file emission. Everything goes through cli.main(argv)."""

import hashlib
import inspect
import json
import math
from pathlib import Path

import mpmath
import pytest

from monocert import certify, cli
from monocert.cli import main
from monocert.enclosure import DomainError


# -- eval -----------------------------------------------------------

def test_eval_text_output(capsys):
    assert main(["eval", "F", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("F(1.0) enclosure")
    assert "lo" in out and "hi" in out and "mid" in out
    assert "0.8455686" in out


def test_eval_json_output(capsys):
    assert main(["eval", "omega", "2", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert set(obj) == {"target", "argument", "lo", "hi", "mid"}
    assert obj["target"] == "omega"
    assert obj["argument"] == 2
    assert obj["lo"] < math.pi < obj["hi"]
    assert mpmath.mpf(obj["lo"]) < mpmath.pi < mpmath.mpf(obj["hi"])


def test_eval_all_targets_have_a_value(capsys):
    for target, x in (("F", "2"), ("G", "2"), ("omega", "5"),
                      ("omega_term", "4"), ("q", "1"), ("h", "1"),
                      ("h1", "1"), ("h2", "1")):
        assert main(["eval", target, x]) == 0, target
    capsys.readouterr()


def test_eval_guard_zone_is_inconclusive(capsys):
    assert main(["eval", "F", "1e-9"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("inconclusive:")


def test_eval_ball_root_guard_zone_is_inconclusive(capsys):
    # G's guard zone above 1 behaves like F's; at or below 1 is a domain error
    assert main(["eval", "G", "1.0000001"]) == 3
    assert capsys.readouterr().err.startswith("inconclusive:")
    assert main(["eval", "G", "1"]) == 2
    capsys.readouterr()


def test_eval_domain_and_overflow_errors(capsys):
    assert main(["eval", "G", "0.5"]) == 2
    assert main(["eval", "G", "1.001"]) == 2
    err = capsys.readouterr().err
    assert "binary64" in err
    assert main(["eval", "F", "-1"]) == 2
    assert main(["eval", "omega", "2.5"]) == 2
    assert main(["eval", "omega", "0"]) == 2
    assert main(["eval", "F", "abc"]) == 2
    capsys.readouterr()
    for bad in ("nan", "inf"):
        assert main(["eval", "F", bad]) == 2, bad
        assert "binary64" not in capsys.readouterr().err, bad


@pytest.mark.parametrize("target, x", [
    ("F", "1e300"), ("G", "1e300"), ("G", "1e160"),
    ("F", "1e306"), ("F", "1e307"), ("F", "1.7e308"),
    ("G", "1e306"), ("G", "1e307"), ("G", "1.7e308"),
])
def test_eval_huge_argument_has_finite_enclosure(capsys, target, x):
    # x^2 + 1 is beyond binary64 here, and from about 2.5e305 on so is
    # ln Gamma(x+1), but the value is not; nor is the midpoint, even
    # where lo + hi overflows, so the output is strict JSON
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    assert main(["eval", target, x, "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert obj["lo"] <= obj["mid"] <= obj["hi"]
    with mpmath.workdps(50):
        t = mpmath.mpf(float(x))
        ln_gamma = mpmath.loggamma(t + 1)
        ln_quotient = mpmath.log(t * t + 1) - mpmath.log(t + 1)
        if target == "F":
            value = ln_gamma / ln_quotient
        else:
            value = mpmath.exp((t * mpmath.log(mpmath.pi) - ln_gamma) / ln_quotient)
        assert mpmath.mpf(obj["lo"]) <= value <= mpmath.mpf(obj["hi"])


@pytest.mark.parametrize("target", ["q", "h1"])
def test_eval_core_far_out_has_finite_enclosure(capsys, target):
    # p4(x) ~ x^5 is beyond binary64 at 1e70, but q and h1 ~ x^4 ln x are not
    assert main(["eval", target, "1e70", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    with mpmath.workdps(50):
        t = mpmath.mpf(1e70)
        weight = t**4 + 4 * t**3 - 2 * t**2 - 4 * t - 3
        p4 = t**5 + 3 * t**4 + 2 * t**3 + 2 * t**2 + t - 1
        psi = mpmath.psi(0, t + 1)
        if target == "h1":
            psi -= mpmath.log(mpmath.pi)
        value = weight * psi + p4 * mpmath.psi(1, t + 1)
        assert mpmath.mpf(obj["lo"]) <= value <= mpmath.mpf(obj["hi"])


def test_eval_unknown_target_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "Z", "1"])
    assert exc.value.code == 2


def test_eval_out_writes_file(tmp_path, capsys):
    dest = tmp_path / "value.json"
    assert main(["eval", "q", "1", "--format", "json", "--out", str(dest)]) == 0
    assert capsys.readouterr().out == ""
    obj = json.loads(dest.read_text())
    assert abs(obj["mid"] - 3.468347) < 1e-4


# -- verify ---------------------------------------------------------

def test_verify_lemma_text(capsys):
    assert main(["verify", "lemma2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "lemma2: PASS"


def test_verify_json_matches_library(capsys):
    assert main(["verify", "lemma2", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == certify.report_to_json_text(certify.verify_lemma2())


def test_verify_accepts_grid_flags(capsys):
    rc = main(["verify", "theorem1",
               "--grid-from", "0", "--grid-to", "2", "--grid-step", "0.01"])
    assert rc == 0
    capsys.readouterr()


def test_verify_partial_grid_flags_take_defaults(capsys):
    assert main(["verify", "theorem1", "--grid-to", "2", "--format", "json"]) == 0
    grid_step = json.loads(capsys.readouterr().out)["steps"][-1]
    assert "[0.0, 2.0] (201 points)" in grid_step["description"]


def test_verify_refuses_oversized_grid(capsys):
    # about 5e10 points: refused before the grid is built
    assert main(["verify", "theorem1", "--grid-step", "1e-9"]) == 2
    assert "points" in capsys.readouterr().err
    assert main(["verify", "theorem2", "--grid-to", "inf"]) == 2
    assert "points" in capsys.readouterr().err


def test_verify_grid_midpoint_in_guard_zone_is_inconclusive(capsys):
    # the pair (0, 1e-6) overlaps; its midpoint 5e-7 lies in F's guard
    # zone and snaps onto 0 instead of raising
    rc = main(["verify", "theorem1", "--grid-to", "0.001",
               "--grid-step", "0.000001", "--format", "json"])
    assert rc == 3
    grid_step = json.loads(capsys.readouterr().out)["steps"][-1]
    assert grid_step["status"] == "inconclusive"
    assert grid_step["description"].endswith("offending pair (0.0, 1e-06)")


def test_verify_theorem2_grid_does_not_snap_onto_g_edge(capsys):
    # 1.0000005 lies within the guard radius of 1, which is G's edge, not
    # a removable singularity: the point stays and is refused as given
    rc = main(["verify", "theorem2", "--grid-from", "1.0000005",
               "--grid-to", "2", "--grid-step", "0.5"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "x=1.0000005" in err and "singular edge" in err


@pytest.mark.parametrize("argv, rc, refused", [
    (["lemma2", "--n-max", "3", "--grid-step", "7"], 2, "--n-max"),
    (["theorem1", "--n-max", "3"], 2, "--n-max"),
    (["theorem2", "--n-max", "10", "--grid-from", "2", "--grid-to", "3",
      "--grid-step", "0.5"], 0, None),
    (["remark1", "--grid-from", "5"], 2, "--grid-from"),
])
def test_verify_refuses_flags_the_suite_does_not_take(capsys, argv, rc, refused):
    assert main(["verify", *argv]) == rc
    err = capsys.readouterr().err
    if refused is not None:
        assert err == f"error: verify {argv[0]} takes no {refused}\n"


def test_suite_flags_are_the_verifier_keywords():
    for name, flags in cli._SUITE_FLAGS.items():
        verifier = getattr(certify, f"verify_{name}")
        assert flags == tuple(inspect.signature(verifier).parameters), name


def test_verify_flags_match_library_keywords(capsys):
    argv = ["verify", "theorem1", "--grid-to", "2", "--grid-step", "0.5", "--format", "json"]
    assert main(argv) == 0
    report = certify.verify_theorem1(grid_to=2.0, grid_step=0.5)
    assert capsys.readouterr().out == certify.report_to_json_text(report)


def test_verify_n_max_flag(capsys):
    assert main(["verify", "theorem2", "--n-max", "40"]) == 0
    obj_text = capsys.readouterr().out
    assert "sequence" in obj_text
    assert main(["verify", "theorem2", "--n-max", "3"]) == 2
    capsys.readouterr()


def test_verify_refuses_oversized_n_max(tmp_path, capsys, monkeypatch):
    # the cap is checked on a small one first, so a missing cap fails
    # here instead of building a runaway list below
    monkeypatch.setattr(certify, "_MAX_N_MAX", 40)
    assert main(["verify", "theorem2", "--n-max", "40"]) == 0
    assert main(["verify", "theorem2", "--n-max", "41"]) == 2
    assert main(["verify", "remark1", "--n-max", "41"]) == 2
    assert main(["report-all", "--out", str(tmp_path), "--n-max", "41"]) == 2
    with pytest.raises(DomainError):
        certify.explore_remark2(n_max=41)
    monkeypatch.undo()
    assert certify._MAX_N_MAX == 10**6
    capsys.readouterr()
    for argv in (["verify", "theorem2"], ["verify", "remark1"], ["report-all", "--out", str(tmp_path)]):
        assert main(argv + ["--n-max", "100000000000"]) == 2, argv
        assert "n_max" in capsys.readouterr().err, argv


def test_report_all_checks_n_max_before_any_suite(tmp_path, capsys, monkeypatch):
    def no_suite(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(certify, "verify_lemma2", no_suite)
    for n_max in ("100000000000", "5"):
        out = tmp_path / n_max
        assert main(["report-all", "--out", str(out), "--n-max", n_max]) == 2
        assert "n_max" in capsys.readouterr().err
        assert not out.exists()


def test_verify_remark_trends(capsys):
    assert main(["verify", "remark1", "--n-max", "60"]) == 0
    capsys.readouterr()


def test_verify_unknown_theorem_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "theorem9"])
    assert exc.value.code == 2
    capsys.readouterr()


# -- sequence -------------------------------------------------------

def test_sequence_text_table(capsys):
    assert main(["sequence", "3", "8", "paper"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["n", "lo", "hi", "diff"]
    assert len(lines) == 7
    assert lines[1].endswith("·")
    assert all(ln.endswith("-") for ln in lines[2:])


def test_sequence_json_rows(capsys):
    assert main(["sequence", "3", "20", "paper", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["exponent"] == "paper"
    assert len(obj["rows"]) == 18
    assert obj["rows"][0]["diff"] is None
    assert all(row["diff"] == "-" for row in obj["rows"][1:])
    assert all(row["lo"] <= row["hi"] for row in obj["rows"])


def test_sequence_other_modes(capsys):
    assert main(["sequence", "2", "6", "inv_nlnn"]) == 0
    capsys.readouterr()
    # the unit-ball volume grows up to dimension 5
    assert main(["sequence", "1", "5", "unit", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["diff"] for row in rows] == [None, "+", "+", "+", "+"]


def test_sequence_range_validation(capsys):
    assert main(["sequence", "1", "3", "paper"]) == 2
    assert main(["sequence", "5", "2", "unit"]) == 2
    assert main(["sequence", "3", "3", "unit"]) == 2
    assert main(["sequence", "1", "4", "inv_nlnn"]) == 2
    capsys.readouterr()
    # below the mode's domain: refused before any row is printed
    assert main(["sequence", "2", "5", "paper"]) == 2
    assert capsys.readouterr().out == ""


def test_sequence_refuses_oversized_range(capsys, monkeypatch):
    # the cap is checked on a small one first, so a missing cap fails
    # here instead of starting a runaway table below
    monkeypatch.setattr(cli, "_MAX_SEQUENCE_ROWS", 5)
    assert main(["sequence", "3", "7", "paper"]) == 0
    assert main(["sequence", "3", "8", "paper"]) == 2
    monkeypatch.undo()
    assert cli._MAX_SEQUENCE_ROWS == 10**6
    capsys.readouterr()
    assert main(["sequence", "3", "100000000000", "paper"]) == 2
    assert "rows" in capsys.readouterr().err


def test_sequence_unknown_exponent(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sequence", "3", "5", "mystery"])
    assert exc.value.code == 2
    capsys.readouterr()


# -- report-all -----------------------------------------------------

def test_report_all_bundle(tmp_path, capsys):
    out = tmp_path / "bundle"
    assert main(["report-all", "--out", str(out), "--n-max", "20"]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["lemma2.json", "remark1.json", "summary.json",
                     "theorem1.json", "theorem2.json"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["overall"] == "pass"
    assert summary["exit_code"] == 0
    assert set(summary["theorems"]) == {"lemma2", "theorem1", "theorem2", "remark1"}
    progress = capsys.readouterr().out
    assert "summary: pass" in progress
    # each per-theorem file parses back into the schema
    obj = json.loads((out / "theorem2.json").read_text())
    assert obj["overall"] == "pass"
    assert len(obj["steps"]) == 9


def test_report_all_reproduces_replay_hashes(tmp_path, capsys):
    # the benchmark's replay oracle: every report byte is pinned
    pinned = json.loads(
        (Path(__file__).resolve().parents[1] / "bench" / "replay_sha256.json").read_text()
    )
    assert main(["report-all", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for name, digest in pinned.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_report_all_unwritable_destination(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a plain file")
    rc = main(["report-all", "--out", str(blocker / "sub"), "--n-max", "20"])
    assert rc == 2
    assert "not writable" in capsys.readouterr().err


@pytest.mark.parametrize("argv, dest", [
    (["verify", "lemma2"], "missing/x.txt"),
    (["eval", "F", "1"], "."),
    (["sequence", "3", "5", "unit"], "missing/x.txt"),
])
def test_unwritable_out_is_usage_error(tmp_path, capsys, argv, dest):
    # a missing directory or a directory as the file: exit 2, not the
    # "refuted" exit 1 of an uncaught error
    assert main([*argv, "--out", str(tmp_path / dest)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: destination not writable: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        main([])
    capsys.readouterr()
