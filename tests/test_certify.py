"""Proof replay drivers: step layout, status algebra, grid
certificates, mutation sensitivity, deterministic serialization."""

import hashlib
import inspect
import json
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from monocert import certify
from monocert.certify import (
    ANCHORS,
    FAIL,
    INCONCLUSIVE,
    PASS,
    GridCertificate,
    VerificationReport,
    _anchor_step,
    explore_remark2,
    grid_monotone_certificate,
    meet_status,
    report_to_json_obj,
    report_to_json_text,
    report_to_text,
    verify_lemma2,
    verify_remark1,
    verify_theorem1,
    verify_theorem2,
)
from monocert.enclosure import DomainError, Enclosure
from monocert.exactpoly import RationalPolynomial
from monocert.targets import (
    LEMMA_POLYS,
    LOG_PI_POLYS,
    LogPiPolynomial,
    gamma_log_ratio,
    log_ball_volume_root,
)


def _ids(report: VerificationReport):
    return [s.id for s in report.steps]


def _failed_ids(report: VerificationReport):
    return [s.id for s in report.steps if s.status != PASS]


# -- the four drivers in their default configuration ----------------

def test_lemma_driver_green():
    r = verify_lemma2()
    assert r.overall == PASS
    assert len(r.steps) == 19
    assert _ids(r) == sorted(_ids(r))
    assert len(set(_ids(r))) == 19


def test_increasing_theorem_driver_green():
    r = verify_theorem1()
    assert r.overall == PASS
    assert len(r.steps) == 6
    assert _ids(r) == sorted(_ids(r))


def test_decreasing_theorem_driver_green():
    r = verify_theorem2(n_max=60)
    assert r.overall == PASS
    assert len(r.steps) == 9
    assert _ids(r) == sorted(_ids(r))


def test_log_inequality_slack_at_one():
    # with-log chain-rate bound minus rational one at 1, 40 digits:
    # (60 - 32 ln pi + 32 ln 2)/4 - (244 - 96 ln pi)/12 = 8 (ln 2 - 2/3)
    with mpmath.workdps(40):
        exact = Fraction(mpmath.nstr(8 * (mpmath.log(2) - mpmath.mpf(2) / 3), 30))
    slack = certify._log_inequality_slack(1.0)
    tol = Fraction(1, 10**20)
    assert Fraction(slack.lo) - tol <= exact <= Fraction(slack.hi) + tol
    assert slack.width < 1e-14


def test_log_inequality_slack_positive_along_ray():
    for t in (1.0, 1.5, 3.0, 10.0, 20.0):
        assert certify._log_inequality_slack(t).strictly_positive, t


def test_tail_trend_driver_green():
    r = verify_remark1(n_max=50)
    assert r.overall == PASS
    assert len(r.steps) == 4
    assert _ids(r) == sorted(_ids(r))


def test_driver_argument_validation():
    with pytest.raises(DomainError):
        verify_theorem2(n_max=3)
    with pytest.raises(DomainError):
        verify_theorem2(n_max=True)
    with pytest.raises(DomainError):
        verify_theorem2(n_max=10.0)
    with pytest.raises(DomainError):
        verify_remark1(n_max=5)


# -- status meet ----------------------------------------------------

def test_meet_status_table():
    assert meet_status([]) == PASS
    assert meet_status([PASS, PASS]) == PASS
    assert meet_status([PASS, INCONCLUSIVE]) == INCONCLUSIVE
    assert meet_status([INCONCLUSIVE, FAIL, PASS]) == FAIL


@given(st.lists(st.sampled_from([PASS, FAIL, INCONCLUSIVE])))
def test_meet_status_is_worst_element(statuses):
    got = meet_status(statuses)
    if FAIL in statuses:
        assert got == FAIL
    elif INCONCLUSIVE in statuses:
        assert got == INCONCLUSIVE
    else:
        assert got == PASS


# -- anchor comparison semantics ------------------------------------

def test_anchor_step_pass_fail_inconclusive():
    a = 3.468
    assert _anchor_step("t/01", "d", Enclosure(3.4679, 3.4681), a).status == PASS
    # proven outside the band
    assert _anchor_step("t/01", "d", Enclosure(3.5, 3.6), a).status == FAIL
    # contains the anchor but too wide for the band
    assert _anchor_step("t/01", "d", Enclosure(3.0, 4.0), a).status == INCONCLUSIVE
    # straddles the band edge without leaving it
    assert _anchor_step("t/01", "d", Enclosure(3.457, 3.459), a).status == INCONCLUSIVE


def test_anchor_step_sign_requirement():
    # inside the band around a negative anchor but sign not yet proven:
    # hi == 0 leaves the true value possibly negative, so inconclusive
    near_zero = _anchor_step("t/02", "d", Enclosure(-0.0005, 0.0), -0.005)
    assert near_zero.status == INCONCLUSIVE
    proven = _anchor_step("t/02", "d", Enclosure(-0.0055, -0.0052), -0.005)
    assert proven.status == PASS
    # lo >= 0 proves the wrong side even while touching the band
    wrong_side = _anchor_step("t/03", "d", Enclosure(0.0, 0.001), -0.005)
    assert wrong_side.status == FAIL


# -- mutation sensitivity (spot checks; the full matrix runs in the
#    acceptance suite) ----------------------------------------------

def test_flipped_anchor_fails_exactly_its_step(monkeypatch):
    monkeypatch.setitem(ANCHORS, "p6_at_0", -ANCHORS["p6_at_0"])
    r = verify_lemma2()
    assert r.overall == FAIL
    assert _failed_ids(r) == ["lemma2/17-p6-at-0"]


def test_quintic_mutant_fails_exactly_the_endpoint_step(monkeypatch):
    # x^3 coefficient 2 -> 1: still one sign change, still certifiable,
    # but the printed value at 1 drops from 8 to 7
    monkeypatch.setitem(LEMMA_POLYS, "p4", RationalPolynomial((-1, 1, 2, 1, 3, 1)))
    r = verify_lemma2()
    assert r.overall == FAIL
    assert _failed_ids(r) == ["lemma2/12-p4-at-1"]


def test_constant_term_mutant_breaks_sign_change_count(monkeypatch):
    # -1 -> +1 gives two sign changes, so the positivity step itself
    # must go red
    monkeypatch.setitem(LEMMA_POLYS, "p1", RationalPolynomial((1, -1, 3, 1)))
    r = verify_lemma2()
    assert r.overall == FAIL
    assert "lemma2/01-p1-positive" in _failed_ids(r)


def test_logpi_mutant_breaks_coefficient_signs(monkeypatch):
    # replacing the log-pi constant by 2 flips the linear coefficient
    # of the log-pi cubic negative: sign pattern check goes red
    p6 = LOG_PI_POLYS["p6"]
    r, s = p6.rational, p6.log_pi
    assert len(r.coeffs) == len(s.coeffs) == 4
    monkeypatch.setitem(LOG_PI_POLYS, "p6", LogPiPolynomial(r + 2 * s, RationalPolynomial()))
    report = verify_lemma2()
    assert report.overall == FAIL
    assert "lemma2/16-p6-positive" in _failed_ids(report)


# -- grid certificates ----------------------------------------------

def test_grid_certificate_small_window():
    cert = grid_monotone_certificate("gamma_log_ratio", 2.0, 3.0, 0.1, "increasing")
    assert cert.status == "certified"
    assert len(cert.grid) == 11
    assert cert.verified_pairs == 10
    assert cert.offending_pair is None


def test_grid_certificate_refutes_wrong_direction():
    cert = grid_monotone_certificate("gamma_log_ratio", 0.0, 1.0, 0.01, "decreasing")
    assert cert.status == FAIL
    assert cert.offending_pair == (0.0, 0.01)


def test_grid_certificate_snaps_near_integer_points():
    # 0.1 + 3 * 0.3 is 0.9999999999999999 in float, where F raises
    # GuardZoneError; the grid must land exactly on the removable
    # singularity instead
    cert = grid_monotone_certificate("gamma_log_ratio", 0.1, 2.0, 0.3, "increasing")
    assert cert.status == "certified"
    assert 1.0 in cert.grid
    assert all(abs(p - 1.0) > 1e-9 or p == 1.0 for p in cert.grid)


@pytest.mark.parametrize("a, b, step", [
    (0.0, 0.01, 1e-7),       # ten raw points within the guard radius of 0
    (0.999, 1.001, 1e-7),    # nineteen within the guard radius of 1
])
def test_snapped_grid_is_strictly_increasing(a, b, step):
    grid = certify._build_grid(a, b, step, certify._SNAP_POINTS["gamma_log_ratio"])
    assert all(u < v for u, v in zip(grid, grid[1:]))
    target = 0.0 if a == 0.0 else 1.0
    assert grid.count(target) == 1
    assert all(abs(p - target) > 2.0 ** -20 for p in grid if p != target)


@pytest.mark.parametrize("mid_value, status", [
    (Enclosure(-5.0, -4.0), FAIL),        # below both ends: refuted
    (Enclosure(1.5, 1.75), INCONCLUSIVE),  # inside the overlap: undecided
])
def test_grid_certificate_midpoint_refutation(monkeypatch, mid_value, status):
    # values at 0 and 1 overlap, so only the midpoint can decide the pair
    values = {0.0: Enclosure(0.0, 2.0), 0.5: mid_value, 1.0: Enclosure(1.0, 3.0)}
    monkeypatch.setitem(certify._GRID_FUNCTIONS, "overlap_stub", values.__getitem__)
    cert = grid_monotone_certificate("overlap_stub", 0.0, 1.0, 1.0, "increasing")
    assert cert.status == status
    assert cert.verified_pairs == 0
    assert cert.offending_pair == (0.0, 1.0)


def test_grid_certificate_validation():
    with pytest.raises(DomainError):
        grid_monotone_certificate("no_such_function", 0.0, 1.0, 0.1, "increasing")
    with pytest.raises(DomainError):
        grid_monotone_certificate("gamma_log_ratio", 0.0, 1.0, 0.1, "sideways")
    # one point, or points that all snap onto 0: nothing to separate
    for a, b, step in ((0.0, 1.0, 2.0), (0.0, 5e-7, 1e-7)):
        with pytest.raises(DomainError):
            grid_monotone_certificate("gamma_log_ratio", a, b, step, "decreasing")


def test_grid_certificate_soundness_resample():
    """Between each adjacent certified pair, midpoints of fresh random
    samples must respect the certified direction."""
    cert = grid_monotone_certificate("gamma_log_ratio", 2.0, 3.0, 0.1, "increasing")
    assert cert.status == "certified"
    rng = random.Random(4111)
    for a, b in zip(cert.grid, cert.grid[1:]):
        points = sorted({a, b} | {a + (b - a) * rng.random() for _ in range(10)})
        mids = [gamma_log_ratio(t).mid for t in points]
        assert all(u < v for u, v in zip(mids, mids[1:])), (a, b)


def test_grid_certificate_soundness_resample_decreasing():
    cert = grid_monotone_certificate(
        "log_ball_volume_root", 2.0, 3.0, 0.1, "decreasing"
    )
    assert cert.status == "certified"
    rng = random.Random(4112)
    for a, b in zip(cert.grid, cert.grid[1:]):
        points = sorted({a, b} | {a + (b - a) * rng.random() for _ in range(10)})
        mids = [log_ball_volume_root(t).mid for t in points]
        assert all(u > v for u, v in zip(mids, mids[1:])), (a, b)



# SHA-256 of repr([(lo, hi), ...]) over every value of each grid
# evaluator on its suite's default window.  The reports record only
# separation verdicts, so a 1-ulp drift in a grid value would not change
# a report byte; these fingerprints catch it.
_DEFAULT_GRID_VALUES_SHA256 = {
    ("gamma_log_ratio", verify_theorem1):
        "76516a4497ae744a1a280e6b42a67f079ca98c76c591aa07f5313855f8a48e3c",
    ("log_ball_volume_root", verify_theorem2):
        "89efbb913107a3a4d1e44119f2ca8d9c270c1f4c0ef243942cd3b65d5eba7b30",
}


@pytest.mark.parametrize("function_id, suite", list(_DEFAULT_GRID_VALUES_SHA256))
def test_default_grid_values_are_pinned(function_id, suite):
    window = {name: p.default for name, p in inspect.signature(suite).parameters.items()}
    grid = certify._build_grid(
        window["grid_from"], window["grid_to"], window["grid_step"],
        certify._SNAP_POINTS.get(function_id, ()),
    )
    fn = certify._GRID_FUNCTIONS[function_id]
    values = repr([(e.lo, e.hi) for e in map(fn, grid)])
    digest = hashlib.sha256(values.encode()).hexdigest()
    assert digest == _DEFAULT_GRID_VALUES_SHA256[function_id, suite]

# -- exploration never touches verdicts -----------------------------

def test_exploration_is_labelled_and_inert():
    before = report_to_json_text(verify_lemma2())
    survey = explore_remark2()
    assert survey["label"] == "EXPLORATORY"
    assert survey["theorem"] == "remark2-conjecture"
    assert "verdict" not in survey
    assert "continuous" in survey and "sequence" in survey
    after = report_to_json_text(verify_lemma2())
    assert before == after


def test_exploration_argument_validation():
    with pytest.raises(DomainError):
        explore_remark2(grid=[2.0, 3.0])
    with pytest.raises(DomainError):
        explore_remark2(grid=[3.0, 2.5, 2.0])
    with pytest.raises(DomainError):
        explore_remark2(n_max=4)


# -- serialization --------------------------------------------------

def test_report_json_schema():
    r = verify_remark1(n_max=40)
    obj = report_to_json_obj(r)
    assert set(obj) == {"theorem", "overall", "steps"}
    assert obj["theorem"] == "remark1"
    for step in obj["steps"]:
        assert set(step) == {
            "id", "description", "status", "computed", "expected", "tolerance",
        }
        if step["computed"] is not None:
            assert set(step["computed"]) == {"lo", "hi"}
            enc = Enclosure.from_json_obj(step["computed"])
            assert enc.lo <= enc.hi


def test_report_json_text_is_canonical():
    r = verify_lemma2()
    text = report_to_json_text(r)
    assert text.endswith("\n")
    assert json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == text


def test_report_determinism_across_runs():
    a = report_to_json_text(verify_theorem2(n_max=40))
    b = report_to_json_text(verify_theorem2(n_max=40))
    assert a == b


def test_report_text_rendering():
    r = verify_lemma2()
    text = report_to_text(r)
    lines = text.splitlines()
    assert lines[0] == "lemma2: PASS"
    assert sum(1 for ln in lines if ln.lstrip().startswith("[")) == 19
    assert all("pass" in ln for ln in lines if ln.lstrip().startswith("["))
