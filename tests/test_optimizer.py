"""SPSA gain schedules, the update rule, and the convergence test."""

import math

import numpy as np
import pytest

from hivqe.optimizer import (
    ALPHA_EXPONENT,
    GAIN_A,
    GAIN_C,
    GAMMA_EXPONENT,
    STABILITY,
    EnergyHistory,
    converged,
    make_optimizer,
    propose,
    update,
)


def test_the_gain_schedule_is_fixed():
    assert (GAIN_A, GAIN_C, STABILITY) == (0.1, 0.1, 10.0)
    assert (ALPHA_EXPONENT, GAMMA_EXPONENT) == (0.602, 0.101)


def test_propose_offsets_follow_the_gain_schedule():
    opt = make_optimizer(np.zeros(5), seed=1)
    for k in range(4):
        c_k = GAIN_C / (k + 1) ** GAMMA_EXPONENT
        plus, minus = propose(opt)
        step = plus - opt.theta
        assert np.allclose(np.abs(step), c_k, atol=1e-15)
        assert np.array_equal(minus - opt.theta, -step)
        assert set(np.sign(step)) <= {-1.0, 1.0}
        update(opt, 1.0, 1.0)  # zero gradient; advances the step counter


def test_update_applies_the_spsa_rule_exactly():
    theta0 = np.array([0.4, -0.2, 0.7])
    opt = make_optimizer(theta0.copy(), seed=3)
    plus, minus = propose(opt)
    c_k = GAIN_C / 1.0**GAMMA_EXPONENT
    delta = (plus - theta0) / c_k
    e_plus, e_minus = -1.0, -1.4
    update(opt, e_plus, e_minus)
    a_k = GAIN_A / (1.0 + STABILITY) ** ALPHA_EXPONENT
    expected = theta0 - a_k * (e_plus - e_minus) / (2 * c_k) * delta
    assert np.allclose(opt.theta, expected, atol=1e-15)
    assert opt.step == 1


def test_zero_gradient_leaves_theta_unchanged():
    opt = make_optimizer(np.ones(3), seed=0)
    propose(opt)
    update(opt, -2.0, -2.0)
    assert np.array_equal(opt.theta, np.ones(3))


def test_update_without_pending_probes_raises():
    opt = make_optimizer(np.zeros(2), seed=0)
    with pytest.raises(RuntimeError):
        update(opt, 0.0, 0.0)


def test_update_scales_linearly_with_energies():
    def displacement(scale):
        opt = make_optimizer(np.zeros(4), seed=9)
        propose(opt)
        update(opt, scale * 1.0, scale * -1.0)
        return opt.theta

    assert np.allclose(displacement(3.0), 3.0 * displacement(1.0), atol=1e-15)


def test_redraw_replaces_pending_probes():
    opt = make_optimizer(np.zeros(3), seed=2)
    first_plus, _ = propose(opt)
    plus2, minus2 = propose(opt)  # replaces the first draw
    update(opt, 1.0, -1.0)
    # theta -= a_k * (e+ - e-)/(2 c_k) * delta, against the SECOND delta
    c_k = GAIN_C
    a_k = GAIN_A / (1 + STABILITY) ** ALPHA_EXPONENT
    delta2 = (plus2 - minus2) / (2 * c_k)
    expected = -a_k * (2.0) / (2 * c_k) * delta2
    assert np.allclose(opt.theta, expected, atol=1e-15)


def test_quadratic_bowl_converges_ten_fold():
    """Scripted synthetic objective: 200 steps must shrink |theta| >= 10x."""
    rng = np.random.default_rng(100)
    theta0 = rng.normal(size=4)
    theta0 /= np.linalg.norm(theta0)
    opt = make_optimizer(theta0.copy(), seed=0)
    for _ in range(200):
        plus, minus = propose(opt)
        update(opt, float(plus @ plus), float(minus @ minus))
    assert np.linalg.norm(opt.theta) < 0.1


def test_same_seed_gives_identical_trajectories():
    def run(seed):
        opt = make_optimizer(np.zeros(3), seed=seed)
        out = []
        for k in range(10):
            plus, minus = propose(opt)
            update(opt, float(np.sin(k)), float(np.cos(k)))
            out.append(opt.theta.copy())
        return np.array(out)

    assert np.array_equal(run(7), run(7))
    assert not np.array_equal(run(7), run(8))


def test_energy_history_counts_entries():
    h = EnergyHistory()
    assert len(h) == 0
    h.append(-1.0)
    h.append(-1.5)
    assert len(h) == 2
    assert h.energies == [-1.0, -1.5]


def test_converged_needs_window_plus_one_entries():
    assert not converged(EnergyHistory([-1.0, -1.0, -1.0]), eps=1e-5)
    assert converged(EnergyHistory([-0.9, -1.0, -1.0, -1.0]), eps=1e-5)


def test_converged_checks_spread_of_last_window():
    values = EnergyHistory([-0.5, -1.0, -1.000004, -1.000002])
    assert converged(values, eps=1e-5)
    assert not converged(values, eps=1e-6)
    # a jump inside the window blocks convergence even after many entries
    jump = EnergyHistory([-1.0] * 5 + [-1.1, -1.0, -1.0])
    assert not converged(jump, eps=1e-5)


def test_converged_accepts_history_object():
    h = EnergyHistory()
    for e in (-1.0, -2.0, -2.0, -2.0):
        h.append(e)
    assert converged(h, eps=1e-5)


@pytest.mark.parametrize("values", [
    [-0.5, -1.0, math.nan, -1.0],  # max and min skip a nan after the first entry
    [-0.5, math.nan, -1.0, -1.0],
    [-0.5, -1.0, -1.0, math.nan],
    [-0.5, -1.0, math.inf, -1.0],
])
def test_converged_refuses_a_window_with_a_nonfinite_energy(values):
    assert not converged(EnergyHistory(values), eps=1e-5)
    # once it leaves the window
    assert converged(EnergyHistory(values + [-1.0] * 3), eps=1e-5)
