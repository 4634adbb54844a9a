"""Acceptance criteria at desk scale: one pass/fail line per criterion.

Default desk scale is T = 1, N = 64, M = 1e5 with fixed seeds; individual
criteria state their own overrides. Run with `pytest tests/test_acceptance.py
-v -s` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from volterra_control import (
    ControlProcess,
    InfoMode,
    JumpModel,
    PerformanceSpec,
    RegressionBasis,
    TimeGrid,
    UtilitySpec,
    check_duality_brownian,
    check_duality_jump,
    clark_ocone_reconstruct,
    d_brownian,
    d_jump,
    iterated_integral,
    registry_get,
    sample_paths,
    simulate_differential_form,
    simulate_integral_form,
)
from volterra_control.adjoint import (
    simulated_state_feature,
    solve_explicit_x_independent,
    solve_general,
)
from volterra_control.cli import main as cli_main
from volterra_control.hamiltonian import (
    check_stationarity,
    eval_h0,
    eval_h0_reduced,
    eval_h1,
    gateaux_check,
    perturbation_window,
)
from volterra_control.malliavin import (
    NodeRegression,
    brownian_square_grid_term,
    state_feature,
)
from volterra_control.portfolio import (
    MarketModel,
    optimal_fraction,
    simulate_wealth_positive,
    solve_portfolio,
    verify_optimality,
    wealth_rows,
)
from volterra_control.volterra import monte_carlo_estimate

DESK_T = 1.0
DESK_N = 64
DESK_M = 100_000


def _report(num: int, name: str, passed: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


# --- shared desk-scale objects ---------------------------------------------------

@pytest.fixture(scope="module")
def merton_run(paths64_desk):
    market = MarketModel.constant(0.05, 0.2, wealth=1.0)
    utility = UtilitySpec.log()
    start = time.perf_counter()
    solution = solve_portfolio(market, utility, paths64_desk)
    control = ControlProcess.per_path(solution.fractions(), bounds=(-10.0, 10.0))
    report = verify_optimality(market, utility, control, paths64_desk,
                               shifts=(0.1, 0.25))
    elapsed = time.perf_counter() - start
    return dict(market=market, utility=utility, solution=solution,
                control=control, report=report, elapsed=elapsed,
                paths=paths64_desk)


@pytest.fixture(scope="module")
def memory_market_run(paths64_desk):
    market = MarketModel.exponential(0.05, 0.2, decay_b=1.0, decay_sigma=0.0,
                                     wealth=1.0)
    utility = UtilitySpec.log()
    solution = solve_portfolio(market, utility, paths64_desk)
    control = ControlProcess.per_path(solution.fractions(), bounds=(-10.0, 10.0))
    report = verify_optimality(market, utility, control, paths64_desk,
                               shifts=(0.25,))
    return dict(market=market, utility=utility, solution=solution,
                control=control, report=report, paths=paths64_desk)


@pytest.fixture(scope="module")
def xindep_run(grid32):
    """x-independent memory model with jumps at the stated N=32, M=2e4 scale."""
    jumps = JumpModel(0.5, (-0.5, 0.5), (0.5, 0.5))
    paths = sample_paths(grid32, jumps, 20_000, seed=9101)
    model = registry_get("x_independent_linear",
                         dict(b0=0.1, sigma0=0.3, jump0=0.1, decay_b=1.0,
                              decay_sigma=0.8, decay_jump=0.5))
    control = ControlProcess.deterministic(0.5 + 0.2 * grid32.nodes[:-1])
    states = simulate_integral_form(model, control, paths)
    spec = PerformanceSpec.terminal_only(
        lambda x: np.asarray(x, dtype=float) ** 2,
        lambda x: 2.0 * np.asarray(x, dtype=float),
        domain=(-2.0, 4.0),
    )
    explicit, field = solve_explicit_x_independent(model, spec, states)
    return dict(paths=paths, model=model, control=control, states=states,
                spec=spec, explicit=explicit, field=field)


# --- criteria ---------------------------------------------------------------------

def test_criterion_01_duality_brownian(paths64_desk):
    start = time.perf_counter()
    rep = check_duality_brownian(lambda p: p.brownian[-1] ** 2,
                                 lambda p: p.brownian[:-1], paths64_desk)
    elapsed = time.perf_counter() - start
    target = DESK_T ** 2
    ok = (rep.within(3.0)
          and abs(rep.lhs - target) <= 0.05 * target
          and abs(rep.rhs - target) <= 0.05 * target
          and elapsed <= 10.0)
    _report(1, "duality_brownian", ok,
            f"lhs={rep.lhs:.4f} rhs={rep.rhs:.4f} target={target} "
            f"3se={3 * rep.combined_stderr:.4f} elapsed={elapsed:.1f}s")


def test_criterion_02_duality_jump(jump_paths64_desk):
    start = time.perf_counter()
    rep = check_duality_jump(lambda p: p.jump_sum[-1] ** 2,
                             np.ones((DESK_N, 2)), jump_paths64_desk)
    elapsed = time.perf_counter() - start
    ok = rep.within(3.0) and elapsed <= 20.0
    _report(2, "duality_jump", ok,
            f"lhs={rep.lhs:.4f} rhs={rep.rhs:.4f} "
            f"3se={3 * rep.combined_stderr:.4f} elapsed={elapsed:.1f}s")


def test_criterion_03_clark_ocone(paths64_desk):
    rep = clark_ocone_reconstruct(lambda p: p.brownian[-1] ** 2, paths64_desk)
    ok = rep.relative_rms <= 0.05
    grid_rms, rest_rms = rep.relative_split(brownian_square_grid_term(paths64_desk))
    _report(3, "clark_ocone", ok,
            f"relative_rms={rep.relative_rms:.4f} bound=0.05; the discrete "
            f"representation has an adapted-integrand floor of 1/sqrt(N)="
            f"{1.0 / np.sqrt(DESK_N):.4f} at N={DESK_N}, so the stated bound "
            "is unattainable at this grid (see tests/test_malliavin.py for "
            "the fine-grid run that meets 5%); of the residual, the grid term "
            f"sum(dW^2 - dt) is {grid_rms:.4f} and the remainder {rest_rms:.4f}")


def test_criterion_04_second_chaos_isometry(paths64_desk):
    sq = iterated_integral(1.0, 2, paths64_desk) ** 2
    _, se = monte_carlo_estimate(sq)
    # the grid value of E[I_2^2]: the diagonal terms are excluded from I_2
    target = 2.0 * DESK_T ** 2 * (1.0 - 1.0 / paths64_desk.n_steps)
    ok = abs(sq.mean() - target) <= 3.0 * se
    _report(4, "second_chaos_isometry", ok,
            f"mean={sq.mean():.4f} target={target} 3se={3 * se:.4f}")


def test_criterion_05_adaptedness(jump_paths64_desk):
    p = jump_paths64_desk
    j = 20
    functionals = (
        lambda b: b.brownian[j] ** 3,
        lambda b: b.jump_sum[j] ** 2,
        lambda b: b.brownian[j] * b.jump_sum[j],
    )
    worst = 0.0
    for func in functionals:
        for i in (j, j + 1, 40, 63):
            worst = max(worst, float(np.abs(d_brownian(func, p, i)).max()))
            worst = max(worst, float(np.abs(d_jump(func, p, i, 0)).max()))
    _report(5, "adaptedness", worst == 0.0, f"max |derivative| = {worst}")


def test_criterion_06_adjoint_consistency(xindep_run):
    r = xindep_run
    general, _ = solve_general(r["model"], r["spec"], r["states"])
    rel = np.sqrt(np.mean((general.p - r["explicit"].p) ** 2, axis=1)) \
        / np.maximum(np.sqrt(np.mean(r["explicit"].p ** 2, axis=1)), 1e-12)
    ok = float(rel.max()) <= 0.02
    _report(6, "adjoint_consistency", ok,
            f"sup-node relative RMS={rel.max():.4f} bound=0.02 "
            f"(N=32, M=2e4, jumps on)")


def test_criterion_07_reduced_hamiltonian(xindep_run):
    r = xindep_run
    paths, model, spec = r["paths"], r["model"], r["spec"]
    triple, field = r["explicit"], r["field"]
    g_term = spec.terminal_prime(r["states"].terminal)
    basis = RegressionBasis()
    t = paths.grid.nodes
    worst = 0.0
    n = paths.n_steps
    for i in range(n // 4, (3 * n) // 4 + 1, 2):
        v = r["control"].at(i, paths)
        q_i, r_i = triple.qr_rows(i, field)
        h0 = eval_h0(model, spec, paths.jumps, t[i], None, v, triple.p[i], q_i, r_i)
        h1 = eval_h1(model, paths, i, None, v, triple.p, field)
        reduced = eval_h0_reduced(model, spec, paths, i, v, g_term, q_i, r_i)
        reg = NodeRegression(triple.features, i, basis)
        lhs = reg.fit(h0 + h1)
        rhs = reg.fit(reduced)
        rel = float(np.sqrt(np.mean((lhs - rhs) ** 2)) / np.sqrt(np.mean(rhs ** 2)))
        worst = max(worst, rel)
    ok = worst <= 0.03
    _report(7, "reduced_hamiltonian", ok,
            f"max interior relative RMS={worst:.4f} bound=0.03")


def test_criterion_08_merton_reproduction(merton_run):
    sol = merton_run["solution"]
    c_ok = abs(sol.c - 1.0) <= 0.02
    interior = sol.mean_pi[DESK_N // 4:(3 * DESK_N) // 4]
    pi_err = float(np.max(np.abs(interior - 1.25) / 1.25))
    ok = c_ok and pi_err <= 0.05 and merton_run["elapsed"] <= 120.0
    _report(8, "merton_reproduction", ok,
            f"c={sol.c:.4f} (target 1.00 +-2%), interior fraction error="
            f"{100 * pi_err:.2f}% (bound 5%), elapsed={merton_run['elapsed']:.0f}s")


def test_criterion_09_integrand_consistency(merton_run, memory_market_run):
    s_const = merton_run["solution"].bsvie.max_ratio_spread
    s_exp = memory_market_run["solution"].bsvie.max_ratio_spread
    ok = s_const <= 0.05 and s_exp <= 0.05
    _report(9, "integrand_consistency", ok,
            f"spread constant={s_const:.4f}, exponential={s_exp:.4f}, bound=0.05")


def test_criterion_10_necessary_condition(paths64_desk):
    market = MarketModel.constant(0.05, 0.2)
    model = market.to_coefficient_model()
    spec = PerformanceSpec.log_terminal()
    utility = UtilitySpec.log()
    stats = {}
    for pi in (1.25, 1.75):
        control = ControlProcess.constant(pi)
        states = simulate_wealth_positive(market, control, paths64_desk)
        feats = [state_feature(utility.u_prime(states.values),
                               name="marginal_wealth")]
        triple, field = solve_general(model, spec, states, features=feats)
        rep = check_stationarity(triple, field, features=feats)
        stats[pi] = rep.max_interior()
    ok = stats[1.25] <= 0.05 and stats[1.75] > 0.2
    _report(10, "necessary_condition", ok,
            f"at optimum={stats[1.25]:.4f} (bound 0.05), "
            f"at optimum+0.5={stats[1.75]:.4f} (must exceed 0.2)")


def test_criterion_11_gateaux_identity(paths64_desk):
    market = MarketModel.constant(0.05, 0.2)
    model = market.to_coefficient_model()
    spec = PerformanceSpec.log_terminal()
    utility = UtilitySpec.log()
    control = ControlProcess.constant(1.75)
    states = simulate_wealth_positive(market, control, paths64_desk)
    feats = [state_feature(utility.u_prime(states.values), name="marginal_wealth")]
    triple, field = solve_general(model, spec, states, features=feats)
    rows = lambda _model, ctrl, paths: wealth_rows(market, ctrl, paths)  # noqa: E731
    details = []
    ok = True
    width = DESK_N // 8
    for name, start in (("early", 4), ("middle", (DESK_N - width) // 2),
                        ("late", DESK_N - width - 4)):
        beta = perturbation_window(DESK_N, start, width, alpha=-1.0)
        (rep,) = gateaux_check(triple, field, [beta], rows=rows)
        ok = ok and rep.within(3.0)
        details.append(f"{name}: fd={rep.lhs:.5f} "
                       f"adj={rep.rhs:.5f} 3se={3 * rep.combined_stderr:.5f}")
    _report(11, "gateaux_identity", ok, "; ".join(details))


def test_criterion_12_optimality_memory_market(memory_market_run):
    rep = memory_market_run["report"]
    details = ", ".join(f"shift {d:+.2f}: gap={gap:+.5f} 3se={3 * se:.5f}"
                        for d, _, gap, se in rep.comparisons)
    ok = rep.dominates(3.0)
    _report(12, "optimality_memory_market", ok, details)


def test_memory_market_fractions_match_the_closed_form(memory_market_run):
    # pi*(t) = b0(T,t) / (sigma0(T,t) sigma0(t,t)) under log utility (README). At
    # N = 64, M = 1e5 and decays (1, 0), mean_pi measured within 0.074-0.077 % of pi*
    # on [T/4, 3T/4] and 0.096-0.098 % on every node under log utility (0.15-0.18 % and
    # 0.22-0.24 % under power 0.5; seeds 7, 8, 9 and the desk seed): the O(dt) gap of the
    # scheme's own closed form to pi*. 3 % on every node leaves 30x that; b0/sigma0^2,
    # the fraction without memory, is e times pi*(0).
    run = memory_market_run
    want = optimal_fraction(run["market"], run["paths"].grid)
    err = float(np.max(np.abs(run["solution"].mean_pi / want - 1.0)))
    assert err <= 0.03, f"mean_pi is {100 * err:.2f} % from pi*(t) (bound 3 %)"


def test_bsvie_fractions_meet_the_maximum_principle(memory_market_run):
    # The BSVIE route and the paper's Malliavin maximum principle are separate code
    # paths: the BSVIE fractions must make E[dH/du | G_t] vanish, under full and under
    # delayed information (pi* is deterministic, so G-adapted), and the fractions
    # + 0.5 must not. One reverse sweep each, no restart, no new portfolio solve.
    run = memory_market_run
    model = run["market"].to_coefficient_model()
    stats = {}
    for shift in (0.0, 0.5):
        control = run["control"].shifted(shift) if shift else run["control"]
        states = simulate_integral_form(model, control, run["paths"])
        triple, field = solve_general(model, PerformanceSpec.log_terminal(), states,
                                      features=[simulated_state_feature(model, states)])
        for info in (None, InfoMode.delayed(0.25)):
            stats[shift, info] = check_stationarity(triple, field, info=info).max_interior()
    details = ", ".join(f"{'full' if info is None else 'delayed'} + {shift}: {stat:.4f}"
                        for (shift, info), stat in stats.items())
    ok = all(stat <= 0.05 if shift == 0.0 else stat > 0.2
             for (shift, _), stat in stats.items())
    print(f"BSVIE fractions under the maximum principle ({details}; bounds 0.05 at the "
          "fractions, above 0.2 at + 0.5)")
    assert ok, details


def test_criterion_13_simulator_order():
    model = registry_get("exp_kernel_linear",
                         dict(b0=0.3, sigma0=0.4, decay_b=2.0, decay_sigma=1.5))
    control = ControlProcess.constant(1.0)
    fine = sample_paths(TimeGrid(DESK_T, 128), JumpModel.none(), 512, seed=4242)
    gaps = []
    for factor in (4, 2, 1):  # N = 32, 64, 128 on common refined paths
        paths = fine.coarsen(factor) if factor > 1 else fine
        a = simulate_integral_form(model, control, paths)
        b = simulate_differential_form(model, control, paths)
        gaps.append(float(np.abs(a.values - b.values).max()))
    ratios = [gaps[i] / gaps[i + 1] for i in range(2)]
    ok = all(1.5 <= r <= 3.0 for r in ratios)
    _report(13, "simulator_order", ok,
            f"max gaps N=32/64/128: {gaps[0]:.5f}/{gaps[1]:.5f}/{gaps[2]:.5f}, "
            f"ratios {ratios[0]:.2f}, {ratios[1]:.2f} (window [1.5, 3])")


def test_criterion_14_wealth_positivity(merton_run, memory_market_run):
    checks = []
    for run in (merton_run, memory_market_run):
        for delta in (0.0, 0.25, -0.25):
            control = run["control"].shifted(delta) if delta else run["control"]
            states = simulate_wealth_positive(run["market"], control, run["paths"])
            checks.append(bool(np.all(states.values > 0.0)))
    ok = all(checks)
    _report(14, "wealth_positivity", ok,
            f"{sum(checks)}/{len(checks)} configurations strictly positive")


def test_criterion_15_determinism(tmp_path):
    configs = [
        ("simulate", ["--paths", "20000", "--seed", "77"]),
        ("check-malliavin", ["--paths", "5000", "--seed", "78"]),
        ("solve-portfolio", ["--paths", "20000", "--seed", "79"]),
    ]
    identical = True
    details = []
    for command, extra in configs:
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}-{tag}"
            status = cli_main([command, *extra, "--out", str(out)])
            assert status == 0, f"{command} exited {status}"
            dirs.append(out)
        csv_names = sorted(p.name for p in dirs[0].glob("*.csv"))
        assert csv_names, f"{command} wrote no CSV output"
        same = all((dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes()
                   for n in csv_names)
        identical = identical and same
        details.append(f"{command}: {'identical' if same else 'DIFFERS'}")
    _report(15, "determinism", identical, "; ".join(details))
