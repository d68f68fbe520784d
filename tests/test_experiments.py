"""Growth-law experiments and the cross-validation table."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equidist import (
    BudgetError,
    GrowthConfig,
    GrowthRecord,
    PhiSpec,
    alpha_from_specs,
    alpha_from_values,
    cross_validate,
    growth_csv,
    growth_normalizer,
    growth_trend,
    is_degenerate,
    max_discrepancy,
    phi_eval,
    random_alpha,
    run_growth_experiment,
)
from equidist.experiments import GROWTH_CSV_HEADER, degenerate_order

# frozen: Euler-Maclaurin tail at 50 digits gives 2.610375349185488218...
# for sum_{n<=1e6} n^{-3/2}; float fsum of the raw terms lands 2 ulp away
ZETA32_PARTIAL_1E6 = 2.6103753491854884


def test_phi_power_values():
    phi = PhiSpec()
    assert phi_eval(phi, 4.0) == 8.0
    assert phi(4.0) == 8.0
    arr = phi_eval(phi, np.array([1.0, 4.0]))
    assert list(arr) == [1.0, 8.0]


def test_phi_loglog_adjusted():
    phi = PhiSpec(form="loglog-adjusted", eta=0.1)
    assert phi_eval(phi, 4.0) == pytest.approx(4.0 * math.log(4.0 + math.e) ** 1.1,
                                               rel=1e-15)


def test_phi_validation():
    with pytest.raises(ValueError):
        PhiSpec(c=1.0)
    with pytest.raises(ValueError):
        PhiSpec(form="loglog-adjusted", eta=0.0)
    with pytest.raises(ValueError):
        PhiSpec(form="cubic")


@given(st.floats(1.0, 1e6), st.floats(1.0, 1e6))
@settings(max_examples=50)
def test_phi_monotone(a, b):
    for phi in (PhiSpec(), PhiSpec(form="loglog-adjusted", eta=0.25)):
        lo, hi = sorted((a, b))
        assert phi_eval(phi, lo) <= phi_eval(phi, hi)


def test_phi_reciprocal_sum_converges():
    # the defining property: sum 1/phi(n) < inf; partial sum frozen
    n = np.arange(1, 10 ** 6 + 1, dtype=np.float64)
    total = math.fsum(1.0 / phi_eval(PhiSpec(), n))
    assert total == pytest.approx(ZETA32_PARTIAL_1E6, abs=1e-12)


def test_degenerate_orders():
    assert degenerate_order(0) == 1
    half = alpha_from_values([0.5])
    assert degenerate_order(half.components[0].raw) == 2
    assert is_degenerate(half, 2)
    assert not is_degenerate(half, 1)
    golden = alpha_from_values([0.6180339887498949])
    assert not is_degenerate(golden, 1 << 20)


def test_resolve_alpha_forms():
    assert alpha_from_specs(["random:5"], 2) == random_alpha(5, 2)
    a = alpha_from_specs(["0.25,0.5"], 2)
    assert [c.value for c in a.components] == [0.25, 0.5]
    assert a == alpha_from_specs(["0.25", "0.5"], 2)
    with pytest.raises(ValueError):
        alpha_from_specs(["0.25"], 2)


def test_growth_config_validation():
    with pytest.raises(ValueError):
        GrowthConfig(d=1, schedule=(32, 16), alpha_specs=("random:0",))
    with pytest.raises(ValueError):
        GrowthConfig(d=1, schedule=(), alpha_specs=("random:0",))
    with pytest.raises(ValueError):
        GrowthConfig(d=1, schedule=(16,), alpha_specs=("random:0",), exponent=7)
    cfg = GrowthConfig(d=2, schedule=(16,), alpha_specs=("random:0",))
    assert cfg.allowed_exponents() == {2, 3}
    assert cfg.resolve_exponent() == 3
    assert GrowthConfig(d=3, schedule=(16,),
                        alpha_specs=("random:0",)).allowed_exponents() == {2, 3, 4}


def test_growth_normalizer_frozen():
    assert growth_normalizer(16, 1, PhiSpec(), 3) == 3.028080520303563
    assert growth_normalizer(256, 2, PhiSpec(), 3) == 346.4635835332009
    # ln ln clamp: below N=16 the normalizer freezes at the N=16 double log
    n8 = growth_normalizer(8, 1, PhiSpec(), 3)
    assert n8 == pytest.approx(growth_normalizer(16, 1, PhiSpec(), 3)
                               * math.log(8) / math.log(16), rel=1e-12)


def test_run_growth_experiment_small():
    cfg = GrowthConfig(d=1, schedule=(16, 32), alpha_specs=("random:0", "random:1"))
    recs = run_growth_experiment(cfg)
    assert len(recs) == 4
    assert [(r.alpha_seed, r.N) for r in recs] == [
        ("random:0", 16), ("random:0", 32), ("random:1", 16), ("random:1", 32)]
    for r in recs:
        alpha = alpha_from_specs([r.alpha_seed], 1)
        assert r.delta == max_discrepancy(alpha, r.N).delta
        assert r.normalizer == growth_normalizer(r.N, 1, cfg.phi, 3)
        assert r.ratio == r.delta / r.normalizer
        assert r.wall_ms >= 0.0
        assert not r.degenerate
    # worker count changes timing only
    recs8 = run_growth_experiment(cfg, threads=8)
    strip = lambda rs: [(r.alpha_seed, r.N, r.delta, r.ratio) for r in rs]
    assert strip(recs8) == strip(recs)


def test_growth_experiment_budget():
    cfg = GrowthConfig(d=2, schedule=(1 << 14,), alpha_specs=("random:0",))
    with pytest.raises(BudgetError):
        run_growth_experiment(cfg)


def test_growth_degenerate_flagged():
    cfg = GrowthConfig(d=1, schedule=(16,), alpha_specs=("0.5",))
    recs = run_growth_experiment(cfg)
    assert recs[0].degenerate


def test_growth_csv_shape():
    cfg = GrowthConfig(d=1, schedule=(16,), alpha_specs=("random:0",))
    recs = run_growth_experiment(cfg)
    text = growth_csv(recs)
    lines = text.splitlines()
    assert lines[0] == GROWTH_CSV_HEADER
    assert len(lines) == 2
    assert lines[1].startswith("random:0,1,16,")
    quiet = growth_csv(recs, no_timing=True)
    assert quiet.splitlines()[1].endswith(",0.0")
    assert growth_csv(recs, no_timing=True) == quiet


def _rec(N, ratio, degenerate=False, seed="random:0"):
    return GrowthRecord(alpha_seed=seed, d=1, N=N, delta=ratio, normalizer=1.0,
                        ratio=ratio, exponent=3, wall_ms=0.0, degenerate=degenerate)


def test_growth_trend_verdicts():
    flat = [_rec(16, 1.0), _rec(32, 1.2), _rec(64, 1.1), _rec(128, 1.3)]
    ok, series = growth_trend(flat)
    assert ok
    assert series == {16: 1.0, 32: 1.2, 64: 1.1, 128: 1.3}
    rising = flat + [_rec(256, 2.0)]
    ok, _ = growth_trend(rising)
    assert not ok                      # 2.0 > 1.5 * 1.1
    ok, _ = growth_trend(rising, slack=2.0)
    assert ok
    # degenerate sources do not poison the maximum
    spiked = flat + [_rec(128, 50.0, degenerate=True)]
    ok, series = growth_trend(spiked)
    assert ok and series[128] == 1.3
    # short series: nothing to compare yet
    ok, _ = growth_trend(flat[:2])
    assert ok


def test_growth_trend_max_over_sources():
    recs = [_rec(16, 1.0), _rec(16, 3.0, seed="random:1"), _rec(32, 2.0)]
    _, series = growth_trend(recs)
    assert series == {16: 3.0, 32: 2.0}


def test_cross_validate_zero_interval(golden1):
    rep = cross_validate(golden1, 0.0, 64)
    assert all(row.ratio == 0.0 for row in rep.rows)
    assert rep.imag_residual <= 1e-12


def test_cross_validate_table(golden1):
    rep = cross_validate(golden1, 0.3, 64)
    names = [row.name for row in rep.rows]
    assert names == [
        "d_direct", "dbar_direct", "dbar_fourier", "fourier_vs_direct",
        "average_vs_pointwise", "truncate_to_u1", "restrict_nearest",
        "drop_small_products", "restrict_n1_quarter", "main_sum",
        "osc_sum_10", "osc_sum_01", "osc_sum_11", "recombination"]
    by_name = {row.name: row for row in rep.rows}
    assert by_name["dbar_direct"].value == pytest.approx(-0.825, abs=1e-12)
    assert abs(by_name["fourier_vs_direct"].ratio) <= 1.0
    assert by_name["recombination"].value <= 1e-9
    assert rep.term_counts["dbar2"] <= rep.term_counts["dbar1"]
    assert rep.term_counts["dbar3"] <= rep.term_counts["dbar2"]
    assert rep.imag_residual < 1e-6
    assert rep.N == 64 and rep.x == 0.3


def test_cross_validate_guards(golden1):
    with pytest.raises(ValueError):
        cross_validate(golden1, 1.25, 64)
    # the sweep's 407^3 lattice exceeds the point budget and is refused
    # before the 404^3 point set of the direct path is built
    with pytest.raises(BudgetError):
        cross_validate(random_alpha(0, 3), 0.3, 404)
