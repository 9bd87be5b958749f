"""Cost formulas: closed-form constants and published-table reproduction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phs_siting import (
    CostBreakdown,
    CostParams,
    conveyance_cost,
    embankment_cell_cost,
    equipment_cost,
)

# Embankment volume (hm^3) -> reported embankment cost ($M) per study case;
# the $5/m^3 fill rate ties the two published tables together.
EMBANKMENT_TABLE = {
    1: (2.02, 10),
    2: (0.26, 1),
    3: (0.53, 3),
    4: (9.51, 48),
    5: (11.76, 59),
    7: (6.30, 31),
    8: (0.56, 3),
    9: (1.55, 8),
}

EQUIPMENT_TABLE = {150.0: 134, 175.0: 125, 200.0: 117}


def test_excavation_coefficient_exactly_ten():
    assert CostParams().excavation_coefficient() == pytest.approx(10.0, abs=0.0)


def test_lining_coefficient_near_190():
    coef = CostParams().lining_coefficient()
    assert coef == pytest.approx(190.0, rel=0.01)
    # composition from first principles: $/kg x kg/m^3 x m x pi x D/sqrt(Q) / 3
    manual = 2.5 * 7840 * 0.020 * math.pi * math.sqrt(2 / (3 * math.pi)) / 3
    assert coef == pytest.approx(manual, rel=1e-12)


def test_conveyance_hand_values():
    excavation, lining = conveyance_cost(100.0, 1000.0)
    assert excavation == pytest.approx(1_000_000.0)
    assert lining == pytest.approx(1_900_000.0, rel=0.01)


def test_conveyance_zero_length():
    assert conveyance_cost(100.0, 0.0) == (0.0, 0.0)


def test_conveyance_rejects_bad_inputs():
    with pytest.raises(ValueError):
        conveyance_cost(0.0, 10.0)
    with pytest.raises(ValueError):
        conveyance_cost(10.0, -1.0)


@given(
    q=st.floats(min_value=0.1, max_value=5000),
    length=st.floats(min_value=0.0, max_value=1e5),
    k=st.floats(min_value=1.5, max_value=4.0),
)
@settings(max_examples=40)
def test_conveyance_scaling(q, length, k):
    exc1, lin1 = conveyance_cost(q, length)
    exc2, lin2 = conveyance_cost(k * q, length)
    assert exc2 == pytest.approx(k * exc1, rel=1e-9)
    assert lin2 == pytest.approx(math.sqrt(k) * lin1, rel=1e-9)
    exc3, lin3 = conveyance_cost(q, k * length)
    assert exc3 == pytest.approx(k * exc1, rel=1e-9)
    assert lin3 == pytest.approx(k * lin1, rel=1e-9)


def test_embankment_dry_cell_free():
    cost, volume = embankment_cell_cost(34.0, 550.0, 550.0)
    assert cost == 0.0 and volume == 0.0
    cost, volume = embankment_cell_cost(34.0, 550.0, 620.0)
    assert cost == 0.0 and volume == 0.0


def test_embankment_hand_value():
    cost, volume = embankment_cell_cost(34.0, 560.0, 550.0)  # 10 m of fill height
    assert volume == pytest.approx(10_200.0)  # 34 * (10*10 + 2*10^2)
    assert cost == pytest.approx(51_000.0)


def test_embankment_continuous_at_waterline():
    eps_cost, _ = embankment_cell_cost(34.0, 550.0 + 1e-9, 550.0)
    assert 0 < eps_cost < 1e-5


@pytest.mark.parametrize("case,entry", sorted(EMBANKMENT_TABLE.items()))
def test_embankment_cross_table(case, entry):
    volume_hm3, cost_musd = entry
    assert abs(volume_hm3 * 1e6 * 5.0 / 1e6 - cost_musd) <= 1.0


@pytest.mark.parametrize("head,musd", sorted(EQUIPMENT_TABLE.items()))
def test_equipment_reproduces_table(head, musd):
    assert round(equipment_cost(head, 500.0) / 1e6) == musd


def test_equipment_decreasing_in_head():
    costs = [equipment_cost(h, 500.0) for h in (100, 150, 200, 300, 500)]
    assert all(a > b for a, b in zip(costs, costs[1:]))


def test_equipment_unit_cost_decreasing_in_capacity():
    units = [equipment_cost(150.0, p) / (p * 1000) for p in (50, 100, 500, 1000)]
    assert all(a > b for a, b in zip(units, units[1:]))


def test_breakdown_total_is_sum():
    bd = CostBreakdown(1.0, 2.0, 3.0, 4.0)
    assert bd.total == pytest.approx(10.0)
    assert bd.conveyance == pytest.approx(5.0)
    with pytest.raises(ValueError):
        CostBreakdown(-1.0, 0.0, 0.0, 0.0)


def test_params_reject_nonpositive():
    with pytest.raises(ValueError):
        CostParams(embankment_unit=0.0)


def test_params_report_every_nonpositive_field():
    with pytest.raises(ValueError) as info:
        CostParams(em_b=-1.0, slope_hv=0.0, crest_width=math.nan)
    assert str(info.value).splitlines() == [
        "crest_width must be positive, got nan",
        "slope_hv must be positive, got 0.0",
        "em_b must be positive, got -1.0",
    ]


def test_custom_velocity_changes_lining():
    # slower lining velocity -> larger bore -> more steel
    slow = CostParams(lining_velocity=3.0).lining_coefficient()
    fast = CostParams(lining_velocity=12.0).lining_coefficient()
    assert slow > CostParams().lining_coefficient() > fast


def _python_embankment(cell_length, water, ground, params):
    """The embankment formula in Python floats: ``h**2`` is libm ``pow``."""
    h = water - ground
    volume = cell_length * (0.0 if h <= 0 else params.crest_width * h + params.slope_hv * h**2)
    return params.embankment_unit * volume, volume


def _python_conveyance(flow, length, params):
    return (params.excavation_coefficient() * flow * length,
            params.lining_coefficient() * math.sqrt(flow) * length)


def test_array_costs_equal_scalar_costs_bit_for_bit():
    """Over 100,000 heights (dry, at the waterline and wet) and lengths, the
    array costs equal the Python-float formulas exactly, as do one-value calls
    on the first 10,000. ``h*h`` for the square rounds some heights
    differently."""
    rng = np.random.default_rng(17)
    params, water, cell = CostParams(), 550.0, 34.0
    heights = np.concatenate([[0.0, -0.0, -1.0, 1e-9], rng.uniform(-20.0, 120.0, 100_000)])
    heights[rng.integers(0, heights.size, 1_000)] = 0.0
    ground = water - heights
    lengths = np.concatenate([[0.0], rng.uniform(0.0, 5e4, 100_000)])
    flow = 412.5

    want = [_python_embankment(cell, water, g, params) for g in ground.tolist()]
    got = [embankment_cell_cost(cell, water, g, params) for g in ground[:10_000].tolist()]
    cost, volume = embankment_cell_cost(cell, water, ground, params)
    assert got == want[:10_000]
    assert cost.tolist() == [c for c, _ in want] and volume.tolist() == [v for _, v in want]
    assert (ground > water).any() and (ground == water).any()

    want = [_python_conveyance(flow, d, params) for d in lengths.tolist()]
    got = [conveyance_cost(flow, d, params) for d in lengths[:10_000].tolist()]
    excavation, lining = conveyance_cost(flow, lengths, params)
    assert got == want[:10_000]
    assert excavation.tolist() == [e for e, _ in want] and lining.tolist() == [li for _, li in want]


def test_conveyance_rejects_a_negative_length_in_an_array():
    with pytest.raises(ValueError, match="-2.0"):
        conveyance_cost(10.0, np.array([1.0, -2.0, 3.0]))
