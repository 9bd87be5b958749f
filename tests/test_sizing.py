"""Volume target and design-flow arithmetic against the study-case table."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phs_siting import SitingSpec, design_flow, required_volume

# Nine study cases: (head m, operation h) -> published storage target in hm^3.
# Cases pair each head with both the heuristic and direct runs, so the storage
# column repeats for 3 h; the 0.667 efficiency reproduces every row.
STUDY_CASES = [
    (150.0, 3.0, 5.50),
    (175.0, 3.0, 4.72),
    (200.0, 3.0, 4.13),
    (150.0, 3.0, 5.50),
    (175.0, 3.0, 4.72),
    (200.0, 3.0, 4.13),
    (150.0, 12.0, 22.02),
    (175.0, 12.0, 18.87),
    (200.0, 12.0, 16.51),
]


@pytest.mark.parametrize("head,hours,storage_hm3", STUDY_CASES)
def test_required_volume_reproduces_study_cases(head, hours, storage_hm3):
    volume = required_volume(500.0, head, hours, efficiency=0.667)
    assert volume / 1e6 == pytest.approx(storage_hm3, rel=0.01)


def test_default_efficiency_is_consistent_across_all_cases():
    # the same single efficiency must explain every row at once
    for head, hours, storage_hm3 in STUDY_CASES:
        implied = 500e6 * hours * 3600 / (1000 * 9.81 * storage_hm3 * 1e6 * head)
        assert implied == pytest.approx(0.667, rel=0.002)


def test_design_flow_hand_values():
    assert design_flow(5.50e6, 3.0) == pytest.approx(509.26, abs=0.01)
    assert design_flow(1.0e6, 1.0) == pytest.approx(277.78, abs=0.01)


def test_design_flow_ratio_invariance():
    assert design_flow(11.0e6, 6.0) == pytest.approx(design_flow(5.5e6, 3.0))


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_nonpositive_inputs_rejected(bad):
    with pytest.raises(ValueError):
        required_volume(bad, 150.0, 3.0)
    with pytest.raises(ValueError):
        required_volume(500.0, bad, 3.0)
    with pytest.raises(ValueError):
        design_flow(1e6, bad)


def test_efficiency_above_one_rejected():
    with pytest.raises(ValueError):
        required_volume(500.0, 150.0, 3.0, efficiency=1.2)


positive = st.floats(min_value=1e-2, max_value=1e4, allow_nan=False)


@given(p=positive, head=positive, hours=positive)
@settings(max_examples=50)
def test_volume_homogeneity(p, head, hours):
    base = required_volume(p, head, hours)
    assert required_volume(p, head, 2 * hours) == pytest.approx(2 * base, rel=1e-9)
    assert required_volume(p, 2 * head, hours) == pytest.approx(base / 2, rel=1e-9)
    # storage x head is set by energy alone: the published table's pattern
    assert required_volume(p, 2 * head, hours) * 2 * head == pytest.approx(
        base * head, rel=1e-9
    )


@given(p=positive, head=positive, hours=positive)
@settings(max_examples=50)
def test_flow_definitions_agree(p, head, hours):
    # Q = VolMin / dt must equal Q = P / (k * head)
    eta = 0.667
    flow = design_flow(required_volume(p, head, hours, eta), hours)
    assert flow == pytest.approx(p * 1e6 / (1000 * 9.81 * eta * head), rel=1e-9)


def test_siting_spec_from_engineering():
    spec = SitingSpec.from_engineering(500.0, 150.0, 3.0, lower_elevation=385.0)
    assert spec.water_elevation == pytest.approx(535.0)
    assert spec.vol_min == pytest.approx(5.50e6, rel=0.01)
    assert spec.flow == pytest.approx(spec.vol_min / (3 * 3600), rel=1e-12)
    assert spec.flow == pytest.approx(509.26, rel=0.01)
    assert spec.energy_constant == pytest.approx(1000 * 9.81 * 0.667)


def test_siting_spec_rejects_inconsistent_fields():
    # the volume target, flow and energy constant are derived, never given
    for derived in ("vol_min", "flow", "energy_constant"):
        with pytest.raises(TypeError, match=derived):
            SitingSpec(500.0, 150.0, 535.0, 3.0, 0.667, **{derived: 1.0})
    for power, head, hours, lower, eta in ((500.0, 150.0, 3.0, 385.0, 0.667),
                                           (1.2, 165.0, 12.0, -3.5, 0.9), (7.5, 0.3, 0.25, 0.0, 1.0)):
        spec = SitingSpec(power, head, lower + head, hours, eta)
        built = SitingSpec.from_engineering(power, head, hours, lower, eta)
        assert [getattr(spec, f.name).hex() for f in dataclasses.fields(spec)] == [
            getattr(built, f.name).hex() for f in dataclasses.fields(built)]
