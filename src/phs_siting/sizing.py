"""Engineering sizing: from capacity, head and duration to volume and flow.

Unit conventions: capacity in MW, head in m, duration in hours, volume in m^3,
flow in m^3/s. The specific energy constant couples them through
P = rho * g * eta * Q * head.
"""

from __future__ import annotations

from dataclasses import dataclass, field

WATER_DENSITY = 1000.0  # kg/m^3
GRAVITY = 9.81  # m/s^2

#: Round-trip equipment efficiency that reproduces the reference storage
#: targets for the 500 MW study cases; override per project as needed.
DEFAULT_EFFICIENCY = 0.667

SECONDS_PER_HOUR = 3600.0


def _input_errors(**values: float) -> list[str]:
    """One line per value out of range, each beginning with its keyword:
    ``efficiency`` must be in (0, 1] and every other value positive. The
    case-file reader reports these lines, under the keys the file uses."""
    errors = []
    for name, value in values.items():
        if name == "efficiency" and not 0 < value <= 1:
            errors.append(f"efficiency must be in (0, 1], got {value}")
        elif name != "efficiency" and not value > 0:
            errors.append(f"{name} must be positive, got {value}")
    return errors


def _require(**values: float) -> None:
    errors = _input_errors(**values)
    if errors:
        raise ValueError("\n".join(errors))


def required_volume(
    power_mw: float, head_m: float, hours: float, efficiency: float = DEFAULT_EFFICIENCY
) -> float:
    """Minimum stored volume (m^3) to sustain ``power_mw`` for ``hours`` at ``head_m``.

    VolMin = (P * dt) / (rho * g * eta * head), all in SI.
    """
    _require(power_mw=power_mw, head_m=head_m, hours=hours, efficiency=efficiency)
    energy_j = power_mw * 1e6 * hours * SECONDS_PER_HOUR
    return energy_j / (WATER_DENSITY * GRAVITY * efficiency * head_m)


def design_flow(volume_m3: float, hours: float) -> float:
    """Flow (m^3/s) that drains ``volume_m3`` in ``hours``: Q = VolMin / dt."""
    _require(volume_m3=volume_m3, hours=hours)
    return volume_m3 / (hours * SECONDS_PER_HOUR)


@dataclass(frozen=True)
class SitingSpec:
    """Resolved model parameters for one siting case.

    ``water_elevation`` is the absolute upper water level compared against
    cell elevations; ``head_m`` is the level difference driving the energy
    balance. ``energy_constant``, ``vol_min`` and ``flow`` derive from the five
    inputs, so every spec satisfies the energy balance and Q = VolMin / dt.
    """

    power_mw: float
    head_m: float
    water_elevation: float
    hours: float
    efficiency: float = DEFAULT_EFFICIENCY
    energy_constant: float = field(init=False)  # rho * g * eta, W*s/m^4
    vol_min: float = field(init=False)  # m^3
    flow: float = field(init=False)  # m^3/s

    def __post_init__(self):
        vol_min = required_volume(self.power_mw, self.head_m, self.hours, self.efficiency)
        object.__setattr__(self, "energy_constant", WATER_DENSITY * GRAVITY * self.efficiency)
        object.__setattr__(self, "vol_min", vol_min)
        object.__setattr__(self, "flow", design_flow(vol_min, self.hours))

    @classmethod
    def from_engineering(
        cls,
        power_mw: float,
        head_m: float,
        hours: float,
        lower_elevation: float,
        efficiency: float = DEFAULT_EFFICIENCY,
    ) -> "SitingSpec":
        return cls(power_mw, head_m, lower_elevation + head_m, hours, efficiency)
