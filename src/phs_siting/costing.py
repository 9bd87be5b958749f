"""Cost model: embankment, water conveyance, and electromechanical equipment.

All costs are dollars. The default parameters compose into the closed-form
per-meter conveyance coefficients 10*Q (excavation) and ~189*sqrt(Q) (steel
lining), and a $5/m^3 embankment rate on a trapezoidal cross-section with a
10 m crest and 2:1 slopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np


@dataclass(frozen=True)
class CostParams:
    embankment_unit: float = 5.0  # $/m^3 of fill
    crest_width: float = 10.0  # m
    slope_hv: float = 2.0  # horizontal:vertical, both faces
    excavation_unit: float = 40.0  # $/m^3 of tunnel excavation
    excavation_velocity: float = 4.0  # m/s, sizes the excavated section
    lining_velocity: float = 6.0  # m/s, sizes the lined section
    steel_unit: float = 2.5  # $/kg
    steel_density: float = 7840.0  # kg/m^3
    lining_thickness: float = 0.020  # m
    lined_fraction: float = 1.0 / 3.0  # share of tunnel length lined with steel
    em_a: float = 3068.0  # $/kW per 1/sqrt(head)
    em_b: float = 8608.0  # $/kW per 1/P

    def __post_init__(self):
        for f in fields(self):
            if not getattr(self, f.name) > 0:
                raise ValueError(f"{f.name} must be positive")

    def excavation_coefficient(self) -> float:
        """$ per (m^3/s of flow * m of length): unit cost x section per unit flow."""
        return self.excavation_unit / self.excavation_velocity

    def lining_coefficient(self) -> float:
        """$ per (sqrt(m^3/s) * m): steel shell cost for a velocity-sized bore.

        Diameter D = sqrt(4Q / (pi * v)) makes the shell volume per meter
        thickness * pi * D, lined over ``lined_fraction`` of the length.
        """
        diameter_per_sqrt_q = math.sqrt(4.0 / (math.pi * self.lining_velocity))
        return (
            self.steel_unit
            * self.steel_density
            * self.lining_thickness
            * math.pi
            * diameter_per_sqrt_q
            * self.lined_fraction
        )


@dataclass(frozen=True)
class CostBreakdown:
    embankment: float
    conveyance_excavation: float
    conveyance_lining: float
    equipment: float

    def __post_init__(self):
        for name in ("embankment", "conveyance_excavation", "conveyance_lining", "equipment"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def conveyance(self) -> float:
        return self.conveyance_excavation + self.conveyance_lining

    @property
    def total(self) -> float:
        return self.embankment + self.conveyance + self.equipment


def embankment_cross_section(water_elevation, ground_elevation, params: CostParams):
    """Fill area (m^2) of the trapezoidal section closing a cell, 0 where dry.

    Takes scalars or arrays, with one formula for both. The square is
    ``np.float_power(h, 2)``, which is libm ``pow`` as Python's ``h**2`` is;
    numpy's ``h**2`` and ``h*h`` round a few heights differently.
    """
    height = np.subtract(water_elevation, ground_elevation)
    area = np.where(height <= 0, 0.0,
                    params.crest_width * height + params.slope_hv * np.float_power(height, 2))
    return float(area) if area.ndim == 0 else area


def embankment_cell_cost(
    cell_length: float,
    water_elevation,
    ground_elevation,
    params: CostParams | None = None,
):
    """Cost and fill volume of the embankment on perimeter cells.

    Returns (dollars, m^3), floats for scalar elevations and arrays for
    arrays. Both are zero where the ground already stands at or above the
    water level.
    """
    params = params or CostParams()
    volume = cell_length * embankment_cross_section(water_elevation, ground_elevation, params)
    return params.embankment_unit * volume, volume


def conveyance_cost(flow: float, length, params: CostParams | None = None):
    """Excavation and lining dollars for conveyances of ``length`` meters
    (a scalar or an array)."""
    params = params or CostParams()
    if not flow > 0:
        raise ValueError(f"flow must be positive, got {flow}")
    negative = np.asarray(length) < 0
    if negative.any():
        raise ValueError(f"length must be non-negative, got {np.asarray(length)[negative].flat[0]}")
    excavation = params.excavation_coefficient() * flow * length
    lining = params.lining_coefficient() * math.sqrt(flow) * length
    return excavation, lining


def equipment_cost(head_m: float, power_mw: float, params: CostParams | None = None) -> float:
    """Total E&M dollars for the installed capacity.

    The per-kW unit cost em_a/sqrt(head) + em_b/P (P in MW) is scaled by the
    capacity in kW, which is what matches published project-level totals.
    """
    params = params or CostParams()
    if not head_m > 0 or not power_mw > 0:
        raise ValueError("head_m and power_mw must be positive")
    unit_per_kw = params.em_a / math.sqrt(head_m) + params.em_b / power_mw
    return unit_per_kw * power_mw * 1000.0
