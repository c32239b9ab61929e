"""Building energy audit, retrofit optimization, PV economics and a
solar-powered monitoring-node simulator, with bundled case-study fixtures.

The public names below load their submodule on first use (PEP 562), so a
process imports only the modules it runs.
"""

import importlib
import sys
from types import ModuleType

__version__ = "0.1.0"

#: Each public name, under the submodule that defines it.
_EXPORTS = {
    "model": ("BuildingSpec", "Catalog", "ClimateProfile", "EnvelopeGroup", "GlazingOption",
              "HvacSystem", "LightingSystem", "OpaqueConstruction", "Orientation",
              "SensorFleet", "SpecError", "Tariff", "fixture_path",
              "glazed_area", "load_catalog", "load_climate_profile", "load_sensor_fleet",
              "load_tariff", "parse_building_spec", "read_fixture",
              "serialize_building_spec"),
    "energy": ("CalibrationError", "CalibrationParams", "EndUseTargets", "EnergyReport",
               "annual_cost", "annual_end_use", "calibrate", "eui", "shading_factor"),
    "lighting": ("DaylightClass", "Lamp", "Room", "annual_lighting_energy", "daylight_class",
                 "luminaire_count"),
    "optimize": ("CodeLimits", "DesignSpace", "DesignVariables", "NoFeasibleDesignError",
                 "apply_design", "optimize"),
    "pv": ("PanelSpec", "PvEconomicsReport", "annual_generation", "economics",
           "panel_count"),
    "node": ("AlarmState", "EnvSample", "NodeConfig", "NodePanel", "NodeState", "SimResult",
             "fleet_annual_energy", "simulate", "step"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "_kernels")
__all__ = list(_ORIGIN)


def __getattr__(name: str):
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})


class _Package(ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # Importing lowcarb.optimize binds the submodule here; the package's
        # `optimize` stays the function, as `from lowcarb import optimize` gives.
        if name == "optimize" and isinstance(value, ModuleType):
            value = value.optimize
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
