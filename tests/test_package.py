"""The lazy ``lowcarb`` namespace, and which modules each subcommand loads.

The checks of a cold import run in a fresh interpreter: this one has every
submodule loaded by the other tests, which would hide what it does.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lowcarb

SRC = Path(lowcarb.__file__).parents[1]
DATA = SRC / "lowcarb" / "data"

#: The public names of the package, by the submodule that defines them.
PUBLIC = {
    "model": ["BuildingSpec", "Catalog", "ClimateProfile", "EnvelopeGroup", "GlazingOption",
              "HvacSystem", "LightingSystem", "OpaqueConstruction", "Orientation",
              "SensorFleet", "SpecError", "Tariff", "fixture_path",
              "glazed_area", "load_catalog", "load_climate_profile", "load_sensor_fleet",
              "load_tariff", "parse_building_spec", "read_fixture",
              "serialize_building_spec"],
    "energy": ["CalibrationError", "CalibrationParams", "EndUseTargets", "EnergyReport",
               "annual_cost", "annual_end_use", "calibrate", "eui", "shading_factor"],
    "lighting": ["DaylightClass", "Lamp", "Room", "annual_lighting_energy", "daylight_class",
                 "luminaire_count"],
    "optimize": ["CodeLimits", "DesignSpace", "DesignVariables", "NoFeasibleDesignError",
                 "apply_design", "optimize"],
    "pv": ["PanelSpec", "PvEconomicsReport", "annual_generation", "economics",
           "panel_count"],
    "node": ["AlarmState", "EnvSample", "NodeConfig", "NodePanel", "NodeState", "SimResult",
             "fleet_annual_energy", "simulate", "step"],
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)


def _fresh(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=env, timeout=60)


def _fresh_json(script: str, *args: str):
    """The JSON that ``script`` prints last, run in a fresh interpreter."""
    proc = _fresh("-c", script, *args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("first", [
    "import lowcarb.optimize",
    "from lowcarb.optimize import DesignSpace",
    "import lowcarb; lowcarb.optimize",
])
def test_optimize_is_the_function_whatever_loads_the_submodule_first(first):
    assert _fresh_json(
        f"{first}\n"
        "import importlib, json\n"
        "import lowcarb\n"
        "from lowcarb import optimize\n"
        "module = importlib.import_module('lowcarb.optimize')\n"
        "print(json.dumps([lowcarb.optimize is module.optimize, optimize is module.optimize,\n"
        "                  type(module).__name__]))\n") == [True, True, "module"]


def test_star_import_binds_every_public_name():
    bound = _fresh_json("import json\n"
                        "from lowcarb import *\n"
                        "print(json.dumps(sorted(n for n in dir() if not n.startswith('_'))))\n")
    assert sorted(set(bound) - {"json"}) == NAMES


def test_dir_lists_every_public_name_before_any_is_used():
    listed = _fresh_json("import json, lowcarb\nprint(json.dumps(dir(lowcarb)))\n")
    assert set(NAMES) <= set(listed)


def test_submodule_is_an_attribute_after_a_bare_import():
    assert _fresh_json("import json, lowcarb\n"
                       "energy = lowcarb.energy\n"
                       "print(json.dumps([energy.__name__, energy.eui.__name__]))\n"
                       ) == ["lowcarb.energy", "eui"]


def test_public_name_is_the_submodule_object():
    wrong = [name for module, names in PUBLIC.items() for name in names
             if getattr(lowcarb, name) is not getattr(
                 importlib.import_module(f"lowcarb.{module}"), name)]
    assert wrong == []


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        lowcarb.nonesuch  # noqa: B018


def test_domain_errors_are_one_class_under_each_name():
    from lowcarb import energy, model, node
    assert lowcarb.CalibrationError is energy.CalibrationError is model.CalibrationError
    assert node.TraceError is model.TraceError


def _argv(command: str) -> list[str]:
    files = {
        "audit": {"spec": "baseline_school.json", "climate": "gd_climate.csv",
                  "tariff": "paper_tariff.json"},
        "calibrate": {"spec": "baseline_school.json", "climate": "gd_climate.csv",
                      "targets": "baseline_targets.json"},
        "optimize": {"spec": "baseline_school.json", "climate": "gd_climate.csv",
                     "catalog": "catalog.csv", "space": "paper_space.json",
                     "tariff": "paper_tariff.json"},
        "pv": {"spec": "pv_site.json", "climate": "gd_climate.csv",
               "tariff": "paper_tariff.json"},
        "node-sim": {"spec": "node_demo.json", "trace": "node_demo_trace.csv"},
    }[command]
    return [command, *(a for flag, name in files.items() for a in (f"--{flag}",
                                                                   str(DATA / name)))]


@pytest.mark.parametrize("command, loaded", [
    ("audit", {"cli", "model", "energy"}),
    ("calibrate", {"cli", "model", "energy"}),
    ("pv", {"cli", "model", "pv"}),
    ("node-sim", {"cli", "model", "node", "_kernels"}),
    ("optimize", None),
])
def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path, command, loaded):
    result = _fresh_json(
        "import json, sys\n"
        "from lowcarb.cli import main\n"
        "code = main(json.loads(sys.argv[1]))\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('lowcarb'))]))\n",
        json.dumps(_argv(command) + ["--out", str(tmp_path / "o")]))
    code, modules = result[0], {m.removeprefix("lowcarb.") for m in result[1]}
    assert code == 0
    if loaded is None:
        assert {"lowcarb", "cli", "model", "energy", "optimize", "_kernels"} <= modules
        assert not modules & {"node", "pv", "lighting"}
    else:
        assert modules == {"lowcarb", *loaded}


@pytest.mark.parametrize("module", sorted(
    p.stem for p in (SRC / "lowcarb").glob("*.py") if p.stem != "__main__"))
def test_each_submodule_imports_on_its_own(module):
    # a lazy import can hide a cycle or a missing import that one import order shows
    name = "lowcarb" if module == "__init__" else f"lowcarb.{module}"
    proc = _fresh("-c", f"import {name}")
    assert proc.returncode == 0, proc.stderr


def test_package_runs_as_a_module():
    proc = _fresh("-m", "lowcarb", "--version")
    assert (proc.returncode, proc.stdout.strip()) == (0, f"lowcarb {lowcarb.__version__}")
