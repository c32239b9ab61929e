"""Second implementations of the package's jobs, kept only as test oracles.

Each restates one job of the program in the most direct way, so that tests can
compare the program with it: the alarm FSM that :func:`lowcarb._kernels.node_sim`
folds over a trace, the Cartesian product of designs that
:func:`lowcarb.optimize.optimize` ranks, the code limits, checked here one
design at a time from their fields where :func:`lowcarb.optimize.legal_space` checks
one candidate value at a time against each limit's interval, and the value rules as
lambdas, as they were written before they were declared as intervals.
"""

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Any

from lowcarb.model import ORIENTATION_ORDER
from lowcarb.node import AlarmState
from lowcarb.optimize import CodeLimits, DesignSpace, DesignVariables

#: The tests of the value rules by their names in ``lowcarb.model`` (``PACKING`` in
#: ``lowcarb.pv``), and of the rules that ``BuildingSpec`` fields wrote inline, by
#: their field path. ``lighting.lamp_count`` was ``NONNEGATIVE``.
RULES = {
    "FINITE": math.isfinite,
    "POSITIVE": lambda v: 0 < v < math.inf,
    "NONNEGATIVE": lambda v: 0 <= v < math.inf,
    "FRACTION": lambda v: 0 <= v <= 1,
    "ALTITUDE": lambda v: 0 < v < 90,
    "INTEGER": lambda v: v >= 0 and float(v).is_integer(),
    "BOOLEAN": lambda v: isinstance(v, bool),
    "SCHEMA": lambda v: v == 1,
    "PACKING": lambda v: 0 < v <= 1,
    "storeys": lambda v: v >= 1,
    "occupancy_hours": lambda v: 0 <= v <= 8760,
    "lighting.lamp_count": lambda v: 0 <= v < math.inf,
}


@dataclass(frozen=True)
class Violation:
    """One broken code limit: which variable, the offending value, the rule."""

    field: str
    value: Any
    rule: str

    def __str__(self) -> str:
        return f"{self.field}={self.value!r} violates rule: {self.rule}"


def alarm_transition(current: AlarmState, rain_reading: float,
                     threshold: float, hysteresis: float) -> AlarmState:
    """Threshold comparator with hysteresis.

    Turns on at ``reading >= threshold``; releases only below
    ``threshold - hysteresis``. With zero hysteresis it is a pure comparator.
    """
    if current is AlarmState.IDLE:
        return AlarmState.ALARM if rain_reading >= threshold else AlarmState.IDLE
    return AlarmState.IDLE if rain_reading < threshold - hysteresis else AlarmState.ALARM


def enumerate_designs(space: DesignSpace) -> list[DesignVariables]:
    """Full Cartesian product in lexicographic order of the variable order, with no cap."""
    return list(itertools.starmap(DesignVariables, itertools.product(
        *(candidates for _, candidates in space.candidate_lists()))))


def code_check(design: DesignVariables, limits: CodeLimits) -> list[Violation]:
    """One violation per orientation and variable that exceeds a bound, naming every
    bound set on it; empty when the design is code-legal. A ``strict`` wwr maximum
    excludes the bound itself, every other bound includes it."""
    out: list[Violation] = []
    for o in ORIENTATION_ORDER:
        lim = limits.limit(o)
        for var in ("wwr", "overhang"):
            value = getattr(design, var)(o)
            upper = "<" if var == "wwr" and lim.strict else "<="
            bounds = [(op, bound) for op, bound in ((upper, getattr(lim, f"max_{var}")),
                                                    (">=", getattr(lim, f"min_{var}")))
                      if bound is not None]
            if not all(_COMPARE[op](value, bound) for op, bound in bounds):
                rule = " and ".join(f"{var} {op} {bound}" for op, bound in bounds)
                out.append(Violation(f"{var}[{o}]", value, rule))
    return out


_COMPARE = {"<": operator.lt, "<=": operator.le, ">=": operator.ge}
