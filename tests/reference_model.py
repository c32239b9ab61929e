"""Second implementations of the package's jobs, kept only as test oracles.

Each restates one job of the program in the most direct way, so that tests can
compare the program with it: the alarm FSM that :func:`lowcarb._kernels.node_sim`
folds over a trace, the Cartesian product of designs that
:func:`lowcarb.optimize.optimize` ranks, and the code limits, checked here one
design at a time where :func:`lowcarb.optimize.legal_space` checks one candidate
value at a time.
"""

import itertools

from lowcarb.model import ORIENTATION_ORDER, Violation
from lowcarb.node import AlarmState
from lowcarb.optimize import CodeLimits, DesignSpace, DesignVariables


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
    space.validate()
    return list(itertools.starmap(DesignVariables, itertools.product(
        *(candidates for _, candidates in space.candidate_lists()))))


def code_check(design: DesignVariables, limits: CodeLimits) -> list[Violation]:
    """One violation per exceeded bound; empty when the design is code-legal."""
    out: list[Violation] = []
    for o in ORIENTATION_ORDER:
        lim = limits.limit(o)
        for var in ("wwr", "overhang"):
            value = getattr(design, var)(o)
            if not lim.ok(var, value):
                rule = " and ".join(f"{var} {op} {bound}" for op, bound in lim.bounds(var))
                out.append(Violation(f"{var}[{o}]", value, rule))
    return out
