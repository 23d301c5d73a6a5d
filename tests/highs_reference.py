"""scipy's HiGHS as an independent reference for membership in the
64-vertex product polytope: feasible iff HiGHS finds convex weights that
reproduce b within lp.FEASIBILITY_TOL.  The package decides membership by
its facet table; the tests compare the two on points clear of the cut."""
import numpy as np
from scipy.optimize import linprog

from gencube import lp

_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def highs_feasible(b: np.ndarray) -> bool:
    V = lp.vertex_product_matrix()
    res = linprog(np.zeros(64), A_eq=V, b_eq=b, bounds=(0, None), method="highs",
                  options=_OPTIONS)
    if res.status != 0:
        return False
    return bool(np.abs(V @ np.clip(res.x, 0.0, None) - b).max() <= lp.FEASIBILITY_TOL)
