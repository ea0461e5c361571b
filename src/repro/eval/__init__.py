"""The unified evaluation layer: pluggable cost models.

Everything that prices a candidate layout assignment lives behind one
protocol (:class:`~repro.eval.cost.CostModel`) and one registry:

========== ==================== ==========================================
name       unit                 what it measures
========== ==================== ==========================================
analytic   est-misses           Section 2 locality classes, priced per
                                reference (no machine state; cheapest)
weighted   violated-weight      nest-cost weight of the layout-network
                                constraints the candidate violates
simulated  cycles               trace-driven execution on the batch cache
                                simulator (configurable machine model)
========== ==================== ==========================================

``LayoutOptimizer(refine="simulated")`` closes the loop: the CSP
search proposes top-k candidates analytically, the simulator re-ranks
them empirically.  The service's ``evaluate`` request kind serves the
same models remotely with per-request hierarchy overrides.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "Cost": ".cost",
    "CostModel": ".cost",
    "available_cost_models": ".cost",
    "get_cost_model": ".cost",
    "register_cost_model": ".cost",
    "AnalyticCostModel": ".analytic",
    "WeightedCostModel": ".weighted",
    "SimulatedCostModel": ".simulated",
    "kendall_tau": ".agreement",
    "rank_positions": ".agreement",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
